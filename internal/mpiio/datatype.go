// Package mpiio implements the MPI-IO subset the paper's input processors
// rely on (Section 5.3): derived datatypes built with
// MPI_TYPE_CREATE_INDEXED_BLOCK, file views set with MPI_FILE_SET_VIEW,
// collective reads (MPI_FILE_READ_ALL, realized as two-phase I/O), and
// independent reads with data sieving for noncontiguous patterns.
package mpiio

import (
	"fmt"
	"slices"

	"repro/internal/pfs"
)

// Segment is a contiguous byte range of a file.
type Segment struct {
	Off, Len int64
}

// Datatype describes a (possibly noncontiguous) read pattern as byte
// segments relative to the view displacement.
type Datatype interface {
	// Segments returns the byte ranges covered by the type, relative to
	// offset zero, sorted and non-overlapping.
	Segments() []Segment
	// AppendSegments appends the same ranges to dst and returns it — the
	// allocation-free form File reuses across reads of an unchanged view.
	AppendSegments(dst []Segment) []Segment
	// Size returns the number of useful bytes (sum of segment lengths).
	Size() int64
}

// Contig is n contiguous elements of elemSize bytes.
type Contig struct {
	N        int
	ElemSize int64
}

// Segments implements Datatype.
func (c Contig) Segments() []Segment {
	if c.N <= 0 {
		return nil
	}
	return []Segment{{0, int64(c.N) * c.ElemSize}}
}

// AppendSegments implements Datatype.
func (c Contig) AppendSegments(dst []Segment) []Segment {
	if c.N <= 0 {
		return dst
	}
	return append(dst, Segment{0, int64(c.N) * c.ElemSize})
}

// Size implements Datatype.
func (c Contig) Size() int64 {
	if c.N <= 0 {
		return 0
	}
	return int64(c.N) * c.ElemSize
}

// IndexedBlock mirrors MPI_TYPE_CREATE_INDEXED_BLOCK: equal-length blocks of
// Blocklen elements at the given element displacements. This is the type
// the input processors derive from the octree data: each displacement is
// the index of a run of node records belonging to one octree block.
type IndexedBlock struct {
	Blocklen int     // elements per block
	Displs   []int64 // element displacements (need not be sorted)
	ElemSize int64   // bytes per element
}

// Segments implements Datatype: sorted, with adjacent/overlapping runs
// coalesced.
func (t IndexedBlock) Segments() []Segment {
	return t.AppendSegments(make([]Segment, 0, len(t.Displs)))
}

// AppendSegments implements Datatype: the per-displacement runs are staged
// in dst's spare capacity and coalesced in place, so a caller reusing dst
// across steps allocates nothing once it has grown to size.
func (t IndexedBlock) AppendSegments(dst []Segment) []Segment {
	if t.Blocklen <= 0 || len(t.Displs) == 0 {
		return dst
	}
	base := len(dst)
	for _, d := range t.Displs {
		dst = append(dst, Segment{Off: d * t.ElemSize, Len: int64(t.Blocklen) * t.ElemSize})
	}
	tail := Coalesce(dst[base:])
	return dst[:base+len(tail)]
}

// Size implements Datatype. Overlapping displacements are counted once
// (consistent with Segments).
func (t IndexedBlock) Size() int64 {
	var n int64
	for _, s := range t.Segments() {
		n += s.Len
	}
	return n
}

// committed is a Datatype whose segments were computed once, by Commit.
// The segment array is shared by every handle that views through the
// type: it is never written or appended to after Commit returns.
type committed struct {
	segs []Segment // sorted, coalesced, validated; cap == len
	size int64
}

// Commit freezes a datatype, mirroring MPI_TYPE_COMMIT: the sorted,
// coalesced segments and the byte size are computed and validated here,
// once, and the result is immutable, so any number of ranks and file
// handles may share it without synchronization. A File viewing through a
// committed type at displacement zero borrows its segments instead of
// expanding the type again, which leaves the end-of-file check as the only
// per-object work (File.SetView). Build one per static read pattern.
func Commit(t Datatype) (Datatype, error) {
	if ct, ok := t.(*committed); ok {
		return ct, nil
	}
	segs := slices.Clip(slices.Clone(t.Segments())) // exact size: held for the run
	if err := validate(segs); err != nil {
		return nil, err
	}
	ct := &committed{segs: segs}
	for _, s := range segs {
		ct.size += s.Len
	}
	return ct, nil
}

// Segments implements Datatype; the result is the caller's own copy.
func (t *committed) Segments() []Segment { return slices.Clone(t.segs) }

// AppendSegments implements Datatype.
func (t *committed) AppendSegments(dst []Segment) []Segment { return append(dst, t.segs...) }

// Size implements Datatype.
func (t *committed) Size() int64 { return t.size }

// Coalesce sorts segments by offset, drops empty ones, and merges
// overlapping or adjacent runs. The result is a prefix of the input slice
// (the work happens in place and allocates nothing); the input may be
// reordered.
func Coalesce(segs []Segment) []Segment {
	nonEmpty := segs[:0]
	for _, s := range segs {
		if s.Len > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	segs = nonEmpty
	if len(segs) == 0 {
		return nil
	}
	slices.SortFunc(segs, func(a, b Segment) int {
		switch {
		case a.Off < b.Off:
			return -1
		case a.Off > b.Off:
			return 1
		}
		return 0
	})
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if s.Off <= last.Off+last.Len {
			if end := s.Off + s.Len; end > last.Off+last.Len {
				last.Len = end - last.Off
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// validate checks segment sanity for error messages.
func validate(segs []Segment) error {
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 {
			return fmt.Errorf("mpiio: invalid segment %+v: %w", s, pfs.ErrPermanent)
		}
	}
	return nil
}

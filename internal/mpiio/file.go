package mpiio

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

// DefaultSieveGap is the largest hole (in bytes) that data sieving will
// read through rather than splitting into separate requests. ROMIO's
// default sieving buffer is of this order.
const DefaultSieveGap = 64 << 10

// File is an open MPI-IO file handle. A handle is rank-local; collective
// operations (ReadAllInto) must be invoked by every rank of the communicator
// in the same order, as in MPI.
type File struct {
	c    *mpi.Comm
	st   pfs.Store
	name string
	size int64

	disp    int64
	view    Datatype
	defView Contig // backing store for the default whole-file view

	// SieveGap tunes data sieving; zero disables coalescing through holes.
	SieveGap int64

	// View cache, valid while viewFresh (until the next SetView or Reopen):
	// cur are the view's absolute segments and useful their byte total. A
	// committed view at displacement zero lends cur its own shared array,
	// so a SetView after a Reopen costs the end-of-file check and nothing
	// else; every other view is expanded into own, the handle's private
	// segment scratch and the only segment array a handle ever writes.
	cur       []Segment
	useful    int64
	viewErr   error
	viewFresh bool
	own       []Segment

	// Independent-read staging: the sieve plan (physical runs, planTotal
	// bytes in all) is kept while the segments and the SieveGap it was
	// built from are unchanged — planOK is dropped whenever own is
	// rewritten or another committed type than planOf is viewed — and the
	// runs land in one packed read buffer, so a repeated ReadInto
	// allocates nothing.
	plan      []Segment
	planTotal int64
	planGap   int64
	planOf    *committed
	planOK    bool
	scratch   []byte

	// coll is the epoch-scoped collective-read staging (see
	// CollectiveScratch), created lazily by the first ReadAllInto and kept
	// across Reopens like the other steady-state buffers.
	coll *CollectiveScratch

	// Stats for the I/O strategy experiments.
	PhysReads    int   // physical read requests issued
	PhysBytes    int64 // bytes physically read (including sieved holes)
	UsefulBytes  int64 // bytes actually requested by the view
	ShuffleBytes int64 // bytes exchanged during two-phase redistribution
	ShuffleMsgs  int   // messages exchanged during two-phase redistribution
}

// Open opens the named object for reading.
func Open(c *mpi.Comm, st pfs.Store, name string) (*File, error) {
	f := new(File)
	if err := f.Reopen(c, st, name); err != nil {
		return nil, err
	}
	return f, nil
}

// Reopen re-initializes an existing handle onto (possibly) another object,
// as Open would, while keeping the handle's grown scratch buffers (view
// segments, sieve plan, packed read buffer) — the steady-state form for a
// timestep loop that opens one object per step, which allocates nothing
// once the buffers have grown. The view resets to the whole file (the
// caller sets its own again, which for a committed type re-runs only the
// end-of-file check against the new object's size); the I/O
// statistics keep accumulating across Reopens (they describe the handle,
// not the object).
func (f *File) Reopen(c *mpi.Comm, st pfs.Store, name string) error {
	size, err := st.Size(name)
	if err != nil {
		return err
	}
	f.c, f.st, f.name, f.size = c, st, name, size
	f.disp = 0
	f.defView = Contig{N: int(size), ElemSize: 1}
	f.view = &f.defView
	f.SieveGap = DefaultSieveGap
	f.viewFresh = false
	return nil
}

// Opened reports whether the handle currently has an object open. A failed
// Reopen leaves the handle on its previous object (Reopen commits its
// fields only after the size probe succeeds), so an Opened handle can keep
// serving that object — the I/O-level stale fallback fault-tolerant
// collective fetches rely on (docs/faults.md).
func (f *File) Opened() bool { return f.st != nil }

// SetView establishes this rank's view of the file: the datatype's
// segments, displaced by disp bytes (mirrors MPI_FILE_SET_VIEW). The view
// is checked against the open object by the next read or ViewSize.
func (f *File) SetView(disp int64, t Datatype) {
	f.disp = disp
	f.view = t
	f.viewFresh = false
}

// segs returns the absolute byte segments of the current view and their
// byte total, computing them on the first read after a SetView or Reopen
// and reusing the cached result afterwards. The slice is valid until the
// next SetView and must not be written: it may be a committed type's
// shared array.
func (f *File) segs() ([]Segment, int64, error) {
	if f.viewFresh {
		return f.cur, f.useful, f.viewErr
	}
	if ct, ok := f.view.(*committed); ok && f.disp == 0 {
		if f.planOf != ct {
			f.planOf, f.planOK = ct, false
		}
		f.cur, f.useful, f.viewErr = ct.segs, ct.size, nil
	} else {
		f.planOf, f.planOK = nil, false
		f.own = f.view.AppendSegments(f.own[:0])
		f.useful = 0
		for i := range f.own {
			f.own[i].Off += f.disp
			f.useful += f.own[i].Len
		}
		f.cur, f.viewErr = f.own, validate(f.own)
	}
	// Segments are sorted and disjoint, so the last one reaches furthest.
	if n := len(f.cur); f.viewErr == nil && n > 0 && f.cur[n-1].Off+f.cur[n-1].Len > f.size {
		f.viewErr = f.eofError()
	}
	f.viewFresh = true
	return f.cur, f.useful, f.viewErr
}

// eofError names the first segment of the current view that reaches beyond
// the end of the open object.
func (f *File) eofError() error {
	for _, seg := range f.cur {
		if seg.Off+seg.Len > f.size {
			return fmt.Errorf("mpiio: view segment [%d,%d) beyond EOF of %q (size %d): %w", seg.Off, seg.Off+seg.Len, f.name, f.size, pfs.ErrPermanent)
		}
	}
	return nil
}

// ViewSize returns the number of useful bytes the current view selects —
// the length ReadInto's destination must have.
func (f *File) ViewSize() (int64, error) {
	_, useful, err := f.segs()
	if err != nil {
		return 0, err
	}
	return useful, nil
}

// planSieveInto appends the sieve plan to dst: view segments grouped into
// physical reads, reading through holes no larger than gap (data sieving).
func planSieveInto(dst, segs []Segment, gap int64) []Segment {
	for _, s := range segs {
		if n := len(dst); n > 0 {
			last := &dst[n-1]
			if s.Off-(last.Off+last.Len) <= gap {
				last.Len = s.Off + s.Len - last.Off
				continue
			}
		}
		dst = append(dst, s)
	}
	return dst
}

// ReadInto performs an independent read of the entire view, writing the
// useful bytes packed in view order into dst (which must hold ViewSize
// bytes) and returning the byte count. Noncontiguous views are serviced
// with data sieving: every physical sieve run lands back-to-back in one
// reusable contiguous scratch buffer — a packed contiguous read per run
// instead of a per-displacement allocation loop — and the useful parts are
// then scatter-copied into dst, so the steady state of a step loop with an
// unchanged view allocates nothing.
func (f *File) ReadInto(dst []byte) (int, error) {
	segs, useful, err := f.segs()
	if err != nil {
		return 0, err
	}
	if int64(len(dst)) < useful {
		return 0, fmt.Errorf("mpiio: ReadInto buffer holds %d of %d view bytes: %w", len(dst), useful, pfs.ErrPermanent)
	}
	if !f.planOK || f.planGap != f.SieveGap {
		f.plan = planSieveInto(f.plan[:0], segs, f.SieveGap)
		f.planTotal = 0
		for _, p := range f.plan {
			f.planTotal += p.Len
		}
		f.planOK, f.planGap = true, f.SieveGap
	}
	total := f.planTotal
	if int64(cap(f.scratch)) < total {
		f.scratch = make([]byte, total)
	}
	packed := f.scratch[:total]
	pos := int64(0)
	base := int64(0)
	si := 0
	for _, p := range f.plan {
		run := packed[base : base+p.Len]
		base += p.Len
		if err := f.st.ReadAt(f.c, f.name, p.Off, run); err != nil {
			return 0, err
		}
		f.PhysReads++
		f.PhysBytes += p.Len
		for si < len(segs) && segs[si].Off+segs[si].Len <= p.Off+p.Len {
			s := segs[si]
			copy(dst[pos:pos+s.Len], run[s.Off-p.Off:])
			pos += s.Len
			si++
		}
	}
	f.UsefulBytes += useful
	return int(useful), nil
}

// ReadContigInto reads [off, off+len(dst)) directly into the caller's
// buffer, bypassing the view — the "independent contiguous read" strategy
// of Section 5.3.2, and the allocation-free per-timestep contiguous fetch.
// An out-of-range request fails before any I/O.
func (f *File) ReadContigInto(off int64, dst []byte) error {
	n := int64(len(dst))
	if off < 0 || off+n > f.size {
		return fmt.Errorf("mpiio: contiguous read [%d,%d) beyond EOF of %q: %w", off, off+n, f.name, pfs.ErrPermanent)
	}
	if err := f.st.ReadAt(f.c, f.name, off, dst); err != nil {
		return err
	}
	f.PhysReads++
	f.PhysBytes += n
	f.UsefulBytes += n
	return nil
}

// collTagBase is the tag space for two-phase shuffles; the caller passes a
// sequence number so consecutive collectives stay separate.
const collTagBase = 1 << 20

// piece is a fragment of file data redistributed during two-phase I/O.
type piece struct {
	Off  int64
	Data []byte
}

// clip returns the part of s inside [lo, hi).
func clip(s Segment, lo, hi int64) Segment {
	o := s.Off
	e := s.Off + s.Len
	if o < lo {
		o = lo
	}
	if e > hi {
		e = hi
	}
	if e <= o {
		return Segment{}
	}
	return Segment{Off: o, Len: e - o}
}

// findSegIdx locates the index of the sorted segment containing file
// offset off by binary search, or -1.
func findSegIdx(segs []Segment, off int64) int {
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].Off <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	if i < 0 || off >= segs[i].Off+segs[i].Len {
		return -1
	}
	return i
}

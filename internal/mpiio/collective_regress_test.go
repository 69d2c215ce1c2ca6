package mpiio

// PR 5's regression harness for the epoch-scoped collective read: the
// per-call two-phase oracle ReadAllInto is held to, byte for byte AND stat
// for stat (PhysReads/PhysBytes/UsefulBytes/ShuffleBytes/ShuffleMsgs on the
// file, MsgsSent/BytesSent/MsgsRecv/BytesRecv on the communicator), by the
// scripts of replay_regress_test.go; and the gate that a steady-state
// collective round allocates nothing on any rank.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

// collStats is the accounting snapshot the equivalence test compares.
type collStats struct {
	PhysReads    int
	PhysBytes    int64
	UsefulBytes  int64
	ShuffleBytes int64
	ShuffleMsgs  int
	MsgsSent     int
	BytesSent    int64
	MsgsRecv     int
	BytesRecv    int64
}

func snapStats(f *File, c *mpi.Comm) collStats {
	return collStats{
		PhysReads: f.PhysReads, PhysBytes: f.PhysBytes, UsefulBytes: f.UsefulBytes,
		ShuffleBytes: f.ShuffleBytes, ShuffleMsgs: f.ShuffleMsgs,
		MsgsSent: c.MsgsSent, BytesSent: c.BytesSent,
		MsgsRecv: c.MsgsRecv, BytesRecv: c.BytesRecv,
	}
}

// interleavedView gives rank r elements r, r+n, r+2n, ... — the fully
// interleaved pattern that forces every rank to shuffle with every other.
func interleavedView(rank, ranks, elems int, elemSize int64) IndexedBlock {
	var displs []int64
	for e := rank; e < elems; e += ranks {
		displs = append(displs, int64(e))
	}
	return IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: elemSize}
}

// TestReadAllSteadyStateAllocFree is the PR 5 acceptance gate for the
// collective layer: a steady-state collective round — reopen onto the
// step's object, set the view again, two-phase read with the epoch-scoped
// scratch — allocates nothing on any rank. The `plain` leg rebuilds an
// IndexedBlock view's segments in place every round; the `committed` leg
// is the fetch step's shape with temporal enhancement: a committed view
// shared by two handles, the collective on one and an independent read of
// another object through the same view on the other. Allocation counts are
// process-global (see steadyAllocs in the compositor suite), so a nonzero
// result implicates the steady state of *some* rank.
func TestReadAllSteadyStateAllocFree(t *testing.T) {
	const ranks, elems = 4, 512
	st := pfs.NewMemStore()
	names := []string{"s0", "s1", "s2"}
	for _, n := range names {
		makeTestFile(t, st, n, 12*elems)
	}
	for _, committed := range []bool{false, true} {
		name := "plain"
		if committed {
			name = "committed"
		}
		t.Run(name, func(t *testing.T) {
			var avg float64
			mpi.RunReal(ranks, func(c *mpi.Comm) {
				f, err := Open(c, st, names[0])
				if err != nil {
					t.Error(err)
					return
				}
				ib := interleavedView(c.Rank(), ranks, elems, 12)
				var view Datatype = &ib
				var prev File
				if committed {
					if view, err = Commit(ib); err != nil {
						t.Error(err)
						return
					}
				}
				dst := make([]byte, view.Size())
				pdst := make([]byte, view.Size())
				seq := 0
				round := func() {
					seq++
					if err := f.Reopen(c, st, names[seq%len(names)]); err != nil {
						t.Error(err)
						return
					}
					f.SetView(0, view)
					if _, err := f.ReadAllInto(seq, dst); err != nil {
						t.Error(err)
					}
					if committed {
						if err := prev.Reopen(c, st, names[(seq+1)%len(names)]); err != nil {
							t.Error(err)
							return
						}
						prev.SetView(0, view)
						if _, err := prev.ReadInto(pdst); err != nil {
							t.Error(err)
						}
					}
					// Lock-step so every release of this round lands before any
					// rank starts the next (free-running drift could outrun a pool).
					c.Barrier()
				}
				const warm, rounds = 5, 20
				for i := 0; i < warm; i++ {
					round()
				}
				if c.Rank() == 0 {
					avg = testing.AllocsPerRun(rounds, round)
				} else {
					for i := 0; i < rounds+1; i++ {
						round()
					}
				}
			})
			if avg != 0 {
				t.Errorf("steady-state collective read allocates %v per round, want 0", avg)
			}
		})
	}
}

// TestCollectivePlansCoverLongStepLoop runs a step loop of more distinct
// views than any bound a plan cache might guess, twice over, the way the
// pipeline reads one committed view per step: the first pass builds one
// plan per step, the second replays every one of them and builds none,
// with the bytes the first pass read.
func TestCollectivePlansCoverLongStepLoop(t *testing.T) {
	const ranks, steps, elems = 2, 100, 256
	st := pfs.NewMemStore()
	data := makeTestFile(t, st, "s", 12*elems)
	mpi.RunReal(ranks, func(c *mpi.Comm) {
		views := make([]Datatype, steps)
		for k := range views {
			ib := IndexedBlock{Blocklen: 1, ElemSize: 12}
			for j := 0; j <= k; j++ {
				ib.Displs = append(ib.Displs, int64(c.Rank()+ranks*j))
			}
			var err error
			if views[k], err = Commit(ib); err != nil {
				t.Error(err)
				return
			}
		}
		f, err := Open(c, st, "s")
		if err != nil {
			t.Error(err)
			return
		}
		builds := [2]int{}
		for pass := range builds {
			before := f.PlanBuilds
			for k, view := range views {
				f.SetView(0, view)
				dst := make([]byte, view.Size())
				if _, err := f.ReadAllInto(pass*steps+k, dst); err != nil {
					t.Error(err)
					return
				}
				for j := 0; j <= k; j++ {
					e := c.Rank() + ranks*j
					if !bytes.Equal(dst[12*j:12*j+12], data[12*e:12*e+12]) {
						t.Errorf("rank %d pass %d step %d: element %d differs from the file's", c.Rank(), pass, k, e)
						return
					}
				}
			}
			builds[pass] = f.PlanBuilds - before
		}
		if builds != [2]int{steps, 0} {
			t.Errorf("rank %d built %d plans in the first pass and %d in the second, want %d and 0", c.Rank(), builds[0], builds[1], steps)
		}
	})
}

// BenchmarkCollectiveReadSteadyState measures a steady-state 4-rank
// two-phase collective round over a fixed interleaved view: `epoch` is the
// PR 5 scratch path (must report ~0 allocs/op across all ranks), `percall`
// the retained allocating reference.
func BenchmarkCollectiveReadSteadyState(b *testing.B) {
	const ranks, elems = 4, 4096
	st := pfs.NewMemStore()
	data := make([]byte, 12*elems)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := st.Write("f", data); err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		read func(f *File, seq int, dst []byte) (int, error)
	}{
		{"epoch", func(f *File, seq int, dst []byte) (int, error) { return f.ReadAllInto(seq, dst) }},
		{"percall", func(f *File, seq int, dst []byte) (int, error) { return f.readAllIntoPerCall(seq, dst) }},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			mpi.RunReal(ranks, func(c *mpi.Comm) {
				f, err := Open(c, st, "f")
				if err != nil {
					b.Error(err)
					return
				}
				ib := interleavedView(c.Rank(), ranks, elems, 12)
				f.SetView(0, &ib)
				dst := make([]byte, int64(len(ib.Displs))*12)
				const warm = 3
				for i := 0; i < warm; i++ {
					if _, err := mode.read(f, i+1, dst); err != nil {
						b.Error(err)
						return
					}
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if _, err := mode.read(f, warm+1+i, dst); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// allgatherPerCall is the Allgather readAllIntoPerCall exchanges its request
// metadata with: gather to rank 0, then broadcast the table down a binomial
// tree. exchangeMeta replicates its message accounting.
func allgatherPerCall(c *mpi.Comm, seq int, bytes int64, data any) []any {
	tagG := metaTagBase + 2*seq
	tagB := tagG + 1
	n := c.Size()
	var all []any
	if c.Rank() != 0 {
		c.Send(0, tagG, bytes, data)
		m := c.Recv(mpi.AnySource, tagB)
		all, bytes = m.Data.([]any), m.Bytes
	} else {
		all = make([]any, n)
		all[0] = data
		for i := 1; i < n; i++ {
			m := c.Recv(mpi.AnySource, tagG)
			all[m.Src] = m.Data
		}
		bytes *= int64(n)
	}
	for k := 1; k < n; k <<= 1 {
		if c.Rank() < k && c.Rank()+k < n {
			c.Send(c.Rank()+k, tagB, bytes, all)
		}
	}
	return all
}

// readAllIntoPerCall is the retained pre-epoch two-phase implementation:
// every call stages the aggregated physical reads and the shuffled pieces
// in fresh per-call buffers, so pieces whose assembly on a receiver
// outlives this call can never be overwritten. It is the bit-exactness and
// accounting reference the epoch-scoped ReadAllInto is tested against.
// Like ReadAllInto, every rank of the communicator must call it in the
// same order with the same seq; the two implementations exchange metadata
// differently and must not be mixed within one collective.
func (f *File) readAllIntoPerCall(seq int, dst []byte) (int, error) {
	c := f.c
	mySegs, _, err := f.segs()
	if err != nil {
		return 0, err
	}
	var useful int64
	for _, s := range mySegs {
		useful += s.Len
	}
	if int64(len(dst)) < useful {
		return 0, fmt.Errorf("mpiio: ReadAllInto buffer holds %d of %d view bytes: %w", len(dst), useful, pfs.ErrPermanent)
	}
	// Phase 0: exchange request metadata.
	metaBytes := int64(16 * len(mySegs))
	allAny := allgatherPerCall(c, seq, metaBytes, mySegs)
	all := make([][]Segment, c.Size())
	lo, hi := int64(-1), int64(-1)
	for r, v := range allAny {
		if v != nil {
			all[r] = v.([]Segment)
		}
		for _, s := range all[r] {
			if lo < 0 || s.Off < lo {
				lo = s.Off
			}
			if e := s.Off + s.Len; e > hi {
				hi = e
			}
		}
	}
	tag := collTagBase + seq
	if lo < 0 { // nobody wants anything
		return 0, nil
	}
	// Phase 1: this rank aggregates the file range [myLo, myHi).
	span := hi - lo
	m := int64(c.Size())
	myLo := lo + span*int64(c.Rank())/m
	myHi := lo + span*int64(c.Rank()+1)/m
	// Union of all requested segments clipped to my range.
	var clipped []Segment
	for _, rs := range all {
		for _, s := range rs {
			cl := clip(s, myLo, myHi)
			if cl.Len > 0 {
				clipped = append(clipped, cl)
			}
		}
	}
	clipped = Coalesce(clipped)
	plan := planSieveInto(nil, clipped, sieveGap)
	// Read the physical runs back-to-back into one packed buffer (a single
	// allocation regardless of the run count). The buffer is per-call, not
	// the reusable scratch: the pieces shuffled to other ranks alias it
	// until their assembly completes, which may outlive this call.
	var total int64
	for _, p := range plan {
		total += p.Len
	}
	packed := make([]byte, total)
	type run struct {
		off, base, len int64
	}
	runs := make([]run, 0, len(plan))
	base := int64(0)
	for _, p := range plan {
		buf := packed[base : base+p.Len]
		if err := f.st.ReadAt(f.c, f.name, p.Off, buf); err != nil {
			return 0, err
		}
		f.PhysReads++
		f.PhysBytes += p.Len
		runs = append(runs, run{p.Off, base, p.Len})
		base += p.Len
	}
	lookup := func(off, n int64) []byte {
		for _, r := range runs {
			if off >= r.off && off+n <= r.off+r.len {
				return packed[r.base+off-r.off : r.base+off-r.off+n]
			}
		}
		panic("mpiio: two-phase lookup miss")
	}
	// Phase 2: send every rank the pieces of its view that fall in my range.
	for dr := 0; dr < c.Size(); dr++ {
		var ps []piece
		var bytes int64
		for _, s := range all[dr] {
			cl := clip(s, myLo, myHi)
			if cl.Len > 0 {
				ps = append(ps, piece{Off: cl.Off, Data: lookup(cl.Off, cl.Len)})
				bytes += cl.Len
			}
		}
		if dr == c.Rank() {
			continue // keep own pieces local; they are in runs already
		}
		c.Send(dr, tag, bytes, ps)
		if len(ps) > 0 {
			f.ShuffleBytes += bytes
			f.ShuffleMsgs++
		}
	}
	// Collect pieces for my view from everyone (including my own range).
	var mine []piece
	for _, s := range mySegs {
		cl := clip(s, myLo, myHi)
		if cl.Len > 0 {
			mine = append(mine, piece{Off: cl.Off, Data: lookup(cl.Off, cl.Len)})
		}
	}
	for sr := 0; sr < c.Size(); sr++ {
		if sr == c.Rank() {
			continue
		}
		msg := c.Recv(sr, tag)
		if msg.Data != nil {
			mine = append(mine, msg.Data.([]piece)...)
		}
	}
	// Assemble into packed view order: prefix sums give each (sorted)
	// segment's packed position, and each piece finds its containing
	// segment by binary search.
	prefix := make([]int64, len(mySegs)+1)
	for i, s := range mySegs {
		prefix[i+1] = prefix[i] + s.Len
	}
	filled := int64(0)
	for _, pc := range mine {
		si := findSegIdx(mySegs, pc.Off)
		if si < 0 {
			return 0, fmt.Errorf("mpiio: received stray piece at %d: %w", pc.Off, pfs.ErrPermanent)
		}
		copy(dst[prefix[si]+pc.Off-mySegs[si].Off:], pc.Data)
		filled += int64(len(pc.Data))
	}
	if filled != useful {
		return 0, fmt.Errorf("mpiio: two-phase assembled %d of %d bytes: %w", filled, useful, pfs.ErrPermanent)
	}
	f.UsefulBytes += useful
	return int(useful), nil
}

// findSegIdx locates the index of the sorted segment containing file
// offset off by binary search, or -1: how the per-call oracle places every
// piece it receives.
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

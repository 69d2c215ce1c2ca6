package mpiio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

func TestContigSegments(t *testing.T) {
	c := Contig{N: 10, ElemSize: 4}
	s := c.Segments()
	if len(s) != 1 || s[0] != (Segment{0, 40}) {
		t.Errorf("segments = %v", s)
	}
	if c.Size() != 40 {
		t.Errorf("size = %d", c.Size())
	}
	if (Contig{N: 0, ElemSize: 4}).Size() != 0 {
		t.Error("empty contig has nonzero size")
	}
}

func TestIndexedBlockSegments(t *testing.T) {
	ib := IndexedBlock{Blocklen: 2, Displs: []int64{5, 0, 9}, ElemSize: 4}
	s := ib.Segments()
	want := []Segment{{0, 8}, {20, 8}, {36, 8}}
	if len(s) != len(want) {
		t.Fatalf("segments = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("seg[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestIndexedBlockCoalescesAdjacent(t *testing.T) {
	ib := IndexedBlock{Blocklen: 2, Displs: []int64{0, 2, 4, 10}, ElemSize: 1}
	s := ib.Segments()
	want := []Segment{{0, 6}, {10, 2}}
	if len(s) != 2 || s[0] != want[0] || s[1] != want[1] {
		t.Errorf("segments = %v, want %v", s, want)
	}
	if ib.Size() != 8 {
		t.Errorf("size = %d, want 8", ib.Size())
	}
}

func TestCoalesceProperty(t *testing.T) {
	// Coalesced segments must cover exactly the same byte set and be
	// sorted, non-overlapping, non-adjacent.
	f := func(offs []uint16, lens []uint8) bool {
		n := len(offs)
		if len(lens) < n {
			n = len(lens)
		}
		segs := make([]Segment, 0, n)
		covered := map[int64]bool{}
		for i := 0; i < n; i++ {
			s := Segment{Off: int64(offs[i]), Len: int64(lens[i])}
			segs = append(segs, s)
			for b := s.Off; b < s.Off+s.Len; b++ {
				covered[b] = true
			}
		}
		out := Coalesce(segs)
		var total int64
		for i, s := range out {
			if s.Len <= 0 {
				if s.Len == 0 && len(out) == 1 {
					continue
				}
				return false
			}
			if i > 0 && s.Off <= out[i-1].Off+out[i-1].Len {
				return false
			}
			for b := s.Off; b < s.Off+s.Len; b++ {
				if !covered[b] {
					return false
				}
			}
			total += s.Len
		}
		return total == int64(len(covered))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlanSieve(t *testing.T) {
	segs := []Segment{{0, 10}, {15, 5}, {1000, 10}}
	plan := planSieveInto(nil, segs, 16)
	if len(plan) != 2 || plan[0] != (Segment{0, 20}) || plan[1] != (Segment{1000, 10}) {
		t.Errorf("plan = %v", plan)
	}
	plan0 := planSieveInto(nil, segs, 0)
	if len(plan0) != 3 {
		t.Errorf("gap=0 plan = %v", plan0)
	}
}

// makeTestFile writes n pseudo-random bytes as an object.
func makeTestFile(t testing.TB, st pfs.Store, name string, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(n)))
	rng.Read(data)
	if err := st.Write(name, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// readView, readContig and readAllView run the ...Into reads into a fresh,
// exactly sized destination, the way a one-shot caller does.
func readView(f *File) ([]byte, error) {
	n, err := f.ViewSize()
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := f.ReadInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

func readContig(f *File, off, n int64) ([]byte, error) {
	out := make([]byte, n)
	if err := f.ReadContigInto(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

func readAllView(f *File, seq int) ([]byte, error) {
	n, err := f.ViewSize()
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if _, err := f.ReadAllInto(seq, out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestIndependentReadMatchesDirect(t *testing.T) {
	st := pfs.NewMemStore()
	data := makeTestFile(t, st, "f", 4096)
	mpi.RunReal(1, func(c *mpi.Comm) {
		f, err := Open(c, st, "f")
		if err != nil {
			t.Error(err)
			return
		}
		ib := IndexedBlock{Blocklen: 3, Displs: []int64{7, 100, 42}, ElemSize: 8}
		f.SetView(16, ib)
		got, err := readView(f)
		if err != nil {
			t.Error(err)
			return
		}
		var want []byte
		for _, d := range []int64{7, 42, 100} { // sorted displacement order
			off := 16 + d*8
			want = append(want, data[off:off+24]...)
		}
		if !bytes.Equal(got, want) {
			t.Error("independent noncontiguous read mismatch")
		}
	})
}

func TestSievingReducesRequests(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 1<<16)
	mpi.RunReal(1, func(c *mpi.Comm) {
		displs := make([]int64, 64)
		for i := range displs {
			displs[i] = int64(i * 16) // 8 useful bytes every 128 bytes
		}
		view := IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: 8}

		sieved, _ := Open(c, st, "f")
		sieved.SetView(0, view)
		a, err := readView(sieved)
		if err != nil {
			t.Error(err)
			return
		}
		nosieve, _ := Open(c, st, "f")
		nosieve.SieveGap = 0
		nosieve.SetView(0, view)
		b, err := readView(nosieve)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(a, b) {
			t.Error("sieving changed read contents")
		}
		if sieved.PhysReads != 1 {
			t.Errorf("sieved PhysReads = %d, want 1", sieved.PhysReads)
		}
		if nosieve.PhysReads != 64 {
			t.Errorf("unsieved PhysReads = %d, want 64", nosieve.PhysReads)
		}
		if sieved.PhysBytes <= nosieve.PhysBytes {
			t.Error("sieving should read more raw bytes through holes")
		}
	})
}

func TestReadContig(t *testing.T) {
	st := pfs.NewMemStore()
	data := makeTestFile(t, st, "f", 1024)
	mpi.RunReal(1, func(c *mpi.Comm) {
		f, _ := Open(c, st, "f")
		got, err := readContig(f, 100, 50)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data[100:150]) {
			t.Error("contiguous read mismatch")
		}
		if _, err := readContig(f, 1000, 100); err == nil {
			t.Error("read past EOF succeeded")
		}
	})
}

func TestViewBeyondEOFErrors(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 64)
	mpi.RunReal(1, func(c *mpi.Comm) {
		f, _ := Open(c, st, "f")
		f.SetView(0, IndexedBlock{Blocklen: 1, Displs: []int64{100}, ElemSize: 8})
		if _, err := readView(f); err == nil {
			t.Error("view beyond EOF read succeeded")
		}
	})
}

// collectiveMatchesIndependent runs ReadAll on n ranks with interleaved
// views and checks each rank gets exactly what an independent read returns.
func collectiveMatchesIndependent(t *testing.T, n int, elemSize int64, elems int) {
	t.Helper()
	st := pfs.NewMemStore()
	data := makeTestFile(t, st, "f", int(elemSize)*elems)
	results := make([][]byte, n)
	wants := make([][]byte, n)
	mpi.RunReal(n, func(c *mpi.Comm) {
		// Rank r takes elements r, r+n, r+2n, ... (fully interleaved).
		var displs []int64
		for e := c.Rank(); e < elems; e += n {
			displs = append(displs, int64(e))
		}
		view := IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: elemSize}

		fc, err := Open(c, st, "f")
		if err != nil {
			t.Error(err)
			return
		}
		fc.SetView(0, view)
		got, err := readAllView(fc, 1)
		if err != nil {
			t.Error(err)
			return
		}
		results[c.Rank()] = got

		var want []byte
		for _, d := range displs {
			off := d * elemSize
			want = append(want, data[off:off+elemSize]...)
		}
		wants[c.Rank()] = want
	})
	for r := 0; r < n; r++ {
		if !bytes.Equal(results[r], wants[r]) {
			t.Errorf("rank %d collective read mismatch (%d vs %d bytes)", r, len(results[r]), len(wants[r]))
		}
	}
}

func TestCollectiveReadMatchesIndependent(t *testing.T) {
	collectiveMatchesIndependent(t, 1, 8, 32)
	collectiveMatchesIndependent(t, 2, 8, 64)
	collectiveMatchesIndependent(t, 4, 16, 256)
	collectiveMatchesIndependent(t, 7, 4, 100) // non-power-of-two, uneven
}

func TestCollectiveReadEmptyViews(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 256)
	mpi.RunReal(3, func(c *mpi.Comm) {
		f, _ := Open(c, st, "f")
		if c.Rank() == 1 {
			f.SetView(0, IndexedBlock{Blocklen: 4, Displs: []int64{2}, ElemSize: 8})
		} else {
			f.SetView(0, Contig{N: 0, ElemSize: 1}) // empty view
		}
		got, err := readAllView(f, 1)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 1 && len(got) != 32 {
			t.Errorf("rank 1 got %d bytes, want 32", len(got))
		}
		if c.Rank() != 1 && len(got) != 0 {
			t.Errorf("rank %d got %d bytes, want 0", c.Rank(), len(got))
		}
	})
}

func TestCollectiveAllEmpty(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 64)
	mpi.RunReal(2, func(c *mpi.Comm) {
		f, _ := Open(c, st, "f")
		f.SetView(0, Contig{N: 0, ElemSize: 1})
		got, err := readAllView(f, 1)
		if err != nil || len(got) != 0 {
			t.Errorf("all-empty collective: %v, %d bytes", err, len(got))
		}
	})
}

func TestCollectiveUnderSimTransport(t *testing.T) {
	// The same collective must work (and terminate) on the DES transport.
	st := pfs.NewMemStore()
	data := makeTestFile(t, st, "f", 1024)
	cfg := mpi.SimConfig{OutBW: 1e8, InBW: 1e8, DiskClientBW: 5e7, DiskAggBW: 4e8}
	results := make([][]byte, 4)
	mpi.RunSim(4, cfg, func(c *mpi.Comm) {
		var displs []int64
		for e := c.Rank(); e < 128; e += 4 {
			displs = append(displs, int64(e))
		}
		f, _ := Open(c, st, "f")
		f.SetView(0, IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: 8})
		got, err := readAllView(f, 1)
		if err != nil {
			t.Error(err)
			return
		}
		results[c.Rank()] = got
	})
	for r, res := range results {
		for i := 0; i < len(res); i += 8 {
			e := int64(r + (i/8)*4)
			if !bytes.Equal(res[i:i+8], data[e*8:e*8+8]) {
				t.Fatalf("rank %d element %d mismatch", r, i/8)
			}
		}
	}
}

func TestOpenMissingFileErrors(t *testing.T) {
	st := pfs.NewMemStore()
	mpi.RunReal(1, func(c *mpi.Comm) {
		if _, err := Open(c, st, "nope"); err == nil {
			t.Error("opening missing object succeeded")
		}
	})
}

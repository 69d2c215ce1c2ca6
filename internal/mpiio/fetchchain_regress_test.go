package mpiio

// PR 4's regression harness for the fetch-side handle reuse: Reopen must
// behave exactly like a fresh Open (while keeping the grown scratch
// buffers), ReadContigInto/ReadAllInto must return the file's bytes for
// fresh and reused destinations alike, and the steady-state reopen-per-step indexed
// read — the input processors' per-timestep pattern — must allocate
// nothing.

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

func TestReopenMatchesOpen(t *testing.T) {
	st := pfs.NewMemStore()
	a := makeTestFile(t, st, "a", 4096)
	b := makeTestFile(t, st, "b", 8192)
	f, err := Open(nil, st, "a")
	if err != nil {
		t.Fatal(err)
	}
	got, err := readView(f) // default view: the whole file
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("initial open read mismatch")
	}
	// Narrow the view and sieve gap, then Reopen: both must reset.
	f.SetView(8, Contig{N: 16, ElemSize: 4})
	f.SieveGap = 1
	if err := f.Reopen(nil, st, "b"); err != nil {
		t.Fatal(err)
	}
	if f.size != int64(len(b)) || f.SieveGap != DefaultSieveGap {
		t.Errorf("Reopen kept stale size/sieve gap: %d, %d", f.size, f.SieveGap)
	}
	got, err = readView(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Error("reopened handle did not read the new object's whole view")
	}
	if err := f.Reopen(nil, st, "missing"); err == nil {
		t.Error("Reopen of a missing object succeeded")
	}
}

func TestReadContigIntoMatchesReadContig(t *testing.T) {
	st := pfs.NewMemStore()
	data := makeTestFile(t, st, "f", 2048)
	f, err := Open(nil, st, "f")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 300)
	if err := f.ReadContigInto(100, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[100:400], dst) {
		t.Error("ReadContigInto differs from the file contents")
	}
	if err := f.ReadContigInto(2000, dst); err == nil {
		t.Error("read beyond EOF accepted")
	}
	if err := f.ReadContigInto(-1, dst[:1]); err == nil {
		t.Error("negative offset accepted")
	}
}

// TestReopenedIndexedReadAllocFree extends the PR 2 steady-state gate to
// the PR 4 fetch pattern: every step reopens the handle onto that step's
// object, rebuilds the indexed view in place (same displacement buffer,
// boxed datatype reused via pointer) and packs the view into a reused
// destination — zero allocations once the buffers have grown.
func TestReopenedIndexedReadAllocFree(t *testing.T) {
	st := pfs.NewMemStore()
	names := []string{"s0", "s1", "s2"}
	for _, n := range names {
		makeTestFile(t, st, n, 128<<10)
	}
	f, err := Open(nil, st, names[0])
	if err != nil {
		t.Fatal(err)
	}
	displs := make([]int64, 200)
	ib := IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: 12}
	dst := make([]byte, 200*12)
	step := 0
	readStep := func() {
		for i := range displs {
			displs[i] = int64(i*37 + step%3)
		}
		if err := f.Reopen(nil, st, names[step%len(names)]); err != nil {
			t.Fatal(err)
		}
		f.SetView(0, &ib)
		n, err := f.ViewSize()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadInto(dst[:n]); err != nil {
			t.Fatal(err)
		}
		step++
	}
	for i := 0; i < len(names); i++ { // warm every object's size path
		readStep()
	}
	if avg := testing.AllocsPerRun(30, readStep); avg != 0 {
		t.Errorf("steady-state reopen+indexed read allocates %v per step, want 0", avg)
	}
}

func TestReadAllIntoMatchesReadAll(t *testing.T) {
	const ranks, elems = 4, 1024
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 12*elems)
	fresh := make([][]byte, ranks)
	into := make([][]byte, ranks)
	mpi.RunReal(ranks, func(c *mpi.Comm) {
		var displs []int64
		for e := c.Rank(); e < elems; e += ranks {
			displs = append(displs, int64(e))
		}
		f, err := Open(c, st, "f")
		if err != nil {
			t.Error(err)
			return
		}
		f.SetView(0, IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: 12})
		got, err := readAllView(f, 1)
		if err != nil {
			t.Error(err)
			return
		}
		fresh[c.Rank()] = got
		n, err := f.ViewSize()
		if err != nil {
			t.Error(err)
			return
		}
		dst := make([]byte, n)
		m, err := f.ReadAllInto(2, dst)
		if err != nil {
			t.Error(err)
			return
		}
		into[c.Rank()] = dst[:m]
		if _, err := f.ReadAllInto(3, dst[:1]); err == nil && n > 1 {
			t.Error("short ReadAllInto buffer accepted")
		}
	})
	for r := 0; r < ranks; r++ {
		if !bytes.Equal(fresh[r], into[r]) {
			t.Errorf("rank %d: ReadAllInto differs from ReadAll (%d vs %d bytes)", r, len(into[r]), len(fresh[r]))
		}
	}
}

package mpiio

// PR 2's regression harness for the packed read path: ReadInto must return
// exactly the view's file bytes, stay allocation-free at steady state, and
// keep the physical-read accounting of the per-displacement loop it
// replaced.

import (
	"bytes"
	"testing"

	"repro/internal/pfs"
)

func TestReadIntoMatchesRead(t *testing.T) {
	st := pfs.NewMemStore()
	data := makeTestFile(t, st, "f", 64<<10)
	f, err := Open(nil, st, "f")
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		name string
		disp int64
		dt   Datatype
	}{
		{"contig", 0, Contig{N: 1024, ElemSize: 4}},
		{"indexed-sparse", 8, IndexedBlock{Blocklen: 3, Displs: []int64{0, 100, 50, 4000, 101}, ElemSize: 8}},
		{"indexed-dense", 0, IndexedBlock{Blocklen: 1, Displs: []int64{0, 2, 4, 6, 8, 10}, ElemSize: 12}},
		{"empty", 0, Contig{N: 0, ElemSize: 4}},
	}
	for _, v := range views {
		f.SetView(v.disp, v.dt)
		n, err := f.ViewSize()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		dst := make([]byte, n)
		got, err := f.ReadInto(dst)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if got != len(dst) {
			t.Fatalf("%s: ViewSize %d, ReadInto returned %d bytes", v.name, n, got)
		}
		// The packed bytes match the raw file contents segment by segment.
		pos := 0
		for _, s := range v.dt.Segments() {
			s.Off += v.disp
			if !bytes.Equal(dst[pos:pos+int(s.Len)], data[s.Off:s.Off+s.Len]) {
				t.Fatalf("%s: segment at %d differs from file", v.name, s.Off)
			}
			pos += int(s.Len)
		}
		if pos != got {
			t.Fatalf("%s: view selects %d bytes, ReadInto returned %d", v.name, pos, got)
		}
	}
	// Undersized destination must error, not truncate.
	f.SetView(0, Contig{N: 16, ElemSize: 4})
	if _, err := f.ReadInto(make([]byte, 8)); err == nil {
		t.Error("short ReadInto buffer accepted")
	}
}

// TestReadIntoAllocFree is the PR 2 acceptance gate for the I/O layer: a
// steady-state indexed read with an unchanged view — the per-timestep fetch
// pattern — allocates nothing once the scratch has warmed up.
func TestReadIntoAllocFree(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 256<<10)
	f, err := Open(nil, st, "f")
	if err != nil {
		t.Fatal(err)
	}
	displs := make([]int64, 256)
	for i := range displs {
		displs[i] = int64(i * 41)
	}
	f.SetView(0, IndexedBlock{Blocklen: 2, Displs: displs, ElemSize: 12})
	n, err := f.ViewSize()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, n)
	if _, err := f.ReadInto(dst); err != nil { // warm the plan + scratch
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := f.ReadInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state ReadInto allocates %v per call, want 0", avg)
	}
}

// TestPackedReadKeepsSievingStats: packing the physical runs into one
// buffer must not change the I/O accounting — one physical read per sieve
// run, PhysBytes spanning the sieved holes, UsefulBytes only the view.
func TestPackedReadKeepsSievingStats(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 256<<10)
	f, err := Open(nil, st, "f")
	if err != nil {
		t.Fatal(err)
	}
	// Three clusters of reads: within a cluster the 32-byte holes sieve
	// through; across clusters the holes exceed the 64 KiB sieve gap.
	f.SetView(0, IndexedBlock{Blocklen: 4, Displs: []int64{0, 8, 16, 10000, 10008, 20000}, ElemSize: 8})
	if _, err := readView(f); err != nil {
		t.Fatal(err)
	}
	if f.PhysReads != 3 {
		t.Errorf("PhysReads = %d, want 3 (one per sieve run)", f.PhysReads)
	}
	// run 1: segments at 0/64/128 (3x32B) sieving through two 32B holes;
	// run 2: segments at 80000/80064 (2x32B) through one 32B hole;
	// run 3: the lone segment at 160000.
	wantPhys := int64((3*32 + 2*32) + (2*32 + 32) + 32)
	if f.PhysBytes != wantPhys {
		t.Errorf("PhysBytes = %d, want %d", f.PhysBytes, wantPhys)
	}
	if f.UsefulBytes != 6*4*8 {
		t.Errorf("UsefulBytes = %d, want %d", f.UsefulBytes, 6*4*8)
	}
}

// BenchmarkMPIIORead measures the independent indexed read of a sparse
// per-timestep node set (the adaptive-fetch pattern): `read` allocates the
// output per call, `readinto` is the steady-state packed path.
func BenchmarkMPIIORead(b *testing.B) {
	st := pfs.NewMemStore()
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i)
	}
	if err := st.Write("f", data); err != nil {
		b.Fatal(err)
	}
	f, err := Open(nil, st, "f")
	if err != nil {
		b.Fatal(err)
	}
	displs := make([]int64, 4096)
	for i := range displs {
		displs[i] = int64(i * 61)
	}
	f.SetView(0, IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: 12})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := readView(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("readinto", func(b *testing.B) {
		n, err := f.ViewSize()
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]byte, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.ReadInto(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

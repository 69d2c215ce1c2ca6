package mpiio

// PR 6's coverage of the Reopen error paths: a failed Reopen must leave the
// handle fully usable on its previous object — the guarantee the
// fault-tolerant collective fetch path leans on (a rank whose step-object
// open fails keeps serving the previous step, docs/faults.md) — and views
// that outlive a shrunk object must fail loudly, not read stale bytes.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

// failSizeStore wraps a store with a Size that errors while fail is set.
type failSizeStore struct {
	pfs.Store
	fail bool
}

func (s *failSizeStore) Size(name string) (int64, error) {
	if s.fail {
		return 0, fmt.Errorf("probe down: %w", pfs.ErrTransient)
	}
	return s.Store.Size(name)
}

func TestReopenMissingObjectKeepsHandle(t *testing.T) {
	st := pfs.NewMemStore()
	a := makeTestFile(t, st, "a", 1024)
	f, err := Open(nil, st, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Opened() || f.name != "a" {
		t.Fatalf("Opened/Name = %v/%q after Open", f.Opened(), f.name)
	}
	err = f.Reopen(nil, st, "missing")
	if !errors.Is(err, pfs.ErrPermanent) {
		t.Fatalf("Reopen missing = %v, want ErrPermanent classification", err)
	}
	// The handle must still serve the previous object in full.
	if !f.Opened() || f.name != "a" || f.size != 1024 {
		t.Fatalf("failed Reopen disturbed the handle: %q size %d", f.name, f.size)
	}
	got, err := readView(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Error("handle after failed Reopen read wrong bytes")
	}
}

func TestReopenFailedSizeProbeKeepsHandle(t *testing.T) {
	inner := pfs.NewMemStore()
	a := makeTestFile(t, inner, "a", 512)
	makeTestFile(t, inner, "b", 256)
	st := &failSizeStore{Store: inner}
	f, err := Open(nil, st, "a")
	if err != nil {
		t.Fatal(err)
	}
	st.fail = true
	err = f.Reopen(nil, st, "b")
	if !pfs.IsTransient(err) {
		t.Fatalf("Reopen with failing probe = %v, want transient classification", err)
	}
	if f.name != "a" || f.size != 512 {
		t.Fatalf("failed probe disturbed the handle: %q size %d", f.name, f.size)
	}
	got, err := readView(f)
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("handle after failed probe: %v", err)
	}
	// Probe recovery: the same Reopen succeeds once the store heals.
	st.fail = false
	if err := f.Reopen(nil, st, "b"); err != nil {
		t.Fatal(err)
	}
	if f.name != "b" || f.size != 256 {
		t.Errorf("healed Reopen: %q size %d", f.name, f.size)
	}
}

// TestReopenShrunkObject: an object that shrinks between steps (a
// checkpoint rewrite, a torn producer) must fail the view checks, and a
// Reopen onto it must adopt the new size rather than the cached one.
func TestReopenShrunkObject(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "a", 1024)
	f, err := Open(nil, st, "a")
	if err != nil {
		t.Fatal(err)
	}
	f.SetView(0, &IndexedBlock{Blocklen: 1, Displs: []int64{0, 63}, ElemSize: 16})
	buf := make([]byte, 32)
	if _, err := f.ReadInto(buf); err != nil {
		t.Fatal(err)
	}
	// Shrink the object under the handle, then Reopen: the stale view's
	// last segment [1008,1024) now reaches beyond EOF and must error.
	short := make([]byte, 100)
	if err := st.Write("a", short); err != nil {
		t.Fatal(err)
	}
	if err := f.Reopen(nil, st, "a"); err != nil {
		t.Fatal(err)
	}
	if f.size != 100 {
		t.Fatalf("Reopen kept stale size %d", f.size)
	}
	f.SetView(0, &IndexedBlock{Blocklen: 1, Displs: []int64{0, 63}, ElemSize: 16})
	if _, err := f.ReadInto(buf); err == nil {
		t.Error("view beyond the shrunk object's EOF read without error")
	}
	if _, err := f.ViewSize(); err == nil {
		t.Error("ViewSize beyond the shrunk object's EOF succeeded")
	}
	// A contiguous read past the new EOF must also fail.
	if err := f.ReadContigInto(96, make([]byte, 16)); err == nil {
		t.Error("contiguous read past shrunk EOF succeeded")
	}
	// And a view within the shrunk object still works.
	f.SetView(0, Contig{N: 100, ElemSize: 1})
	got := make([]byte, 100)
	if _, err := f.ReadInto(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, short) {
		t.Error("in-range view read wrong bytes after shrink")
	}
}

// TestReopenShrunkUnderSimTransport runs the shrunk-object probe under the
// simulated transport to keep the error path race- and transport-agnostic.
func TestReopenShrunkUnderSimTransport(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "a", 256)
	mpi.RunSim(1, mpi.SimConfig{OutBW: 1e9, InBW: 1e9, DiskClientBW: 1e9, DiskAggBW: 1e9}, func(c *mpi.Comm) {
		f, err := Open(c, st, "a")
		if err != nil {
			t.Error(err)
			return
		}
		if err := st.Write("a", make([]byte, 10)); err != nil {
			t.Error(err)
			return
		}
		if err := f.Reopen(c, st, "a"); err != nil {
			t.Error(err)
			return
		}
		if err := f.ReadContigInto(0, make([]byte, 32)); err == nil {
			t.Error("read past shrunk EOF succeeded under sim transport")
		}
	})
}

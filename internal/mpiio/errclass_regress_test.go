package mpiio

import (
	"errors"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
)

// Before the invariant lint suite (PR 9), mpiio's own validation errors —
// out-of-range reads, undersized caller buffers, invalid datatypes — were
// bare fmt.Errorf values. pfs.Classify treats unclassified errors as
// permanent, so behavior was right by accident: a new retry/degrade site
// calling errors.Is(err, pfs.ErrPermanent) would silently miss them. The
// errclass analyzer now forces every error in this package to wrap a
// sentinel; these tests pin the classification so it cannot regress.

func TestValidationErrorsClassifiedPermanent(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 64)
	mpi.RunReal(1, func(c *mpi.Comm) {
		f, _ := Open(c, st, "f")

		_, err := readContig(f, 60, 10)
		if !errors.Is(err, pfs.ErrPermanent) {
			t.Errorf("contiguous read beyond EOF: err = %v, want pfs.ErrPermanent", err)
		}
		if _, err := readContig(f, -1, 4); !errors.Is(err, pfs.ErrPermanent) {
			t.Errorf("contiguous read at a negative offset: err = %v, want pfs.ErrPermanent", err)
		}

		f.SetView(0, IndexedBlock{Blocklen: 1, Displs: []int64{100}, ElemSize: 8})
		if _, err := readView(f); !errors.Is(err, pfs.ErrPermanent) {
			t.Errorf("view beyond EOF: err = %v, want pfs.ErrPermanent", err)
		}

		g, _ := Open(c, st, "f")
		g.SetView(0, IndexedBlock{Blocklen: 1, Displs: []int64{0, 1}, ElemSize: 8})
		if _, err := g.ReadInto(make([]byte, 1)); !errors.Is(err, pfs.ErrPermanent) {
			t.Errorf("undersized ReadInto buffer: err = %v, want pfs.ErrPermanent", err)
		}
		if _, err := g.ReadAllInto(0, make([]byte, 1)); !errors.Is(err, pfs.ErrPermanent) {
			t.Errorf("undersized ReadAllInto buffer: err = %v, want pfs.ErrPermanent", err)
		}
	})
}

func TestInvalidSegmentClassifiedPermanent(t *testing.T) {
	st := pfs.NewMemStore()
	makeTestFile(t, st, "f", 64)
	mpi.RunReal(1, func(c *mpi.Comm) {
		f, _ := Open(c, st, "f")
		f.SetView(0, IndexedBlock{Blocklen: 1, Displs: []int64{-1}, ElemSize: 8})
		if _, err := readView(f); !errors.Is(err, pfs.ErrPermanent) {
			t.Errorf("invalid segment: err = %v, want pfs.ErrPermanent", err)
		}
	})
}

package core

import (
	"testing"

	"repro/internal/img"
)

// TestStepWindowMatchesFullRun pins the serving layer's cache-fill
// contract: a windowed run renders dataset steps [lo, hi) bit-identically
// to the same steps of a whole-dataset run — including temporal
// enhancement, whose logical step 0 must reach back to dataset step lo-1.
func TestStepWindowMatchesFullRun(t *testing.T) {
	store := buildDataset(t, 4)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	for _, enhance := range []bool{false, true} {
		opts := smallOpts(40, 40)
		opts.Enhancement = enhance
		full, err := NewRealWorkload(l, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(full.Close)
		runWorkloadOver(t, full, full, l, overReal, nil)

		win, err := NewRealWorkload(l, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(win.Close)
		if err := win.SetStepWindow(2, 4); err != nil {
			t.Fatal(err)
		}
		if win.Steps() != 2 {
			t.Fatalf("windowed steps = %d, want 2", win.Steps())
		}
		runWorkloadOver(t, win, win, l, overReal, nil)
		for logical := 0; logical < 2; logical++ {
			want := full.Frame(2 + logical)
			got := win.Frame(logical)
			if want == nil || got == nil {
				t.Fatalf("enhance=%v: missing frame (full=%v win=%v)", enhance, want != nil, got != nil)
			}
			if d := img.MaxAbsDiff(want, got); d != 0 {
				t.Errorf("enhance=%v: windowed step %d differs from full-run step %d (max diff %v)",
					enhance, logical, 2+logical, d)
			}
		}
	}
}

// TestStepWindowRejectsBadRanges pins the validation: the window must be a
// nonempty range inside the dataset.
func TestStepWindowRejectsBadRanges(t *testing.T) {
	store := buildDataset(t, 3)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}
	w, err := NewRealWorkload(l, smallOpts(24, 24), store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, tc := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, 4}, {4, 5}} {
		if err := w.SetStepWindow(tc[0], tc[1]); err == nil {
			t.Errorf("window [%d, %d) accepted", tc[0], tc[1])
		}
	}
	if err := w.SetStepWindow(1, 3); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
}

// TestStepWindowReleasesLeftoverFrames pins the re-aim side of the ring
// contract: frames a consumer never copied out or released go back to the
// ring when the window moves, so repeated re-aiming neither leaks canvases
// nor double-releases them.
func TestStepWindowReleasesLeftoverFrames(t *testing.T) {
	store := buildDataset(t, 4)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, err := NewRealWorkload(l, smallOpts(24, 24), store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, win := range [][2]int{{0, 2}, {1, 3}, {2, 4}} {
		if err := w.SetStepWindow(win[0], win[1]); err != nil {
			t.Fatal(err)
		}
		runWorkloadOver(t, w, w, l, overReal, nil) // frames deliberately left unconsumed
		if w.Frame(0) == nil {
			t.Fatalf("window %v produced no frame", win)
		}
	}
	// Moving the window once more must find and recycle both leftovers.
	if err := w.SetStepWindow(0, 1); err != nil {
		t.Fatal(err)
	}
	if w.Frame(0) != nil || w.Frame(1) != nil {
		t.Error("frames survived a window move")
	}
}

package core

import (
	"sync"
	"testing"

	"repro/internal/compositor"
	"repro/internal/img"
	"repro/internal/octree"
	"repro/internal/render"
)

// aimCase is one (size, camera, transfer function) a workload is aimed at.
type aimCase struct {
	w, h   int
	az, el float64
	tf     string
}

func (a aimCase) view() render.View { return render.OrbitView(a.w, a.h, a.az, a.el) }

// options returns base re-aimed at a, as a fresh workload would be built.
func (a aimCase) options(base Options) Options {
	base.Width, base.Height, base.View, base.TFName = a.w, a.h, a.view(), a.tf
	return base
}

// aimCases walks four cameras, two image sizes (growing, then shrinking
// back) and two transfer functions.
var aimCases = []aimCase{
	{40, 40, 30, 55, ""},
	{40, 40, 200, 20, ""},
	{56, 32, 120, 35, "hot"},
	{56, 32, 300, 70, "hot"},
	{40, 40, 75, 40, ""},
}

// TestSetViewMatchesFreshWorkload pins SetView's exactness: one workload
// re-aimed through every aimCase renders frames bit-identical to a
// workload freshly built for that case, in both enhancement modes and with
// one and three renderers (three makes the SLIC schedule view-dependent).
// Frames are consumed only partly, so each re-aim also recycles leftovers.
func TestSetViewMatchesFreshWorkload(t *testing.T) {
	store := buildDataset(t, 3)
	for _, renderers := range []int{1, 3} {
		for _, enhance := range []bool{false, true} {
			l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: renderers, Outputs: 1}
			base := smallOpts(24, 24)
			base.Enhancement = enhance
			w, err := NewRealWorkload(l, base, store)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			for i, a := range aimCases {
				w.SetView(a.w, a.h, a.view(), a.tf)
				runWorkloadOver(t, w, w, l, overReal, nil)
				fresh, _, _ := runPipelineOver(t, store, l, a.options(base), overReal, nil)
				for step := 0; step < w.Steps(); step++ {
					want, got := fresh.Frame(step), w.Frame(step)
					if want == nil || got == nil {
						t.Fatalf("renderers=%d enhance=%v case %d step %d: missing frame", renderers, enhance, i, step)
					}
					if d := img.MaxAbsDiff(want, got); d != 0 {
						t.Errorf("renderers=%d enhance=%v case %d step %d: re-aimed frame differs from a fresh workload's (max diff %v)",
							renderers, enhance, i, step, d)
					}
				}
				w.ReleaseFrame(0) // the rest stay behind for the next SetView
			}
		}
	}
}

// TestSetViewReleasesLeftoverFrames pins the re-aim side of the ring
// contract for SetView: the canvases of unconsumed frames that were read
// go back to the ring exactly once (a double release would trip
// FrameRing's panic), consumed ones are not released again, and no canvas
// leaks. A canvas exists only for a frame that was read, so each run reads
// every frame, and the count is the read frames' canvases plus the ring's
// free ones.
func TestSetViewReleasesLeftoverFrames(t *testing.T) {
	store := buildDataset(t, 3)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, err := NewRealWorkload(l, smallOpts(24, 24), store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	var canvases int
	for i, a := range aimCases[:3] {
		w.SetView(24, 24, a.view(), a.tf)
		runWorkloadOver(t, w, w, l, overReal, nil)
		for step := 0; step < 3; step++ {
			w.Frame(step)
		}
		if i == 0 {
			canvases = len(w.ring.free)
			for _, f := range w.frames {
				if f.img != nil {
					canvases++
				}
			}
		}
		w.ReleaseFrame(1)
	}
	w.SetView(24, 24, aimCases[3].view(), "")
	for step := 0; step < 3; step++ {
		if w.Frame(step) != nil {
			t.Errorf("frame %d survived a view move", step)
		}
	}
	if got := len(w.ring.free); got != canvases {
		t.Errorf("ring holds %d canvases after re-aiming, want all %d back", got, canvases)
	}
}

// TestSetViewAllocBudget pins what a steady-state re-aim costs: after the
// first use of an image size and transfer function, SetView allocates
// exactly what octree.VisibilityOrder and compositor.BuildSchedule
// allocate for that view (both build their result fresh) — the rect
// staging, visibility ranks, renderer table and every scratch are reused.
// On this fixture (64 blocks, 3 renderers) that is 22 allocations.
func TestSetViewAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	store := buildDataset(t, 1)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	w, err := NewRealWorkload(l, smallOpts(40, 40), store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	views := []render.View{aimCases[0].view(), aimCases[1].view()}
	i := 0
	next := func() render.View { i++; return views[i%2] }
	got := testing.AllocsPerRun(20, func() { w.SetView(40, 40, next(), "") })
	want := testing.AllocsPerRun(20, func() {
		v := next()
		octree.VisibilityOrder(w.ds.roots, v.ViewDir())
		compositor.BuildSchedule(w.rects, 40, 40, l.Renderers)
	})
	t.Logf("SetView: %v allocs/op (VisibilityOrder + BuildSchedule alone: %v)", got, want)
	if got != want {
		t.Errorf("steady-state SetView allocates %v/op, want the %v of VisibilityOrder + BuildSchedule", got, want)
	}
}

// TestDatasetSharedAcrossWorkloads pins the Dataset's immutability where
// it matters: four workloads on one Dataset render four different views at
// the same time (run it under -race), and each is bit-identical to a
// standalone workload that built its own dataset.
func TestDatasetSharedAcrossWorkloads(t *testing.T) {
	store := buildDataset(t, 2)
	l := Layout{Groups: 1, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	base := smallOpts(24, 24)
	base.Enhancement = true
	base.ReadStrategy = ReadCollective
	ds, err := NewDataset(l, base, store)
	if err != nil {
		t.Fatal(err)
	}
	cases := aimCases[:4]
	shared := make([]*RealWorkload, len(cases))
	for i, a := range cases {
		shared[i] = ds.NewWorkload(a.w, a.h, a.view(), a.tf)
		t.Cleanup(shared[i].Close)
	}
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, w := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A run on a neighbour's view first, so SetView overlaps the
			// other workloads' renders too.
			for _, a := range []aimCase{cases[(i+1)%len(cases)], cases[i]} {
				w.SetView(a.w, a.h, a.view(), a.tf)
				if _, _, errs[i] = runOver(w, l, overReal); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, a := range cases {
		if errs[i] != nil {
			t.Fatalf("workload %d: %v", i, errs[i])
		}
		alone, _, _ := runPipelineOver(t, store, l, a.options(base), overReal, nil)
		for step := 0; step < 2; step++ {
			if d := img.MaxAbsDiff(alone.Frame(step), shared[i].Frame(step)); d != 0 {
				t.Errorf("workload %d step %d: frame on the shared dataset differs from a standalone render (max diff %v)", i, step, d)
			}
		}
	}
}

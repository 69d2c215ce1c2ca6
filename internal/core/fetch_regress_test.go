package core

// PR 4's regression harness for the fetch-side decode chain, the frame
// ring and the pipeline bookkeeping: the steady-state input-rank Fetch
// step and the per-frame assemble must be allocation-free, the Into-based
// decode chain must match the retained allocating reference chain bit for
// bit, a corrupt step object must fail loudly, and the REPRO_PERF_ASSERT
// gate pins the decode-chain speedup.

import (
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/compositor"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// fetchWorkload builds a small dataset and a 1-input workload for fetch
// micro-tests.
func fetchWorkload(t *testing.T, steps int, mod func(*Options)) (*RealWorkload, Layout) {
	t.Helper()
	store := buildDataset(t, steps)
	opts := smallOpts(32, 32)
	if mod != nil {
		mod(&opts)
	}
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, l
}

// newFetchStore builds a store holding one synthetic step object of n
// float32 records (the decode-chain micro-benchmark input).
func newFetchStore(tb testing.TB, n int) pfs.Store {
	tb.Helper()
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%977) / 977
	}
	st := pfs.NewMemStore()
	if err := st.Write("step", quake.EncodeStep(vals)); err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestFetchStepAllocFree is the PR 4 acceptance gate for the fetch side:
// a steady-state input-rank Fetch step — open, read, decode, magnitude,
// (optional temporal enhancement,) quantize, scatter — allocates nothing
// once every buffer has warmed up. PR 5 extends it to the collective
// strategy, whose two-phase read now stages through the epoch-scoped
// CollectiveScratch; TestCollectiveFetchStepAllocFree below is the
// two-rank leg.
func TestFetchStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	const steps = 5
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"contiguous", nil},
		{"adaptive", func(o *Options) { o.AdaptiveFetch = true }},
		{"contiguous-enhanced", func(o *Options) { o.Enhancement = true }},
		{"collective", func(o *Options) { o.ReadStrategy = ReadCollective }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, l := fetchWorkload(t, steps, tc.mod)
			mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
				if c.Rank() != 0 {
					return
				}
				step := 0
				fetch := func() {
					t0 := 1 + step%(steps-1) // stay >0 so enhancement engages
					step++
					if _, err := w.Fetch(c, t0, 0, 1); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < steps; i++ { // warm every step object's path
					fetch()
				}
				if avg := testing.AllocsPerRun(30, fetch); avg != 0 {
					t.Errorf("steady-state %s Fetch step allocates %v, want 0", tc.name, avg)
				}
			})
		})
	}
}

// TestCollectiveFetchStepAllocFree is the same gate on batch_io's shape
// (collectiveFetchWorkload): two IPs fetching in lock step, each round a
// replayed two-phase plan over committed views plus the enhancement read
// of the previous object. Allocation counts are process-global, so a
// nonzero result implicates the steady state of either rank.
func TestCollectiveFetchStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	const steps, warm, rounds = 5, 8, 30
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"plain", nil},
		{"tolerant", func(o *Options) { o.Faults.Tolerate = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, l := collectiveFetchWorkload(t, steps, tc.mod)
			var avg float64
			mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
				part := c.Rank()
				if part >= l.IPsPerGroup {
					return
				}
				step := 0
				fetch := func() {
					t0 := 1 + step%(steps-1) // stay >0 so enhancement engages
					step++
					if _, err := w.Fetch(c, t0, part, l.IPsPerGroup); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < warm; i++ {
					fetch()
				}
				if part == 0 {
					avg = testing.AllocsPerRun(rounds, fetch)
				} else {
					for i := 0; i < rounds+1; i++ { // AllocsPerRun adds a warm-up call
						fetch()
					}
				}
			})
			if avg != 0 {
				t.Errorf("steady-state collective Fetch step allocates %v per round, want 0", avg)
			}
		})
	}
}

// TestAssembleFrameRingAllocFree gates the output stage: with a consumer
// releasing frames as it goes, the per-frame assemble — acquire from the
// ring, paste strips, store, release — allocates nothing at steady state.
func TestAssembleFrameRingAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	w, l := fetchWorkload(t, 2, nil)
	width, height := w.opts.Width, w.opts.Height
	// Two synthetic strips tiling the frame, as the compositors produce.
	half := height / 2
	imgs := []*img.Image{img.New(width, half), img.New(width, height-half)}
	for _, m := range imgs {
		for i := range m.Pix {
			m.Pix[i] = 0.25
		}
	}
	sps := []*stripPayload{
		{Strip: compositor.Strip{Y0: 0, H: half}},
		{Strip: compositor.Strip{Y0: half, H: height - half}},
	}
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if c.Rank() != l.WorldSize()-1 {
			return
		}
		strips := make([]mpi.Message, len(sps))
		assemble := func() {
			for i, sp := range sps {
				sp.Img = imgs[i] // release nils these; restore each round
				strips[i] = mpi.Message{Src: l.RenderRank(i), Data: sp}
			}
			if err := w.Assemble(c, 0, strips, nil); err != nil {
				t.Error(err)
			}
			w.ReleaseFrame(0)
		}
		assemble()
		if avg := testing.AllocsPerRun(30, assemble); avg != 0 {
			t.Errorf("steady-state assemble allocates %v, want 0", avg)
		}
	})
}

// TestLICPayloadAllocFree gates the underlay's round trip on RunReal: the input
// rank builds a step's underlay into a pooled payload, the output rank
// composites it under the frame and releases it, and the next step's
// licStep gets the same payload back — so once the pool, the quadtree and
// the image buffers are warm, the LIC step and its Assemble allocate nothing.
// (Before PR 24 licStep never stamped the payload's owner: release was a
// no-op and every step allocated a fresh LICSize²·16-byte image.)
func TestLICPayloadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	const steps = 3
	w, l := fetchWorkload(t, steps, func(o *Options) { o.LIC, o.LICSize, o.Workers = true, 32, 1 })
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		step := 0
		var first *licPayload
		round := func() {
			_, data, err := w.LICPayload(c, step%steps, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if first == nil {
				first = data.(*licPayload)
			} else if data != first {
				t.Error("licStep did not get its released payload back")
			}
			if err := w.Assemble(c, 0, nil, &mpi.Message{Data: data}); err != nil {
				t.Error(err)
			}
			w.ReleaseFrame(0)
			step++
		}
		for i := 0; i < steps; i++ {
			round()
		}
		if avg := testing.AllocsPerRun(30, round); avg != 0 {
			t.Errorf("steady-state LIC step + assemble allocates %v, want 0", avg)
		}
	})
}

// TestFrameRingSemantics pins the ring contract: released canvases are
// reused, acquired canvases come back cleared, and undersized canvases are
// not handed out for larger requests.
func TestFrameRingSemantics(t *testing.T) {
	r := NewFrameRing(1, 8, 8)
	a := r.Acquire(8, 8)
	b := r.Acquire(8, 8) // ring empty: grows
	if a == b {
		t.Fatal("ring handed the same canvas out twice")
	}
	a.Pix[0] = 0.5
	r.Release(a)
	c := r.Acquire(8, 8)
	if c != a {
		t.Error("released canvas was not reused")
	}
	if c.Pix[0] != 0 {
		t.Error("reacquired canvas not cleared")
	}
	r.Release(c)
	big := r.Acquire(16, 16) // larger than the pooled canvas
	if big == c || len(big.Pix) != 4*16*16 {
		t.Error("undersized canvas reused for a larger frame")
	}
	r.Release(nil) // no-op
}

// TestFrameReleaseAndCopyOut exercises the consumer side of the ring
// against a real pipeline run: a borrowed frame stays put until released,
// and a released step is gone.
func TestFrameReleaseAndCopyOut(t *testing.T) {
	store := buildDataset(t, 2)
	opts := smallOpts(32, 32)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, _ := runReal(t, store, l, opts)
	ref := w.Frame(1)
	if ref == nil || w.Frame(1) != ref {
		t.Fatal("borrowing frame 1 twice gave two images")
	}
	w.ReleaseFrame(1)
	if w.Frame(1) != nil {
		t.Error("frame still present after release")
	}
	w.ReleaseFrame(1) // already released: must be a no-op
	w.ReleaseFrame(7) // never existed: must be a no-op
	if w.Frame(0) == nil {
		t.Error("releasing frame 1 took frame 0 with it")
	}
}

// TestFetchChainMatchesLegacy pins the Into-based magQuant chain to the
// retained allocating reference chain, bit for bit, with and without
// temporal enhancement.
func TestFetchChainMatchesLegacy(t *testing.T) {
	const steps = 3
	w, _ := fetchWorkload(t, steps, func(o *Options) { o.Enhancement = true; o.EnhanceGain = 3 })
	scr := w.ipScr[0]
	n := w.ds.meta.NumNodes
	raw := make([]byte, n*quake.BytesPerNode)
	praw := make([]byte, n*quake.BytesPerNode)
	for step := 1; step < steps; step++ {
		if err := w.store.ReadAt(nil, w.stepName(step), 0, raw); err != nil {
			t.Fatal(err)
		}
		if err := w.store.ReadAt(nil, w.stepName(step-1), 0, praw); err != nil {
			t.Fatal(err)
		}
		// Legacy chain, exactly as the pre-PR-4 magQuant computed it.
		mag := stepMagnitude(t, raw)
		pmag := stepMagnitude(t, praw)
		want := render.QuantizeInto(nil, render.EnhanceTemporalInto(nil, mag, pmag, w.opts.EnhanceGain), 0, w.ds.vmax)
		if err := w.magQuant(nil, step, mpiio.Contig{N: n, ElemSize: quake.BytesPerNode}, raw, scr); err != nil {
			t.Fatal(err)
		}
		got := scr.q
		if len(got) != len(want) {
			t.Fatalf("step %d: %d quantized values, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d node %d: Into chain %d, legacy chain %d", step, i, got[i], want[i])
			}
		}
	}
}

// TestFetchSurfacesCorruptStep: a corrupt or truncated step object must
// surface as an error from the decode path (magQuant) and from Fetch, not
// render a wrong frame.
func TestFetchSurfacesCorruptStep(t *testing.T) {
	w, l := fetchWorkload(t, 2, nil)
	scr := w.ipScr[0]
	raw := make([]byte, w.ds.meta.NumNodes*quake.BytesPerNode)
	if err := w.store.ReadAt(nil, w.stepName(1), 0, raw); err != nil {
		t.Fatal(err)
	}
	whole := mpiio.Contig{N: w.ds.meta.NumNodes, ElemSize: quake.BytesPerNode}
	if err := w.magQuant(nil, 1, whole, raw[:len(raw)-2], scr); err == nil {
		t.Error("magQuant decoded a truncated record without error")
	}
	// Truncate the stored object itself: the whole fetch must fail loudly.
	if err := w.store.Write(w.stepName(1), raw[:len(raw)-5]); err != nil {
		t.Fatal(err)
	}
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		if _, err := w.Fetch(c, 1, 0, 1); err == nil {
			t.Error("Fetch of a truncated step object succeeded")
		}
	})
}

// TestInterframeNegativeSkip is the regression test for the Interframe
// panic: a negative skip used to slice times[skip:] after the length guard
// passed, panicking for any run with at least two frames.
func TestInterframeNegativeSkip(t *testing.T) {
	r := &Result{FrameDone: []float64{1, 2, 3, 4}, Frames: 4}
	got := r.Interframe(-1) // used to panic
	if want := r.Interframe(0); got != want {
		t.Errorf("Interframe(-1) = %v, want the unskipped %v", got, want)
	}
	if (&Result{FrameDone: []float64{1, 2}}).Interframe(-3) != 1 {
		t.Error("negative skip with two frames mishandled")
	}
}

// TestDecodeChainSpeedupGate pins the decode-chain rewrite's win: the
// steady-state Into chain (reused read buffer and decode/magnitude/
// quantize targets) against the retained allocating chain on the same
// bytes. Wall-clock gates are noisy on shared machines, so it only runs
// under REPRO_PERF_ASSERT=1 (set by `make ci`) and takes the min of
// interleaved windows to shed scheduler and GC bursts. Nominal ~1.2x on
// the CI container (the chain is memory-bound, so shedding the four
// per-step allocations plus their zeroing buys a steady fifth of the
// time); the floor only demands 1.08x, enough to catch a regression to
// the allocating chain.
func TestDecodeChainSpeedupGate(t *testing.T) {
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		t.Skip("set REPRO_PERF_ASSERT=1 to enforce the decode-chain speedup gate")
	}
	st := newFetchStore(t, 1<<20)
	f, err := mpiio.Open(nil, st, "step")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := st.Size("step")
	var vec, mag []float32
	var q []uint8
	raw := make([]byte, size)
	runSteady := func() {
		if err := f.ReadContigInto(0, raw); err != nil {
			t.Fatal(err)
		}
		var err error
		if vec, err = quake.DecodeStepInto(vec, raw); err != nil {
			t.Fatal(err)
		}
		mag = render.MagnitudeInto(mag, vec)
		q = render.QuantizeInto(q, mag, 0, 10)
	}
	runLegacy := func() {
		buf := make([]byte, size)
		if err := f.ReadContigInto(0, buf); err != nil {
			t.Fatal(err)
		}
		render.QuantizeInto(nil, stepMagnitude(t, buf), 0, 10)
	}
	window := func(fn func()) float64 {
		const reps = 4
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return time.Since(start).Seconds() / reps
	}
	runSteady()
	runLegacy() // warm up
	steady, legacy := math.Inf(1), math.Inf(1)
	for trial := 0; trial < 6; trial++ {
		steady = math.Min(steady, window(runSteady))
		legacy = math.Min(legacy, window(runLegacy))
	}
	t.Logf("decode chain: steady %.3gs, legacy %.3gs (%.2fx)", steady, legacy, legacy/steady)
	if legacy < 1.08*steady {
		t.Errorf("decode-chain speedup regressed: steady %.3gs vs legacy %.3gs (%.2fx, want >= 1.08x)",
			steady, legacy, legacy/steady)
	}
}

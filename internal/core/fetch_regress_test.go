package core

// PR 4's regression harness for the fetch-side decode chain, the frame
// ring and the pipeline bookkeeping: the steady-state input-rank Fetch
// step and the per-frame assemble must be allocation-free, a corrupt step
// object must fail loudly, and the REPRO_PERF_ASSERT gate pins the
// decode-chain speedup.

import (
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/compositor"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/quake"
)

// fetchShape is a layout and the options, on top of smallOpts(32, 32), a
// fetch micro-test runs.
type fetchShape struct {
	l   Layout
	mod func(*Options)
}

var (
	// oneInput is one input rank serving two renderers.
	oneInput = fetchShape{Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, nil}
	// batchIO is quakebench's batch_io shape at test scale: the two IPs of
	// one group reading collectively through their committed views,
	// adaptive fetch, temporal enhancement on (so every step also reads the
	// previous object independently through the same view).
	batchIO = fetchShape{Layout{Groups: 1, IPsPerGroup: 2, Renderers: 2, Outputs: 1}, func(o *Options) {
		o.ReadStrategy, o.AdaptiveFetch, o.Enhancement = ReadCollective, true, true
	}}
	// handoffIO is batchIO on two groups at gain 3: every step but the
	// first takes its previous step's magnitudes from the other group's rank.
	handoffIO = fetchShape{Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}, func(o *Options) {
		batchIO.mod(o)
		o.EnhanceGain = 3
	}}
)

// fetchWorkload builds a workload of the given shape, then mod, on a demo
// dataset of the given steps.
func fetchWorkload(tb testing.TB, sh fetchShape, steps int, mod func(*Options)) (*RealWorkload, Layout) {
	tb.Helper()
	opts := smallOpts(32, 32)
	for _, m := range []func(*Options){sh.mod, mod} {
		if m != nil {
			m(&opts)
		}
	}
	w, err := NewRealWorkload(sh.l, opts, buildDataset(tb, steps))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	return w, sh.l
}

// TestFetchStepAllocFree is the PR 4 acceptance gate for the fetch side:
// a steady-state input-rank Fetch step — open, read, decode, magnitude,
// (optional temporal enhancement,) quantize, scatter — allocates nothing
// once every buffer has warmed up. PR 5 extends it to the collective
// strategy, whose two-phase read now stages through the epoch-scoped
// CollectiveScratch; TestCollectiveFetchStepAllocFree below is the
// two-rank leg. Its layout has one group, so the enhanced case gates the
// read of the previous object that every step makes there (and that a
// window's first step makes on any layout); TestHandoffSteadyStateAllocFree
// gates the hand-off between groups that replaces it.
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
			w, l := fetchWorkload(t, oneInput, steps, tc.mod)
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

// TestCollectiveFetchStepAllocFree is the same gate on one group of
// batch_io's shape (batchIO): two IPs fetching in lock
// step, each round a replayed two-phase plan over committed views plus the
// enhancement read of the previous object, which one group makes every
// step. Allocation counts are process-global, so a nonzero result
// implicates the steady state of either rank.
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
			w, l := fetchWorkload(t, batchIO, steps, tc.mod)
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
	w, l := fetchWorkload(t, oneInput, 2, nil)
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
	setGOMAXPROCS(t, 1) // the LIC convolution inline, without a pool
	w, l := fetchWorkload(t, oneInput, steps, func(o *Options) { o.LIC, o.LICSize = true, 32 })
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
	w, _, _ := runPipelineOver(t, store, l, opts, overReal, nil)
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

// TestFetchSurfacesCorruptStep: a corrupt or truncated step object must
// surface as an error from the decode path (magQuant) and from Fetch, not
// render a wrong frame.
func TestFetchSurfacesCorruptStep(t *testing.T) {
	w, l := fetchWorkload(t, oneInput, 2, nil)
	scr := w.ipScr[0]
	raw := make([]byte, w.ds.meta.NumNodes*quake.BytesPerNode)
	if err := w.store.ReadAt(nil, w.stepName(1), 0, raw); err != nil {
		t.Fatal(err)
	}
	whole := mpiio.Contig{N: w.ds.meta.NumNodes, ElemSize: quake.BytesPerNode}
	if err := w.magQuant(nil, 1, contigStep(whole, raw[:len(raw)-2]), raw[:len(raw)-2], scr, &handoff{}); err == nil {
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

// TestDecodeChainSpeedupGate pins the fused decode kernels' win: one
// steady-state step as magQuant decodes it — plain, bytes to q in one pass;
// enhanced, as a step that reads its previous record itself: both records
// to magnitudes, then the two folded into q (a step whose previous
// magnitudes were handed to it skips the second record) — against the
// frozen four-pass chain
// (frozen_decode_test.go) on the same bytes, every buffer reused on both
// sides. Wall-clock gates are noisy on shared machines, so it only runs
// under REPRO_PERF_ASSERT=1 (set by `make ci`) and takes the min of
// interleaved windows to shed scheduler and GC bursts. Nominal ~1.5x plain
// and ~1.6x enhanced on a 2-vCPU Xeon container (the kernels no longer
// write and re-read a 12-byte vector per node per record); the floor
// demands 1.2x, enough to catch a return to separate passes.
func TestDecodeChainSpeedupGate(t *testing.T) {
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		t.Skip("set REPRO_PERF_ASSERT=1 to enforce the decode-chain speedup gate")
	}
	const n, gain, vmax = 1 << 18, 3, 2
	vals, pvals := make([]float32, 3*n), make([]float32, 3*n)
	for i := range vals {
		vals[i], pvals[i] = float32(i%977)/977, float32(i%751)/751
	}
	raw, praw := quake.EncodeStep(vals), quake.EncodeStep(pvals)
	for _, enhance := range []bool{false, true} {
		var vec, mag, pvec, pmag []float32
		var q []uint8
		runFrozen := func() {
			var err error
			if vec, err = frozenDecodeStepInto(vec, raw); err != nil {
				t.Fatal(err)
			}
			mag = frozenMagnitudeInto(mag, vec)
			if enhance {
				if pvec, err = frozenDecodeStepInto(pvec, praw); err != nil {
					t.Fatal(err)
				}
				pmag = frozenMagnitudeInto(pmag, pvec)
				mag = frozenEnhanceTemporalInto(mag, mag, pmag, gain)
			}
			q = frozenQuantizeInto(q, mag, 0, vmax)
		}
		fmag, fpmag, fq := make([]float32, n), make([]float32, n), make([]uint8, n)
		runFused := func() {
			if !enhance {
				if err := recordQuantize(fq, raw, vmax); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := recordMagnitudes(fmag, raw); err != nil {
				t.Fatal(err)
			}
			if err := recordMagnitudes(fpmag, praw); err != nil {
				t.Fatal(err)
			}
			magnitudeQuantize(fq, fmag, fpmag, gain, vmax)
		}
		window := func(fn func()) float64 {
			const reps = 4
			start := time.Now()
			for i := 0; i < reps; i++ {
				fn()
			}
			return time.Since(start).Seconds() / reps
		}
		runFused()
		runFrozen() // warm up
		fused, frozen := math.Inf(1), math.Inf(1)
		for trial := 0; trial < 6; trial++ {
			fused = math.Min(fused, window(runFused))
			frozen = math.Min(frozen, window(runFrozen))
		}
		t.Logf("decode chain (enhanced %v): fused %.3gs, frozen %.3gs (%.2fx)", enhance, fused, frozen, frozen/fused)
		if frozen < 1.2*fused {
			t.Errorf("decode-chain speedup regressed (enhanced %v): fused %.3gs vs frozen %.3gs (%.2fx, want >= 1.2x)",
				enhance, fused, frozen, frozen/fused)
		}
	}
}

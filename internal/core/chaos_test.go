package core

// PR 6's chaos suite (docs/faults.md): seeded fault schedules driven
// through the end-to-end pipeline. The contract under test, in order of
// increasing damage:
//
//   - zero faults, tolerance on  -> the golden checksum is bit-identical
//     and every fault counter is zero (the resilient path costs nothing);
//   - transient / short-read / corrupt faults within the retry budget ->
//     frames bit-identical to a clean run, retry counters pinned;
//   - permanent faults -> the run still completes, the affected frame is
//     served from the previous step's data (stale fallback) and flagged,
//     with exact FaultEvents/StaleSteps/DegradedFrames accounting;
//   - collective mode -> transients heal below MPI-IO (pfs.RetryStore),
//     invisible to core; a permanently unopenable step degrades to the
//     stale file handle without desynchronizing the collective;
//   - a compressed strip whose stream does not fit its strip -> the output
//     rank pastes nothing of it and flags the frame, or without tolerance
//     returns the error.
//
// Every schedule is a pure function of (seed, object, offset), so each
// case is reproducible and its counters are exact, not bounds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
)

// stepObjectsOnly spares the mesh/meta objects so construction and the
// serial reference paths stay clean; chaos targets the per-step fetches.
func stepObjectsOnly(name string) bool { return strings.HasPrefix(name, "step_") }

// onlyObject matches exactly one object name.
func onlyObject(want string) func(string) bool {
	return func(name string) bool { return name == want }
}

// chaosRun builds the workload on the clean store, then swaps the fetch
// path onto wrap(store) before running the pipeline — construction (mesh,
// meta, vmax scan) reads clean, every per-step read goes through the
// injector. A nil wrap runs clean.
func chaosRun(t *testing.T, store pfs.Store, l Layout, opts Options, wrap func(pfs.Store) pfs.Store) (*RealWorkload, *Result) {
	t.Helper()
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if wrap != nil {
		w.store = wrap(store)
	}
	p, err := NewPipeline(l, w)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var runErr error
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if err := p.Run(c); err != nil {
			mu.Lock()
			if runErr == nil {
				runErr = err
			}
			mu.Unlock()
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return w, p.Res
}

// requireFramesEqual demands bit-identical frames for steps [0, n).
func requireFramesEqual(t *testing.T, ref, got *RealWorkload, n int) {
	t.Helper()
	for step := 0; step < n; step++ {
		a, b := ref.Frame(step), got.Frame(step)
		if a == nil || b == nil {
			t.Fatalf("missing frame %d (ref %v, got %v)", step, a != nil, b != nil)
		}
		if d := img.MaxAbsDiff(a, b); d != 0 {
			t.Errorf("step %d: chaos frame differs from reference (max abs %g)", step, d)
		}
	}
}

// tolerant returns the golden small options with the fault policy enabled
// and a budget generous enough that every healable schedule heals.
func tolerant(w, h int) Options {
	o := smallOpts(w, h)
	o.Faults = FaultPolicy{Tolerate: true, StepRetries: 64}
	return o
}

// TestChaosZeroFaultGolden: with the injector installed but scheduling
// nothing, the tolerant pipeline must reproduce the golden checksum bit
// for bit and report zero fault activity — resilience is free when nothing
// fails.
func TestChaosZeroFaultGolden(t *testing.T) {
	store := buildDataset(t, 3)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	var inj *faultinject.Store
	w, res := chaosRun(t, store, l, tolerant(48, 48), func(st pfs.Store) pfs.Store {
		inj = faultinject.Wrap(st, faultinject.Config{Seed: 1})
		return inj
	})
	if res.Frames != 3 {
		t.Fatalf("frames = %d, want 3", res.Frames)
	}
	if inj.Stats().Reads == 0 {
		t.Fatal("injector saw no reads: the chaos harness is not in the fetch path")
	}
	if res.FaultEvents != 0 || res.Retries != 0 || res.StaleSteps != 0 || res.DegradedFrames != 0 {
		t.Errorf("zero-fault run accounted faults: events=%d retries=%d stale=%d degraded=%d",
			res.FaultEvents, res.Retries, res.StaleSteps, res.DegradedFrames)
	}
	for step := 0; step < 3; step++ {
		if w.FrameDegraded(step) {
			t.Errorf("frame %d flagged degraded in a zero-fault run", step)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden checksum recorded on amd64, running on %s", runtime.GOARCH)
	}
	h := fnv.New64a()
	for step := 0; step < 3; step++ {
		h.Write(quantizeFrame(w.Frame(step)))
	}
	if got := h.Sum64(); got != goldenFrameSum {
		t.Errorf("tolerant zero-fault checksum = %#x, want golden %#x", got, goldenFrameSum)
	}
}

// TestChaosHealableFaultsBitIdentical drives each healable fault class
// (and a mix of all of them) through the independent-read pipeline: the
// run must converge to frames bit-identical to a clean run, with no
// degraded frames and retry counters that match the injected fault count
// exactly — every injected fault surfaces as exactly one step-level fault
// event, and every episode ends in a successful re-read.
func TestChaosHealableFaultsBitIdentical(t *testing.T) {
	const steps = 3
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	ref, _ := chaosRun(t, store, l, tolerant(48, 48), nil)
	for _, tc := range []struct {
		name string
		cfg  faultinject.Config
		// faulted extracts the injected-fault count the run's FaultEvents
		// must match (exactly for classes that abort the read; a lower
		// bound only for corruption, where one decode failure can cover
		// several corrupted sites read in the same pass).
		faulted func(faultinject.Stats) int64
		exact   bool
	}{
		{"transient", faultinject.Config{Seed: 11, PTransient: 0.5, Match: stepObjectsOnly},
			func(s faultinject.Stats) int64 { return s.Transients }, true},
		{"shortread", faultinject.Config{Seed: 12, PShortRead: 0.5, Match: stepObjectsOnly},
			func(s faultinject.Stats) int64 { return s.ShortReads }, true},
		{"corrupt", faultinject.Config{Seed: 13, PCorrupt: 0.5, Match: stepObjectsOnly},
			func(s faultinject.Stats) int64 { return s.Corrupts }, false},
		{"mixed", faultinject.Config{Seed: 14, PTransient: 0.2, PShortRead: 0.2, PCorrupt: 0.2,
			PLatency: 0.2, Latency: 200 * time.Microsecond, Match: stepObjectsOnly},
			nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*RealWorkload, *Result, faultinject.Stats) {
				var inj *faultinject.Store
				w, res := chaosRun(t, store, l, tolerant(48, 48), func(st pfs.Store) pfs.Store {
					inj = faultinject.Wrap(st, tc.cfg)
					return inj
				})
				return w, res, inj.Stats()
			}
			w, res, stats := run()
			if res.Frames != steps {
				t.Fatalf("frames = %d, want %d", res.Frames, steps)
			}
			requireFramesEqual(t, ref, w, steps)
			injected := stats.Transients + stats.ShortReads + stats.Corrupts
			if injected == 0 {
				t.Fatalf("schedule %+v injected nothing; pick a hotter seed", tc.cfg)
			}
			t.Logf("injected: %+v; accounted: events=%d retries=%d", stats, res.FaultEvents, res.Retries)
			// Every recovery episode ends in success, so the failed attempts
			// and the re-reads that healed them balance exactly.
			if res.FaultEvents != res.Retries {
				t.Errorf("FaultEvents=%d != Retries=%d: some episode did not end in a heal",
					res.FaultEvents, res.Retries)
			}
			if res.StaleSteps != 0 || res.DegradedFrames != 0 {
				t.Errorf("healable schedule degraded: stale=%d degraded=%d", res.StaleSteps, res.DegradedFrames)
			}
			if tc.faulted != nil {
				if n := tc.faulted(stats); tc.exact && int64(res.FaultEvents) != n {
					t.Errorf("FaultEvents=%d, want exactly the %d injected faults", res.FaultEvents, n)
				} else if !tc.exact && int64(res.FaultEvents) > n {
					t.Errorf("FaultEvents=%d exceeds the %d injected faults", res.FaultEvents, n)
				}
			}
			// Reproducibility: an identical seed replays identical faults
			// and identical accounting, regardless of rank scheduling.
			w2, res2, stats2 := run()
			requireFramesEqual(t, w, w2, steps)
			if stats2 != stats {
				t.Errorf("injector stats not reproducible: %+v vs %+v", stats2, stats)
			}
			if res2.FaultEvents != res.FaultEvents || res2.Retries != res.Retries {
				t.Errorf("accounting not reproducible: events %d/%d retries %d/%d",
					res2.FaultEvents, res.FaultEvents, res2.Retries, res.Retries)
			}
		})
	}
}

// TestChaosTransientCountsPinned pins the transient case's exact counters
// on the reference platform — the chaos analogue of the golden checksum.
// The schedule, the layout's read sites and the retry policy are all
// deterministic, so these are equalities, not bounds; an intentional
// change to any of the three updates the constants.
func TestChaosTransientCountsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("site counts recorded on amd64, running on %s", runtime.GOARCH)
	}
	const steps = 3
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	var inj *faultinject.Store
	_, res := chaosRun(t, store, l, tolerant(48, 48), func(st pfs.Store) pfs.Store {
		inj = faultinject.Wrap(st, faultinject.Config{Seed: 11, PTransient: 0.5, Match: stepObjectsOnly})
		return inj
	})
	const wantFaults = 3 // pinned: seed 11's schedule over this layout's read+probe sites
	if res.FaultEvents != wantFaults || res.Retries != wantFaults {
		t.Errorf("events=%d retries=%d, want %d each (seed 11, PTransient=0.5)",
			res.FaultEvents, res.Retries, wantFaults)
	}
	if got := inj.Stats().Transients; got != wantFaults {
		t.Errorf("injected transients = %d, want %d", got, wantFaults)
	}
}

// TestChaosPermanentFaultDegrades: step 3's object becomes permanently
// unreadable. The run must complete anyway, serving step 3 from the owning
// rank's previous data (step 1: groups alternate steps) and flagging
// exactly that frame, with exact accounting — one fault event, zero
// retries (permanent is not retryable), one stale step, one degraded
// frame.
func TestChaosPermanentFaultDegrades(t *testing.T) {
	const steps = 4
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	ref, _ := chaosRun(t, store, l, tolerant(48, 48), nil)
	w, res := chaosRun(t, store, l, tolerant(48, 48), func(st pfs.Store) pfs.Store {
		return faultinject.Wrap(st, faultinject.Config{
			Seed: 3, PPermanent: 1, Match: onlyObject(quake.StepObject(3)),
		})
	})
	if res.Frames != steps {
		t.Fatalf("frames = %d, want %d", res.Frames, steps)
	}
	if res.FaultEvents != 1 || res.Retries != 0 || res.StaleSteps != 1 || res.DegradedFrames != 1 {
		t.Errorf("accounting = events:%d retries:%d stale:%d degraded:%d, want 1/0/1/1",
			res.FaultEvents, res.Retries, res.StaleSteps, res.DegradedFrames)
	}
	for step := 0; step < steps; step++ {
		if got, want := w.FrameDegraded(step), step == 3; got != want {
			t.Errorf("FrameDegraded(%d) = %v, want %v", step, got, want)
		}
	}
	// Steps 0-2 are untouched by the schedule and must match the clean run.
	requireFramesEqual(t, ref, w, 3)
	// The degraded frame is the stale fallback: rank 1's previous step was
	// step 1, so frame 3 must be bit-identical to the clean frame 1.
	if d := img.MaxAbsDiff(ref.Frame(1), w.Frame(3)); d != 0 {
		t.Errorf("degraded frame 3 differs from stale source frame 1 (max abs %g)", d)
	}
}

// surfaceFlip corrupts every read of one step object that is shorter than
// the whole record — the LIC rank's sieved surface read, not the volume
// fetch — by setting the first word's exponent bits, the non-finite
// pattern quake.DecodeStepInto rejects. Unlike the seeded injector it
// never heals, and it leaves the volume fetch of the same object alone.
type surfaceFlip struct {
	pfs.Store
	name string
	full int
}

func (s surfaceFlip) ReadAt(c *mpi.Comm, name string, off int64, buf []byte) error {
	err := s.Store.ReadAt(c, name, off, buf)
	if err == nil && name == s.name && len(buf) >= 4 && len(buf) < s.full {
		buf[2] |= 0x80
		buf[3] |= 0x7f
	}
	return err
}

// TestChaosCorruptSurfaceRecordDropsUnderlay pins the guarded path in front
// of lic.ComputeWith's finite-field precondition: a surface record with a
// flipped bit never reaches the convolution (a NaN vector would panic it).
// quake.DecodeStepInto rejects the record as pfs.ErrCorrupt, LICPayload
// spends its budget re-reading, then drops the underlay and marks the
// frame — the rank stays alive and every other frame is untouched.
func TestChaosCorruptSurfaceRecordDropsUnderlay(t *testing.T) {
	const steps, bad = 3, 1
	store := buildDataset(t, steps)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	opts := tolerant(48, 48)
	opts.LIC, opts.LICSize = true, 32
	opts.Faults.StepRetries = 2
	ref, _ := chaosRun(t, store, l, opts, nil)
	plain := opts
	plain.LIC = false
	bare, _ := chaosRun(t, store, l, plain, nil)

	full, err := store.Size(quake.StepObject(bad))
	if err != nil {
		t.Fatal(err)
	}
	w, res := chaosRun(t, store, l, opts, func(st pfs.Store) pfs.Store {
		return surfaceFlip{st, quake.StepObject(bad), int(full)}
	})
	if res.Frames != steps {
		t.Fatalf("frames = %d, want %d: the LIC rank did not survive", res.Frames, steps)
	}
	// One failed build plus two failed re-reads; no share went stale.
	if res.FaultEvents != 3 || res.Retries != 2 || res.StaleSteps != 0 || res.DegradedFrames != 1 {
		t.Errorf("accounting = events:%d retries:%d stale:%d degraded:%d, want 3/2/0/1",
			res.FaultEvents, res.Retries, res.StaleSteps, res.DegradedFrames)
	}
	for step := 0; step < steps; step++ {
		if got, want := w.FrameDegraded(step), step == bad; got != want {
			t.Errorf("FrameDegraded(%d) = %v, want %v", step, got, want)
		}
		clean := ref
		if step == bad {
			clean = bare // the volume rendering alone: the underlay was dropped
		}
		if d := img.MaxAbsDiff(clean.Frame(step), w.Frame(step)); d != 0 {
			t.Errorf("step %d differs from its clean frame (max abs %g)", step, d)
		}
	}
	// The error the fault policy degraded over is the decoder's.
	raw := make([]byte, full)
	if err := (surfaceFlip{store, quake.StepObject(bad), int(full) + 1}).ReadAt(nil, quake.StepObject(bad), 0, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := quake.DecodeStepInto(nil, raw); !errors.Is(err, pfs.ErrCorrupt) {
		t.Errorf("DecodeStepInto(flipped record) = %v, want pfs.ErrCorrupt", err)
	}
}

// stripCorruptor wraps a RealWorkload and damages one compressed strip on
// its way out of the renderer: the stream's first record claims a run of
// 2^30 pixels, more than any strip holds. The length is untouched, so the
// message is well-formed for every transport and codec and the damage is
// the output rank's to find.
type stripCorruptor struct {
	*RealWorkload
	step, renderer int
}

func (s *stripCorruptor) Composite(c *mpi.Comm, t, r int, group []int, rnd any) (int64, any, error) {
	n, v, err := s.RealWorkload.Composite(c, t, r, group, rnd)
	if err == nil && t == s.step && r == s.renderer {
		binary.LittleEndian.PutUint32(v.(*stripPayload).rle[4:], 1<<30)
	}
	return n, v, err
}

// TestChaosCorruptStripStream: a run-length strip whose stream does not fit
// its strip reaches the output rank, in process and over TCP. Under the
// fault policy the paste writes nothing, the strip's rows stay transparent
// like a lost renderer's, exactly that frame is flagged, every other row
// and frame is the clean run's, and every rank runs to the end. Without the
// policy the output rank returns the paste kernel's error, naming the
// sender and the step, and no other rank fails.
func TestChaosCorruptStripStream(t *testing.T) {
	const steps, bad, badR = 3, 1, 1
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	out := l.OutputRank(bad)
	for _, tolerate := range []bool{true, false} {
		opts := smallOpts(48, 48)
		if tolerate {
			opts = tolerant(48, 48)
		}
		opts.Compress = true
		ref, _ := chaosRun(t, store, l, opts, nil)
		for _, net := range []bool{false, true} {
			w, err := NewRealWorkload(l, opts, store)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			p, err := NewPipeline(l, &stripCorruptor{w, bad, badR})
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, l.WorldSize())
			body := func(c *mpi.Comm) { errs[c.Rank()] = p.Run(c) }
			if net {
				rep, err := mpi.RunNetErrs(l.WorldSize(), mpi.NetTuning{}, body)
				if err != nil {
					t.Fatal(err)
				}
				for r, rerr := range rep.Errs {
					if rerr != nil && (tolerate || r != out) {
						t.Errorf("tolerate=%v net: rank %d transport: %v", tolerate, r, rerr)
					}
				}
			} else {
				mpi.RunReal(l.WorldSize(), body)
			}
			for r, rerr := range errs {
				if !tolerate && r == out {
					if rerr == nil || !strings.Contains(rerr.Error(), "RLE overrun") ||
						!strings.Contains(rerr.Error(), fmt.Sprintf("strip from rank %d at step %d", l.RenderRank(badR), bad)) {
						t.Errorf("net=%v: output rank returned %v, want the paste error naming rank %d step %d", net, rerr, l.RenderRank(badR), bad)
					}
				} else if rerr != nil {
					t.Errorf("tolerate=%v net=%v: rank %d died: %v", tolerate, net, r, rerr)
				}
			}
			if !tolerate {
				continue
			}
			if p.Res.Frames != steps || p.Res.DegradedFrames != 1 {
				t.Errorf("net=%v: %d frames, %d degraded, want %d and 1", net, p.Res.Frames, p.Res.DegradedFrames, steps)
			}
			gap := w.sched.Strips[badR]
			for step := 0; step < steps; step++ {
				if got, want := w.FrameDegraded(step), step == bad; got != want {
					t.Errorf("net=%v: FrameDegraded(%d) = %v, want %v", net, step, got, want)
				}
				want := ref.Frame(step).Clone()
				if step == bad {
					clear(want.Pix[4*gap.Y0*want.W : 4*(gap.Y0+gap.H)*want.W])
				}
				if !bytes.Equal(frameBits(want), frameBits(w.Frame(step))) {
					t.Errorf("net=%v: step %d is not the clean frame (minus rows [%d, %d) at step %d)", net, step, gap.Y0, gap.Y0+gap.H, bad)
				}
			}
		}
	}
}

// TestChaosCollectiveTransientsHealBelowMPIIO: in collective mode core
// never re-runs a collective round, so transients must be healed below
// MPI-IO by pfs.RetryStore. With the retrying store layered over the
// injector, the pipeline must see a fault-free run — zero core-level
// accounting, frames bit-identical — while the store's retry counter
// matches the injected transient count exactly.
func TestChaosCollectiveTransientsHealBelowMPIIO(t *testing.T) {
	const steps = 4
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := tolerant(40, 40)
	opts.ReadStrategy = ReadCollective
	ref, _ := chaosRun(t, store, l, opts, nil)
	var inj *faultinject.Store
	var rs *pfs.RetryStore
	w, res := chaosRun(t, store, l, opts, func(st pfs.Store) pfs.Store {
		inj = faultinject.Wrap(st, faultinject.Config{Seed: 21, PTransient: 0.5, Match: stepObjectsOnly})
		rs = pfs.NewRetryStore(inj, pfs.RetryConfig{}) // no sleeping: deterministic and fast
		return rs
	})
	if res.Frames != steps {
		t.Fatalf("frames = %d, want %d", res.Frames, steps)
	}
	requireFramesEqual(t, ref, w, steps)
	if res.FaultEvents != 0 || res.Retries != 0 || res.StaleSteps != 0 || res.DegradedFrames != 0 {
		t.Errorf("store-level heals leaked into core accounting: events=%d retries=%d stale=%d degraded=%d",
			res.FaultEvents, res.Retries, res.StaleSteps, res.DegradedFrames)
	}
	stats := inj.Stats()
	if stats.Transients == 0 {
		t.Fatal("schedule injected no transients; pick a hotter seed")
	}
	if rs.Retries() != stats.Transients {
		t.Errorf("RetryStore retries = %d, want the %d injected transients (one heal each)",
			rs.Retries(), stats.Transients)
	}
}

// TestChaosCollectivePermanentProbeStaleHandle: the hardest degrade path —
// in collective mode a step object whose open permanently fails cannot
// abort one rank's round (its peers are already committed to the
// collective). Both ranks of the owning group must fall back to their
// still-open handle on the previous step's object, keep the collective
// synchronized, and flag the frame; frame 3 is then bit-identical to
// frame 1.
func TestChaosCollectivePermanentProbeStaleHandle(t *testing.T) {
	const steps = 4
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := tolerant(40, 40)
	opts.ReadStrategy = ReadCollective
	ref, _ := chaosRun(t, store, l, opts, nil)
	w, res := chaosRun(t, store, l, opts, func(st pfs.Store) pfs.Store {
		return faultinject.Wrap(st, faultinject.Config{
			Seed: 5, PPermanent: 1, Match: onlyObject(quake.StepObject(3)),
		})
	})
	if res.Frames != steps {
		t.Fatalf("frames = %d, want %d", res.Frames, steps)
	}
	// Both IPs of group 1 observe the failed open: 2 fault events, 2 stale
	// steps, no retries (permanent), one degraded frame.
	if res.FaultEvents != 2 || res.Retries != 0 || res.StaleSteps != 2 || res.DegradedFrames != 1 {
		t.Errorf("accounting = events:%d retries:%d stale:%d degraded:%d, want 2/0/2/1",
			res.FaultEvents, res.Retries, res.StaleSteps, res.DegradedFrames)
	}
	if !w.FrameDegraded(3) || w.FrameDegraded(2) {
		t.Errorf("degraded flags wrong: frame3=%v frame2=%v", w.FrameDegraded(3), w.FrameDegraded(2))
	}
	requireFramesEqual(t, ref, w, 3)
	if d := img.MaxAbsDiff(ref.Frame(1), w.Frame(3)); d != 0 {
		t.Errorf("degraded frame 3 differs from stale source frame 1 (max abs %g)", d)
	}
}

// TestChaosCollectiveViewBeyondEOF: step 2's object is rewritten one node
// record short of the largest id any input rank reads, so exactly one of
// the group's two IPs holds a view that reaches past EOF. That rank used to
// turn back before the collective, degrade and move on to the next round,
// leaving its peer in this round's exchange forever. Now it sees the round
// through with an empty request and degrades afterwards: the run returns on
// every rank (under a deadline), step 2's frame is the only degraded one,
// and every other frame is bit-identical to the clean run — in process and
// over loopback TCP.
func TestChaosCollectiveViewBeyondEOF(t *testing.T) {
	const steps = 4
	l := Layout{Groups: 1, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := tolerant(40, 40)
	opts.ReadStrategy = ReadCollective
	opts.AdaptiveFetch = true
	ref, _ := chaosRun(t, buildDataset(t, steps), l, opts, nil)
	for _, tr := range []struct {
		name string
		run  transportRun
	}{{"real", overReal}, {"net", overNet}} {
		t.Run(tr.name, func(t *testing.T) {
			store := buildDataset(t, steps)
			w, err := NewRealWorkload(l, opts, store)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			maxID := make([]int32, l.IPsPerGroup)
			for p, ids := range w.ds.partIDs {
				maxID[p] = ids[len(ids)-1]
			}
			if maxID[0] == maxID[1] {
				t.Fatalf("both parts end at node %d: no object size breaks one view only", maxID[0])
			}
			keep := int(max(maxID[0], maxID[1])) * quake.BytesPerNode
			raw := make([]byte, keep)
			if err := store.ReadAt(nil, quake.StepObject(2), 0, raw); err != nil {
				t.Fatal(err)
			}
			if err := store.Write(quake.StepObject(2), raw); err != nil {
				t.Fatal(err)
			}
			p, err := NewPipeline(l, w)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				tr.run(t, l.WorldSize(), func(c *mpi.Comm) {
					if err := p.Run(c); err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
					}
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the run never returned: an input rank deserted a collective round")
			}
			res := p.Res
			if res.Frames != steps {
				t.Fatalf("frames = %d, want %d", res.Frames, steps)
			}
			if res.FaultEvents != 1 || res.Retries != 0 || res.StaleSteps != 1 || res.DegradedFrames != 1 {
				t.Errorf("accounting = events:%d retries:%d stale:%d degraded:%d, want 1/0/1/1",
					res.FaultEvents, res.Retries, res.StaleSteps, res.DegradedFrames)
			}
			for step := 0; step < steps; step++ {
				if got, want := w.FrameDegraded(step), step == 2; got != want {
					t.Errorf("FrameDegraded(%d) = %v, want %v", step, got, want)
				}
				if step == 2 {
					continue
				}
				if d := img.MaxAbsDiff(ref.Frame(step), w.Frame(step)); d != 0 {
					t.Errorf("step %d: frame differs from the clean run (max abs %g)", step, d)
				}
			}
		})
	}
}

// TestChaosTolerantFetchAllocFree extends PR 4's fetch allocation gate to
// the fault-tolerant path: with Tolerate on and no faults scheduled, the
// steady-state Fetch step must still allocate nothing — the resilient
// wrapper adds branches, never garbage.
func TestChaosTolerantFetchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	const steps = 5
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"contiguous", func(o *Options) { o.Faults.Tolerate = true }},
		{"collective", func(o *Options) { o.Faults.Tolerate = true; o.ReadStrategy = ReadCollective }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, l := fetchWorkload(t, steps, tc.mod)
			mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
				if c.Rank() != 0 {
					return
				}
				step := 0
				fetch := func() {
					t0 := 1 + step%(steps-1)
					step++
					if _, err := w.Fetch(c, t0, 0, 1); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < steps; i++ {
					fetch()
				}
				if avg := testing.AllocsPerRun(30, fetch); avg != 0 {
					t.Errorf("tolerant steady-state %s Fetch allocates %v, want 0", tc.name, avg)
				}
			})
		})
	}
}

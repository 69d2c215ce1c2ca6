package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// --- Analytic model -------------------------------------------------------

func TestAnalyticFormulasMatchPaper(t *testing.T) {
	// Section 6: Tf+Tp = 22s, Ts = 2s -> 12 input processors (Figure 8).
	if m := OneDIPInputProcs(20, 2, 2); m != 12 {
		t.Errorf("1DIP m = %d, want 12", m)
	}
	// Figure 9: Tr = 1s, Ts = 2s -> 1DIP no longer suffices; 2DIP groups
	// of m = 2.
	if Use1DIP(2, 1) {
		t.Error("Use1DIP true although Ts > Tr")
	}
	if !Use1DIP(2, 2) {
		t.Error("Use1DIP false although Ts == Tr")
	}
	if m := TwoDIPGroupSize(2, 1); m != 2 {
		t.Errorf("2DIP m = %d, want 2", m)
	}
	if n := TwoDIPGroups(20, 2, 2); n != 12 {
		t.Errorf("2DIP n = %d, want 12", n)
	}
}

func TestPredictInterframe(t *testing.T) {
	// With enough groups, rendering dominates.
	if p := PredictInterframe(20, 2, 2, 2, 12, 1); math.Abs(p-2) > 1e-9 {
		t.Errorf("predict = %v, want 2", p)
	}
	// 1DIP with Tr=1 is stuck at Ts=2 no matter how many groups.
	if p := PredictInterframe(20, 2, 2, 1, 22, 1); math.Abs(p-2) > 1e-9 {
		t.Errorf("1DIP predict = %v, want 2", p)
	}
	// 2DIP m=2 reaches Tr=1.
	if p := PredictInterframe(20, 2, 2, 1, 12, 2); math.Abs(p-1) > 1e-9 {
		t.Errorf("2DIP predict = %v, want 1", p)
	}
}

// --- Layout ---------------------------------------------------------------

func TestLayoutRanks(t *testing.T) {
	l := Layout{Groups: 3, IPsPerGroup: 2, Renderers: 4, Outputs: 1}
	if l.WorldSize() != 11 {
		t.Errorf("world = %d", l.WorldSize())
	}
	if l.InputRank(1, 1) != 3 || l.RenderRank(0) != 6 || l.OutputRank(5) != 10 {
		t.Error("rank layout broken")
	}
	if l.RoleOf(0) != "input" || l.RoleOf(6) != "render" || l.RoleOf(10) != "output" {
		t.Error("roles broken")
	}
	if got := l.GroupRanks(2); got[0] != 4 || got[1] != 5 {
		t.Errorf("group ranks = %v", got)
	}
	if err := (Layout{}).Validate(); err == nil {
		t.Error("empty layout validated")
	}
}

// TestTagSpaceBoundary pins where the tag layout ends. The last addressable
// step's credit tag is the tag just under the compositor's first window, so
// one step more must be refused rather than aliased; likewise a prefetch
// depth that would let two steps sharing a compositing window be in flight
// together. Every accepted run keeps its tags in disjoint ranges.
func TestTagSpaceBoundary(t *testing.T) {
	if got := tagCredit(maxSteps - 1); got != tagCompositeBase-1 {
		t.Fatalf("last step's credit tag = %d, want %d (just under the compositor's base)", got, tagCompositeBase-1)
	}
	if tagData(maxSteps) < tagCompositeBase {
		t.Fatal("maxSteps is not the first step that collides")
	}
	if tagComposite(0) != tagComposite(compositeWindows) || tagComposite(1) == tagComposite(compositeWindows) {
		t.Fatal("compositing windows do not wrap at compositeWindows")
	}
	for _, tc := range []struct {
		steps, depth int
		ok           bool
	}{
		{1, 0, true}, {24, 1, true}, {compositeWindows + 1, 1, true}, // a wrapped window still works
		{maxSteps, 1, true}, {maxSteps + 1, 1, false}, {1 << 20, 1, false},
		{24, compositeWindows - 1, true}, {24, compositeWindows, false},
	} {
		if err := checkTagSpace(tc.steps, tc.depth); (err == nil) != tc.ok {
			t.Errorf("checkTagSpace(%d, %d) = %v, want ok=%v", tc.steps, tc.depth, err, tc.ok)
		}
	}
	// The same bound at the two doors a run comes through.
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}
	if _, err := NewPipeline(l, NewModelWorkload(l, ModelConfig{Steps: maxSteps})); err != nil {
		t.Errorf("NewPipeline refused %d steps: %v", maxSteps, err)
	}
	if _, err := NewPipeline(l, NewModelWorkload(l, ModelConfig{Steps: maxSteps + 1})); err == nil {
		t.Errorf("NewPipeline accepted %d steps", maxSteps+1)
	}
	p, err := NewPipeline(l, NewModelWorkload(l, ModelConfig{Steps: 2}))
	if err != nil {
		t.Fatal(err)
	}
	p.PrefetchDepth = compositeWindows
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if err := p.Run(c); err == nil {
			t.Errorf("rank %d ran with prefetch depth %d", c.Rank(), p.PrefetchDepth)
		}
	})
}

// --- Model-mode pipeline (paper scale) -------------------------------------

func modelRun(t *testing.T, l Layout, cfg ModelConfig) *Result {
	t.Helper()
	res, err := RunModel(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestModelFig8Shape(t *testing.T) {
	// Figure 8: 64 renderers, 512^2, 1DIP. One IP: ~24 s interframe;
	// 12 IPs: ~Tr = 2 s.
	scale := LeMieuxScale()
	run := func(ips int) float64 {
		l := Layout{Groups: ips, IPsPerGroup: 1, Renderers: 64, Outputs: 1}
		res := modelRun(t, l, ModelConfig{Scale: scale, Steps: 3*ips + 6, Width: 512, Height: 512})
		return res.Interframe(ips + 2)
	}
	one := run(1)
	if one < 20 || one > 28 {
		t.Errorf("1 IP interframe = %v, want ~24 (22s I/O+prep dominates)", one)
	}
	twelve := run(12)
	if twelve < 1.6 || twelve > 2.8 {
		t.Errorf("12 IPs interframe = %v, want ~2 (rendering time)", twelve)
	}
	if one/twelve < 8 {
		t.Errorf("speedup 1->12 IPs = %v, want ~11x", one/twelve)
	}
}

func TestModelFig9Shape(t *testing.T) {
	// Figure 9: 128 renderers (Tr ~ 1s). 1DIP plateaus at Ts ~ 2s even
	// with many groups; 2DIP (m=2) reaches ~1s.
	scale := LeMieuxScale()
	oneDIP := modelRun(t, Layout{Groups: 14, IPsPerGroup: 1, Renderers: 128, Outputs: 1},
		ModelConfig{Scale: scale, Steps: 48, Width: 512, Height: 512})
	d1 := oneDIP.Interframe(16)
	if d1 < 1.5 || d1 > 2.6 {
		t.Errorf("1DIP interframe = %v, want ~2 (stuck at Ts)", d1)
	}
	twoDIP := modelRun(t, Layout{Groups: 12, IPsPerGroup: 2, Renderers: 128, Outputs: 1},
		ModelConfig{Scale: scale, Steps: 48, Width: 512, Height: 512})
	d2 := twoDIP.Interframe(14)
	if d2 < 0.8 || d2 > 1.5 {
		t.Errorf("2DIP interframe = %v, want ~1 (rendering time)", d2)
	}
	if d2 >= d1 {
		t.Errorf("2DIP (%v) not faster than 1DIP (%v)", d2, d1)
	}
}

func TestModelAdaptiveFetchingNeedsFewerIPs(t *testing.T) {
	// Section 6: with adaptive fetching at level 8, only ~4 IPs are needed
	// (vs 12) for 64 renderers.
	scale := LeMieuxScale()
	l := Layout{Groups: 4, IPsPerGroup: 1, Renderers: 64, Outputs: 1}
	res := modelRun(t, l, ModelConfig{Scale: scale, Steps: 24, Width: 512, Height: 512,
		Level: 8, Adaptive: true})
	d := res.Interframe(6)
	// Rendering at level 8 is also cheaper; the point is that 4 IPs keep
	// the pipeline render-bound (well under the 8s/4=2s+ I/O would cost
	// unhidden).
	rt := res.AvgRender()
	if d > rt*1.6+0.3 {
		t.Errorf("interframe %v far above render time %v: I/O not hidden with 4 IPs", d, rt)
	}
}

func TestModelLICHiddenWith16IPs(t *testing.T) {
	// Figure 12: volume + LIC with 64 renderers; 16 IPs hide LIC + I/O.
	scale := LeMieuxScale()
	res := modelRun(t, Layout{Groups: 16, IPsPerGroup: 1, Renderers: 64, Outputs: 1},
		ModelConfig{Scale: scale, Steps: 56, Width: 512, Height: 512, LIC: true})
	d := res.Interframe(18)
	if d < 1.6 || d > 2.9 {
		t.Errorf("LIC with 16 IPs: interframe = %v, want ~2 (hidden)", d)
	}
	few := modelRun(t, Layout{Groups: 4, IPsPerGroup: 1, Renderers: 64, Outputs: 1},
		ModelConfig{Scale: scale, Steps: 20, Width: 512, Height: 512, LIC: true})
	df := few.Interframe(6)
	if df <= d*1.5 {
		t.Errorf("4 IPs with LIC should be much slower: %v vs %v", df, d)
	}
}

func TestModelMatchesAnalyticPrediction(t *testing.T) {
	scale := LeMieuxScale()
	tf := scale.StepBytes / scale.DiskClientBW
	tp := scale.PreSeconds
	ts := scale.StepBytes * scale.QuantFactor / scale.NICOut
	for _, tc := range []struct {
		g, m, r int
	}{
		{1, 1, 64}, {6, 1, 64}, {12, 1, 64}, {8, 2, 128},
	} {
		tr := float64(scale.Cells) / float64(tc.r) / scale.RenderRate
		want := PredictInterframe(tf, tp, ts, tr, tc.g, tc.m)
		l := Layout{Groups: tc.g, IPsPerGroup: tc.m, Renderers: tc.r, Outputs: 1}
		res := modelRun(t, l, ModelConfig{Scale: scale, Steps: 3*tc.g + 8, Width: 512, Height: 512})
		got := res.Interframe(tc.g + 2)
		if math.Abs(got-want) > 0.35*want+0.2 {
			t.Errorf("G=%d m=%d R=%d: DES interframe %v vs analytic %v", tc.g, tc.m, tc.r, got, want)
		}
	}
}

func TestModelDeterministic(t *testing.T) {
	scale := LeMieuxScale()
	l := Layout{Groups: 3, IPsPerGroup: 2, Renderers: 8, Outputs: 1}
	cfg := ModelConfig{Scale: scale, Steps: 10, Width: 256, Height: 256}
	a := modelRun(t, l, cfg)
	b := modelRun(t, l, cfg)
	if len(a.FrameDone) != len(b.FrameDone) {
		t.Fatal("different frame counts")
	}
	for i := range a.FrameDone {
		if a.FrameDone[i] != b.FrameDone[i] {
			t.Fatalf("nondeterministic frame time %d: %v vs %v", i, a.FrameDone[i], b.FrameDone[i])
		}
	}
}

// --- Real-mode pipeline ----------------------------------------------------

// buildDataset is quake's demo dataset with the given number of steps.
func buildDataset(t testing.TB, steps int) pfs.Store {
	t.Helper()
	st, err := quake.DemoDataset(steps)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// commStats is the per-rank accounting compared across transports.
type commStats struct {
	MsgsSent, MsgsRecv   int
	BytesSent, BytesRecv int64
}

// transportRun adapts one of the three transports to a common shape.
type transportRun func(n int, body func(c *mpi.Comm)) error

func overReal(n int, body func(c *mpi.Comm)) error { mpi.RunReal(n, body); return nil }

func overSim(n int, body func(c *mpi.Comm)) error {
	cfg := mpi.SimConfig{OutBW: 1e8, InBW: 1e8, DiskClientBW: 5e7, DiskAggBW: 4e8}
	mpi.RunSim(n, cfg, body)
	return nil
}

func overNet(n int, body func(c *mpi.Comm)) error {
	_, err := mpi.RunNet(n, body)
	return err
}

// runDeadline bounds one test run: a lost message would otherwise leave a
// rank waiting forever.
const runDeadline = 2 * time.Minute

// runOver runs wl once over the given transport — a new pipeline, every
// rank's Run — and returns the result, each rank's accounting snapshot
// taken after its Run returned, and the first rank or transport error, or
// an error when the run has not returned within runDeadline. It may be
// called from any goroutine.
func runOver(wl Workload, l Layout, run transportRun) (*Result, []commStats, error) {
	p, err := NewPipeline(l, wl)
	if err != nil {
		return nil, nil, err
	}
	stats := make([]commStats, l.WorldSize())
	var mu sync.Mutex
	var runErr error
	done := make(chan error, 1)
	go func() {
		done <- run(l.WorldSize(), func(c *mpi.Comm) {
			err := p.Run(c)
			mu.Lock()
			if err != nil && runErr == nil {
				runErr = err
			}
			stats[c.Rank()] = commStats{c.MsgsSent, c.MsgsRecv, c.BytesSent, c.BytesRecv}
			mu.Unlock()
		})
	}()
	select {
	case err = <-done:
	case <-time.After(runDeadline):
		return nil, nil, fmt.Errorf("the run did not return within %v: a message was never sent", runDeadline)
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	return p.Res, stats, err
}

// runWorkloadOver is runOver failing t on error, for a workload the caller
// built: wl is what the pipeline schedules, w what it renders — w itself or
// a wrapper around it. A non-nil wrap first swaps w's step reads onto
// wrap(w.store), so construction (mesh, meta, range scan) read clean and
// every per-step read goes through the wrapper.
func runWorkloadOver(t testing.TB, w *RealWorkload, wl Workload, l Layout, run transportRun, wrap func(pfs.Store) pfs.Store) (*Result, []commStats) {
	t.Helper()
	if wrap != nil {
		w.store = wrap(w.store)
	}
	res, stats, err := runOver(wl, l, run)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// runPipelineOver builds a workload on store and runs it once
// (runWorkloadOver).
func runPipelineOver(t testing.TB, store pfs.Store, l Layout, opts Options, run transportRun, wrap func(pfs.Store) pfs.Store) (*RealWorkload, *Result, []commStats) {
	t.Helper()
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	res, stats := runWorkloadOver(t, w, w, l, run, wrap)
	return w, res, stats
}

// serialFrame renders timestep t directly (reference image) from the frozen
// decode chain's bytes.
func serialFrame(t *testing.T, w *RealWorkload, opts Options, step int) *img.Image {
	t.Helper()
	q := frozenSteps(t, w.store, step+1, w.ds.meta.NumNodes, opts.Enhancement, opts.EnhanceGain, w.ds.vmax)[step]
	scalar := render.DequantizeInto(nil, q)
	rr := render.NewRenderer()
	rr.Lighting = opts.Lighting
	view := opts.View
	im, err := render.RenderSerial(rr, w.ds.mesh, scalar, opts.BlockLevel, w.ds.level, &view)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func smallOpts(w, h int) Options {
	return DefaultOptions(w, h)
}

func TestRealPipelineMatchesSerialRenderer(t *testing.T) {
	store := buildDataset(t, 4)
	opts := smallOpts(48, 48)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	w, res, _ := runPipelineOver(t, store, l, opts, overReal, nil)
	if res.Frames != 4 {
		t.Fatalf("frames = %d, want 4", res.Frames)
	}
	for step := 0; step < 4; step++ {
		got := w.Frame(step)
		if got == nil {
			t.Fatalf("missing frame %d", step)
		}
		want := serialFrame(t, w, opts, step)
		if d := img.RMSE(want, got); d > 1e-5 {
			t.Errorf("step %d: pipeline differs from serial renderer, RMSE=%v", step, d)
		}
	}
}

// TestRealPipelineStrategiesAgree: how a step is read, over how many input
// ranks and renderers, and how strips are exchanged and shipped must not
// move a bit of the frame. Every strategy ships the same piece format and
// every renderer merges it the same way, so this holds by construction.
func TestRealPipelineStrategiesAgree(t *testing.T) {
	store := buildDataset(t, 2)
	base := smallOpts(40, 40)
	var ref *img.Image
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"independent-1dip", func(o *Options) { o.ReadStrategy = ReadIndependent }},
		{"independent-2dip", func(o *Options) { o.ReadStrategy = ReadIndependent }},
		{"collective-2dip", func(o *Options) { o.ReadStrategy = ReadCollective }},
		{"adaptive-fetch", func(o *Options) { o.ReadStrategy = ReadIndependent; o.AdaptiveFetch = true }},
		{"directsend", func(o *Options) { o.Compositor = CompositeDirectSend }},
		{"compressed", func(o *Options) { o.Compress = true }},
	} {
		opts := base
		tc.mod(&opts)
		l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
		if tc.name == "independent-2dip" || tc.name == "collective-2dip" {
			l = Layout{Groups: 2, IPsPerGroup: 2, Renderers: 3, Outputs: 1}
		}
		w, _, _ := runPipelineOver(t, store, l, opts, overReal, nil)
		got := w.Frame(1)
		if got == nil {
			t.Fatalf("%s: no frame", tc.name)
		}
		if ref == nil {
			ref = got
			continue
		}
		if d := img.MaxAbsDiff(ref, got); d != 0 {
			t.Errorf("%s: image differs from reference, max abs diff %v", tc.name, d)
		}
	}
}

func TestRealPipelineEnhancementChangesFrames(t *testing.T) {
	store := buildDataset(t, 3)
	plain := smallOpts(32, 32)
	w1, _, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, plain, overReal, nil)
	enh := plain
	enh.Enhancement = true
	w2, _, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, enh, overReal, nil)
	// Step 0 has no previous step: identical. Later steps: enhanced.
	if d := img.RMSE(w1.Frame(0), w2.Frame(0)); d != 0 {
		t.Errorf("step 0 changed by enhancement: %v", d)
	}
	if d := img.RMSE(w1.Frame(2), w2.Frame(2)); d == 0 {
		t.Error("enhancement had no effect on step 2")
	}
	// And matches the serial reference with enhancement.
	want := serialFrame(t, w2, enh, 2)
	if d := img.RMSE(want, w2.Frame(2)); d > 1e-5 {
		t.Errorf("enhanced pipeline differs from serial: %v", d)
	}
}

func TestRealPipelineWithLIC(t *testing.T) {
	store := buildDataset(t, 2)
	opts := smallOpts(40, 40)
	opts.LIC = true
	opts.LICSize = 32
	w, res, _ := runPipelineOver(t, store, Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, opts, overReal, nil)
	if res.Frames != 2 {
		t.Fatalf("frames = %d", res.Frames)
	}
	frame := w.Frame(1)
	// The LIC underlay gives formerly transparent pixels at least its
	// baseline coverage (Colorize uses alpha >= 0.25, magnitude-modulated).
	var covered int
	for i := 3; i < len(frame.Pix); i += 4 {
		if frame.Pix[i] > 0.2 {
			covered++
		}
	}
	if covered < frame.W*frame.H/2 {
		t.Errorf("only %d covered pixels with LIC underlay", covered)
	}
	// And the underlay must not be present without LIC.
	plain := smallOpts(40, 40)
	wp, _, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, plain, overReal, nil)
	if img.RMSE(wp.Frame(1), frame) == 0 {
		t.Error("LIC made no difference to the frame")
	}
}

func TestRealPipelineMultipleOutputs(t *testing.T) {
	store := buildDataset(t, 4)
	opts := smallOpts(32, 32)
	w, res, _ := runPipelineOver(t, store, Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 2}, opts, overReal, nil)
	if res.Frames != 4 {
		t.Fatalf("frames = %d, want 4", res.Frames)
	}
	for step := 0; step < 4; step++ {
		if w.Frame(step) == nil {
			t.Errorf("missing frame %d", step)
		}
	}
}

func TestRealPipelineUnderSimTransport(t *testing.T) {
	// The full real workload also runs on the DES transport (virtual time
	// plus real data), proving the two modes share one code path.
	store := buildDataset(t, 2)
	opts := smallOpts(32, 32)
	l := Layout{Groups: 1, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPipeline(l, w)
	cfg := mpi.SimConfig{OutBW: 1e8, InBW: 1e8, DiskClientBW: 5e7, DiskAggBW: 4e8}
	end := mpi.RunSim(l.WorldSize(), cfg, func(c *mpi.Comm) {
		if err := p.Run(c); err != nil {
			t.Error(err)
		}
	})
	if end <= 0 {
		t.Error("no virtual time elapsed")
	}
	if w.Frame(1) == nil {
		t.Error("no frame produced under sim transport")
	}
}

func TestNewRealWorkloadErrors(t *testing.T) {
	if _, err := NewRealWorkload(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1},
		smallOpts(8, 8), pfs.NewMemStore()); err == nil {
		t.Error("empty store accepted")
	}
}

func TestResultInterframe(t *testing.T) {
	r := &Result{FrameDone: []float64{1, 2, 3, 4}, Frames: 4}
	if d := r.Interframe(0); math.Abs(d-1) > 1e-12 {
		t.Errorf("interframe = %v", d)
	}
	if d := r.Interframe(10); math.Abs(d-1) > 1e-12 {
		t.Errorf("interframe with oversized skip = %v", d)
	}
	empty := &Result{}
	if empty.Interframe(0) != 0 {
		t.Error("empty interframe nonzero")
	}
}

func TestRenderImbalanceReported(t *testing.T) {
	store := buildDataset(t, 3)
	opts := smallOpts(40, 40)
	_, res, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, opts, overReal, nil)
	imb := res.RenderImbalance()
	if imb < 1.0-1e-9 {
		t.Errorf("impossible imbalance %v", imb)
	}
	if len(res.RankRenderSec) != 3 {
		t.Errorf("per-rank stats for %d renderers", len(res.RankRenderSec))
	}
	if (&Result{}).RenderImbalance() != 0 {
		t.Error("empty result imbalance nonzero")
	}
}

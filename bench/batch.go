package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	// workDir holds the generated datasets and trace files; it is inside
	// the checkout so the benchmark writes nowhere else.
	workDir string
}

// dataRoot is this process's dataset directory; concurrent runs of the
// benchmark in one checkout do not share it.
func (cfg runConfig) dataRoot() string {
	return filepath.Join(cfg.workDir, "data", fmt.Sprintf("%s-%d", cfg.spec.Name, os.Getpid()))
}

// dataDir is where set-up repeat k generates its dataset.
func (cfg runConfig) dataDir(k int) string { return filepath.Join(cfg.dataRoot(), strconv.Itoa(k)) }

// dataset returns the definition the run generates: the workload's, or
// the tiny one under -scale smoke.
func (cfg runConfig) dataset() datasetDef {
	if cfg.smoke {
		return smokeDataset
	}
	return datasets[cfg.spec.Dataset]
}

// dim shrinks an image dimension under -scale smoke.
func (cfg runConfig) dim(n int) int {
	if cfg.smoke {
		return min(n, 48)
	}
	return n
}

// setups is how often set-up is repeated so that setup_s and
// first_frame_ms are medians, not single samples.
func (cfg runConfig) setups() int {
	if cfg.smoke || cfg.trace {
		return 1
	}
	return 3
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	metrics           metricSet
	dataset           datasetInfo
	// problems explains every failed check on standard error.
	problems []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// seedAzimuth turns the seed into the orbit camera's azimuth. The dataset
// is symmetric under quarter turns about the vertical axis and under the
// mirror that swaps x and y, so the azimuths a+k*90 and (90-a)+k*90 show
// the renderer the same amount of work from eight sides; a is 30 degrees
// plus a seeded jitter of up to one degree. Seeds thus change the input
// (which blocks project where, which renderer owns what) without turning
// the run-to-run spread into a measure of how the view changes the work.
func seedAzimuth(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	a := 29 + 2*rng.Float64()
	if rng.Intn(2) == 1 {
		a = 90 - a
	}
	return a + 90*float64(rng.Intn(4))
}

// batchSystem is one constructed pipeline: a RealWorkload on a dataset,
// optionally behind the tracing decorators.
type batchSystem struct {
	b      *batchSpec
	layout core.Layout
	opts   core.Options
	steps  int
	w      *core.RealWorkload
	wl     core.Workload // w, or its traced decorator
	rec    *recorder     // nil when untraced
	store  *tracedStore  // nil when untraced
	built  time.Time     // when construction started
	buildS float64       // seconds NewRealWorkload took
}

func batchOptions(cfg runConfig) core.Options {
	b := cfg.spec.Batch
	o := core.DefaultOptions(cfg.dim(b.Width), cfg.dim(b.Height))
	o.View = render.OrbitView(o.Width, o.Height, seedAzimuth(cfg.seed), b.Elevation)
	if b.Level > 0 {
		o.Level = uint8(b.Level)
	}
	o.Lighting = b.Lighting
	o.Enhancement = b.Enhancement
	o.AdaptiveFetch = b.AdaptiveFetch
	o.LIC = b.LIC
	if b.LIC {
		o.LICSize = cfg.dim(b.LICSize)
	}
	o.Compress = b.Compress
	o.ReadStrategy = core.ReadIndependent
	if b.Read == "collective" {
		o.ReadStrategy = core.ReadCollective
	}
	return o
}

// newBatchSystem constructs the workload on store. With traced set, the
// store and the workload hooks are decorated; reads reach tracedStore with
// the caller's communicator, whose world rank is the communicator's own
// rank except for the group sub-communicator a collective fetch reads
// through — there the step object's name gives the step, the step gives
// the group (group g owns steps t = g mod Groups), and the sub-rank gives
// the part.
func newBatchSystem(cfg runConfig, store pfs.Store, steps int, traced bool) (*batchSystem, error) {
	b := cfg.spec.Batch
	s := &batchSystem{b: b, layout: b.Layout.core(), opts: batchOptions(cfg), steps: min(b.Steps, steps)}
	if traced {
		l := s.layout
		s.rec = newRecorder(l.WorldSize(), l.NumInput(), l.Renderers)
		stepOf := make(map[string]int, steps)
		for t := 0; t < steps; t++ {
			stepOf[quake.StepObject(t)] = t
		}
		s.store = &tracedStore{inner: store, rec: s.rec, rankOf: func(c *mpi.Comm, name string) int {
			if c.Size() == l.WorldSize() {
				return c.Rank()
			}
			t, ok := stepOf[name]
			if !ok || c.Size() != l.IPsPerGroup {
				return -1
			}
			return l.InputRank(t%l.Groups, c.Rank())
		}}
		store = s.store
	}
	s.built = time.Now()
	w, err := core.NewRealWorkload(s.layout, s.opts, store)
	if err != nil {
		return nil, err
	}
	s.buildS = time.Since(s.built).Seconds()
	s.w, s.wl = w, w
	if traced {
		s.wl = &tracedWorkload{inner: w, rec: s.rec}
	}
	return s, nil
}

func (s *batchSystem) close() { s.w.Close() }

// passResult is one pass: the step window aimed at the whole run, a fresh
// pipeline, every rank run to completion, every frame checksummed and
// released.
type passResult struct {
	wall      float64   // seconds from aiming the window to the last rank returning
	cpu       float64   // process CPU seconds over the same interval
	gaps      []float64 // seconds between consecutive frames, pipeline fill skipped
	meanGap   float64   // their mean: core.Result's interframe delay
	firstAt   time.Time // when the first frame was assembled
	sum       uint64    // checksum over every frame, 0 with a missing frame
	missing   int       // frames missing or degraded
	res       *core.Result
	msgs      int   // messages sent, summed over ranks
	bytes     int64 // declared bytes sent, summed over ranks
	net       mpi.NetStats
	netFaults int
}

// addNetStats adds one rank's (or pass's) transport counters into dst.
func addNetStats(dst *mpi.NetStats, s mpi.NetStats) {
	dst.Reconnects += s.Reconnects
	dst.FramesResent += s.FramesResent
	dst.HeartbeatsSent += s.HeartbeatsSent
	dst.PeersLost += s.PeersLost
	dst.MessagesDropped += s.MessagesDropped
}

// frameSum is FNV-1a over the frame's pixels quantized to 8 bits per
// channel (as the PNG writer and internal/core/golden_test.go quantize),
// one 32-bit RGBA word at a time: it pins every visible pixel and ignores
// float dust below the quantum.
func frameSum(h uint64, m *img.Image) uint64 {
	q := func(v float32) uint64 {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return uint64(v*255 + 0.5)
	}
	p := m.Pix
	for i := 0; i+3 < len(p); i += 4 {
		h ^= q(p[i]) | q(p[i+1])<<8 | q(p[i+2])<<16 | q(p[i+3])<<24
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// pass runs the pipeline once over the step window. visit, when set, sees
// each frame before it is released.
func (s *batchSystem) pass(visit func(step int, frame *img.Image)) passResult {
	var pr passResult
	cpu0 := cpuSeconds()
	t0 := time.Now()
	if err := s.w.SetStepWindow(0, s.steps); err != nil {
		fatalf("aiming step window: %v", err)
	}
	p, err := core.NewPipeline(s.layout, s.wl)
	if err != nil {
		fatalf("building pipeline: %v", err)
	}
	var mu sync.Mutex
	body := func(c *mpi.Comm) {
		if err := p.Run(c); err != nil {
			// The other ranks would wait for this one forever.
			fatalf("rank %d: %v", c.Rank(), err)
		}
		mu.Lock()
		pr.msgs += c.MsgsSent
		pr.bytes += c.BytesSent
		mu.Unlock()
	}
	runStart := time.Now()
	if s.b.Transport == "net" {
		rep, err := mpi.RunNetErrs(s.layout.WorldSize(), mpi.NetTuning{}, body)
		if err != nil {
			fatalf("loopback transport: %v", err)
		}
		for r, st := range rep.Stats {
			if rep.Errs[r] != nil {
				pr.netFaults++
			}
			addNetStats(&pr.net, st)
		}
	} else {
		mpi.RunReal(s.layout.WorldSize(), body)
	}
	pr.wall = time.Since(t0).Seconds()
	pr.cpu = cpuSeconds() - cpu0
	pr.res = p.Res

	done := append([]float64(nil), p.Res.FrameDone...)
	sort.Float64s(done)
	if len(done) > 0 {
		// FrameDone counts from the moment the transport started.
		pr.firstAt = runStart.Add(time.Duration(done[0] * float64(time.Second)))
	}
	skip := s.layout.Groups + 1 // the pipeline filling
	for i := skip + 1; i < len(done); i++ {
		pr.gaps = append(pr.gaps, done[i]-done[i-1])
	}
	pr.meanGap = p.Res.Interframe(skip)
	pr.sum = fnvOffset
	for t := 0; t < s.steps; t++ {
		frame := s.w.Frame(t)
		if frame == nil || s.w.FrameDegraded(t) {
			pr.missing++
			pr.sum = 0
		} else {
			if visit != nil {
				visit(t, frame)
			}
			if pr.sum != 0 {
				pr.sum = frameSum(pr.sum, frame)
			}
		}
		s.w.ReleaseFrame(t)
	}
	return pr
}

// serialReference renders dataset step `step` directly — read, decode,
// magnitude, enhancement, the pipeline's 8-bit quantization, then the
// shared-memory renderer on the whole mesh — and returns its distance
// from the pipeline's frame. It is the independent check that the frames
// being timed show the data (LIC underlays are not part of it, so it is
// only used on workloads without LIC).
func (s *batchSystem) serialReference(store pfs.Store, step int, frame *img.Image) (float64, error) {
	m := s.w.Mesh()
	read := func(t int) ([]float32, error) {
		buf := make([]byte, m.NumNodes()*quake.BytesPerNode)
		if err := store.ReadAt(nil, quake.StepObject(t), 0, buf); err != nil {
			return nil, err
		}
		vec, err := quake.DecodeStepInto(nil, buf)
		if err != nil {
			return nil, err
		}
		return render.MagnitudeInto(nil, vec), nil
	}
	mag, err := read(step)
	if err != nil {
		return 0, err
	}
	if s.opts.Enhancement && step > 0 {
		prev, err := read(step - 1)
		if err != nil {
			return 0, err
		}
		mag = render.EnhanceTemporalInto(mag, mag, prev, s.opts.EnhanceGain)
	}
	scalar := render.DequantizeInto(nil, render.QuantizeInto(nil, mag, 0, s.w.VMax()))
	rr := render.NewRenderer()
	rr.Lighting = s.opts.Lighting
	level := max(min(s.opts.Level, m.Tree.MaxDepth()), s.opts.BlockLevel)
	view := s.opts.View
	ref, err := render.RenderParallelWith(rr, m, scalar, s.opts.BlockLevel, level, &view, 0, nil)
	if err != nil {
		return 0, err
	}
	var lit int
	for i := 3; i < len(frame.Pix); i += 4 {
		if frame.Pix[i] > 0 {
			lit++
		}
	}
	if lit == 0 {
		return math.Inf(1), nil // an empty frame matches nothing
	}
	return img.RMSE(ref, frame), nil
}

// batchSetup is a constructed, warmed batch system and what set-up cost.
type batchSetup struct {
	sys     *batchSystem
	store   *pfs.DirStore
	info    datasetInfo
	warm    passResult
	setupS  []float64 // seconds: generation + construction + warm-up pass
	genS    float64   // seconds: the kept set-up's dataset generation alone
	serialD float64   // serialReference distance of the middle step, -1 if not applicable
}

// setupBatch generates the dataset and constructs and warms the system
// cfg.setups() times, each from scratch in its own directory, keeping the
// last.
func setupBatch(cfg runConfig, out *outcome) batchSetup {
	var bs batchSetup
	var sums []uint64
	var middle *img.Image // the warm-up pass's middle frame
	for k := 0; k < cfg.setups(); k++ {
		if bs.sys != nil {
			bs.sys.close()
			if err := os.RemoveAll(bs.store.Dir); err != nil {
				fatalf("removing dataset: %v", err)
			}
		}
		t0 := time.Now()
		store, info, genS, err := generateDataset(cfg.spec.Dataset, cfg.dataset(), cfg.dataDir(k))
		if err != nil {
			fatalf("%v", err)
		}
		sys, err := newBatchSystem(cfg, store, info.Steps, false)
		if err != nil {
			fatalf("constructing workload: %v", err)
		}
		warm := sys.pass(func(step int, frame *img.Image) {
			if step == sys.steps/2 {
				middle = frame.Clone()
			}
		})
		bs.setupS = append(bs.setupS, time.Since(t0).Seconds())
		bs.sys, bs.store, bs.info, bs.warm, bs.genS = sys, store, info, warm, genS
		sums = append(sums, warm.sum)
	}
	// The checker's own cost, outside set-up: the kept system's middle
	// frame against a direct render.
	bs.serialD = -1
	if middle != nil && !bs.sys.opts.LIC {
		var err error
		if bs.serialD, err = bs.sys.serialReference(bs.store, bs.sys.steps/2, middle); err != nil {
			fatalf("reference render: %v", err)
		}
	}
	out.dataset = bs.info
	out.check(bs.warm.missing == 0, "warm-up pass: %d frames missing or degraded", bs.warm.missing)
	for k, sum := range sums {
		out.check(sum == sums[0], "set-up %d rendered checksum %#x, set-up 0 rendered %#x", k, sum, sums[0])
	}
	if bs.serialD >= 0 {
		// The pipeline and the whole-mesh renderer order their float
		// additions differently; the repository's own test allows 1e-5.
		out.check(bs.serialD <= 1e-4, "middle frame is RMSE %g from a direct render of the same step", bs.serialD)
	}
	return bs
}

// firstFrameSamples is how many cold starts first_frame_ms is the median of.
const firstFrameSamples = 5

// firstFrames measures the cold start a batch user sees: a fresh
// NewRealWorkload on the existing dataset, then a one-step run, timed
// from the start of construction to the frame being assembled.
func (bs batchSetup) firstFrames(cfg runConfig) []float64 {
	n := firstFrameSamples
	if cfg.smoke {
		n = 1
	}
	secs := make([]float64, n)
	for i := range secs {
		sys, err := newBatchSystem(cfg, bs.store, bs.info.Steps, false)
		if err != nil {
			fatalf("constructing workload: %v", err)
		}
		sys.steps = 1
		secs[i] = sys.pass(nil).firstAt.Sub(sys.built).Seconds()
		sys.close()
	}
	return secs
}

// runBatch measures a batch workload with tracing off and reports the
// end-to-end metrics.
func runBatch(cfg runConfig) outcome {
	out := outcome{metrics: metricSet{}}
	bs := setupBatch(cfg, &out)
	defer bs.sys.close()
	firstS := bs.firstFrames(cfg)

	var fps, interframe, gaps []float64
	var cpu float64
	frames := 0
	minPasses := 3
	if cfg.smoke {
		minPasses = 2
	}
	rss := startRSSSampler()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; n < minPasses || (!cfg.smoke && time.Now().Before(deadline)); n++ {
		pr := bs.sys.pass(nil)
		fps = append(fps, float64(bs.sys.steps)/pr.wall)
		interframe = append(interframe, 1e3*pr.meanGap)
		gaps = append(gaps, pr.gaps...)
		cpu += pr.cpu
		frames += bs.sys.steps
		out.attempted += bs.sys.steps
		switch {
		case pr.missing > 0 || pr.netFaults > 0:
			out.failed += max(pr.missing, 1)
			out.problems = append(out.problems, fmt.Sprintf("pass %d: %d frames missing or degraded, %d ranks failed", n, pr.missing, pr.netFaults))
		case pr.sum != bs.warm.sum:
			out.failed += bs.sys.steps
			out.problems = append(out.problems, fmt.Sprintf("pass %d: checksum %#x differs from the warm-up pass's %#x", n, pr.sum, bs.warm.sum))
		}
	}
	peak := rss.stop()
	if cfg.spec.Batch.Transport == "net" {
		checkAgainstReal(cfg, bs, &out)
	}

	for i := range gaps {
		gaps[i] *= 1e3
	}
	m := out.metrics
	m.put("setup_s", "s", median(bs.setupS))
	m.put("frames_per_s", "1/s", median(fps))
	m.put("frame_ms_p50", "ms", median(interframe))
	m.put("frame_ms_p90", "ms", percentile(gaps, 90))
	m.put("first_frame_ms", "ms", 1e3*median(firstS))
	m.put("cpu_ms_per_frame", "ms", 1e3*cpu/float64(frames))
	m.put("peak_rss_mb", "MB", peak)
	fmt.Fprintf(os.Stderr, "quakebench: %s: %d passes of %d frames, %d frame gaps, %d set-ups\n",
		cfg.spec.Name, len(fps), bs.sys.steps, len(gaps), len(bs.setupS))
	return out
}

// checkAgainstReal renders the same options once over mpi.RunReal and
// demands what the cross-transport suite pins: bit-identical frames and
// identical message accounting.
func checkAgainstReal(cfg runConfig, bs batchSetup, out *outcome) (ref passResult) {
	real := cfg
	sp := *cfg.spec.Batch
	sp.Transport = "real"
	real.spec.Batch = &sp
	sys, err := newBatchSystem(real, bs.store, bs.info.Steps, false)
	if err != nil {
		fatalf("constructing reference workload: %v", err)
	}
	defer sys.close()
	ref = sys.pass(nil)
	out.check(ref.sum == bs.warm.sum && ref.sum != 0,
		"frames over the network transport (checksum %#x) differ from mpi.RunReal's (%#x)", bs.warm.sum, ref.sum)
	out.check(ref.msgs == bs.warm.msgs && ref.bytes == bs.warm.bytes,
		"network transport sent %d messages / %d bytes, mpi.RunReal %d / %d", bs.warm.msgs, bs.warm.bytes, ref.msgs, ref.bytes)
	return ref
}

package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/mpi"
	"repro/internal/workers"
)

// Workload supplies the stage implementations the pipeline schedules. Two
// implementations exist: RealWorkload (actual data, actual rendering) and
// ModelWorkload (paper-scale calibrated costs for the timing experiments).
// All hooks are invoked from the rank's own goroutine/process, except
// PayloadFor, which an input rank may call concurrently for distinct
// renderers when Pipeline.Workers permits (both in-tree workloads only
// read shared state there).
//
// A workload owns its wire payloads end to end: the pipeline never
// inspects them, so a workload that pools payload buffers (RealWorkload
// does) must recycle them in the hooks that consume the messages — Render
// for the data pieces, Assemble for the strips and the LIC underlay.
type Workload interface {
	// Steps returns the number of timesteps to run.
	Steps() int
	// Fetch reads this input processor's share (part of m) of timestep t.
	Fetch(c *mpi.Comm, t, part, m int) (any, error)
	// Preprocess derives render-ready data (quantization, enhancement,
	// gradient/vector preparation) from the fetched share.
	Preprocess(c *mpi.Comm, t, part, m int, fetched any) (any, error)
	// PayloadFor extracts the piece of the preprocessed step that renderer
	// r needs, with the size it declares on the wire (RealWorkload: a byte
	// per node value plus eight per block run, whatever the read strategy;
	// ModelWorkload: its modelled share) and the optional real payload.
	PayloadFor(c *mpi.Comm, t int, prep any, renderer int) (int64, any)
	// LICPayload builds the surface LIC image for timestep t (called on
	// group part 0 only, and only when the pipeline has LIC enabled).
	LICPayload(c *mpi.Comm, t int, prep any) (int64, any, error)
	// Render consumes the m pieces for timestep t on renderer r.
	Render(c *mpi.Comm, t, r int, pieces []mpi.Message) (any, error)
	// Composite runs sort-last compositing among the renderer group and
	// returns this renderer's strip payload for the output processor,
	// with the size it declares on the wire: the bytes the payload really
	// carries (RealWorkload: 16 per strip pixel, or under Compress the
	// length of the strip's run-length stream; ModelWorkload halves its
	// modelled strip under Compress likewise).
	Composite(c *mpi.Comm, t, r int, group []int, rendered any) (int64, any, error)
	// Assemble consumes the strips (and optional LIC payload) on the
	// output processor; it owns frame delivery (e.g. writing the image).
	Assemble(c *mpi.Comm, t int, strips []mpi.Message, lic *mpi.Message) error
	// WantLIC reports whether LIC payloads flow this run.
	WantLIC() bool
}

// Tag layout. Every timestep owns tagsPerStep point-to-point tags counting
// up from zero, and the compositor a window of compositeWindowTags tags
// from tagCompositeBase up, reused every compositeWindows steps. Everything
// stays below 1<<20, far under the mpi layer's reserved collective tags.
const (
	tagsPerStep         = 4
	tagCompositeBase    = 1 << 19
	compositeWindows    = 2048
	compositeWindowTags = 256

	// maxSteps is the longest run the layout addresses: step maxSteps's
	// first tag would be the compositor's first.
	maxSteps = tagCompositeBase / tagsPerStep
)

func tagData(t int) int      { return t*tagsPerStep + 0 }
func tagStrip(t int) int     { return t*tagsPerStep + 1 }
func tagLIC(t int) int       { return t*tagsPerStep + 2 }
func tagCredit(t int) int    { return t*tagsPerStep + 3 }
func tagComposite(t int) int { return tagCompositeBase + (t%compositeWindows)*compositeWindowTags }

// checkTagSpace reports a run the tag layout cannot address, instead of
// letting its messages alias. A step past maxSteps would put its
// point-to-point tags inside the compositor's windows. Reusing a window
// every compositeWindows steps is safe while the two steps sharing it are
// never both in flight: an input sends step t only on every renderer's
// credit, and a renderer grants t+depth no earlier than it holds t, so
// renderers are at most depth steps apart — which is what bounds depth.
func checkTagSpace(steps, depth int) error {
	if steps > maxSteps {
		return fmt.Errorf("core: %d steps exceed the %d the tag space addresses", steps, maxSteps)
	}
	if depth >= compositeWindows {
		return fmt.Errorf("core: prefetch depth %d would alias the %d compositing tag windows", depth, compositeWindows)
	}
	return nil
}

// Result accumulates measurements across ranks. Safe for concurrent use.
type Result struct {
	mu sync.Mutex

	FrameDone []float64 // completion time of each frame at its output rank

	FetchSec   float64 // summed across IPs
	PrepSec    float64
	SendSec    float64
	WaitCredit float64
	RenderSec  float64 // summed across renderers
	CompSec    float64
	RenderOps  int // render invocations (renderers x steps)
	Frames     int

	// RankRenderSec records each renderer's total busy time, the basis for
	// the load-balance diagnostics.
	RankRenderSec map[int]float64

	// Fault accounting (docs/faults.md), populated only by fault-tolerant
	// workloads (Options.Faults.Tolerate). FaultEvents counts read/decode
	// errors observed at the step level (each failed attempt counts one);
	// Retries counts the step-level re-reads spent on them; StaleSteps
	// counts input-rank steps that exhausted their budget and served the
	// previous step's data; DegradedFrames counts assembled frames built
	// from at least one stale or dropped input. Store-level retries
	// (pfs.RetryStore) are accounted on the store, not here.
	FaultEvents    int
	Retries        int
	StaleSteps     int
	DegradedFrames int
}

// addInputStep folds one input-rank step's stage timings in. The typed
// adders replace the old closure-taking add hook, whose per-step closure
// allocations were the last garbage of the pipeline bookkeeping.
func (r *Result) addInputStep(fetch, prep, wait, send float64) {
	r.mu.Lock()
	r.FetchSec += fetch
	r.PrepSec += prep
	r.WaitCredit += wait
	r.SendSec += send
	r.mu.Unlock()
}

// addRenderStep folds one renderer step's timings in.
func (r *Result) addRenderStep(rank int, render, comp float64) {
	r.mu.Lock()
	r.RenderSec += render
	r.CompSec += comp
	r.RenderOps++
	if r.RankRenderSec == nil {
		r.RankRenderSec = make(map[int]float64)
	}
	r.RankRenderSec[rank] += render
	r.mu.Unlock()
}

// addFetchFaults folds one degraded-mode recovery episode in: the errors
// observed, the step-level retries spent on them, and whether the episode
// ended in a stale-data fallback.
func (r *Result) addFetchFaults(faults, retries int, stale bool) {
	r.mu.Lock()
	r.FaultEvents += faults
	r.Retries += retries
	if stale {
		r.StaleSteps++
	}
	r.mu.Unlock()
}

// addDegradedFrame records the assembly of a degraded frame.
func (r *Result) addDegradedFrame() {
	r.mu.Lock()
	r.DegradedFrames++
	r.mu.Unlock()
}

// addFrame records a frame completion.
func (r *Result) addFrame(now float64) {
	r.mu.Lock()
	r.FrameDone = append(r.FrameDone, now)
	r.Frames++
	r.mu.Unlock()
}

// Interframe returns the steady-state interframe delay: the mean gap
// between consecutive frame completions, skipping the pipeline fill
// (first `skip` frames). Out-of-range skips — negative, or leaving fewer
// than two frames — fall back to using every frame.
func (r *Result) Interframe(skip int) float64 {
	times := append([]float64(nil), r.FrameDone...)
	sort.Float64s(times)
	if skip < 0 || len(times)-skip < 2 {
		skip = 0
	}
	if len(times) < 2 {
		return 0
	}
	times = times[skip:]
	return (times[len(times)-1] - times[0]) / float64(len(times)-1)
}

// AvgRender returns the mean rendering time of one renderer for one frame.
func (r *Result) AvgRender() float64 {
	if r.RenderOps == 0 {
		return 0
	}
	return r.RenderSec / float64(r.RenderOps)
}

// RenderImbalance returns max/mean of per-renderer busy time — 1.0 is a
// perfect balance; large values mean the block assignment left renderers
// idle.
//
//repro:allow deadexport: bench
func (r *Result) RenderImbalance() float64 {
	if len(r.RankRenderSec) == 0 {
		return 0
	}
	var sum, max float64
	for _, v := range r.RankRenderSec {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(r.RankRenderSec)))
}

// Pipeline wires a Workload onto a Layout.
type Pipeline struct {
	Layout Layout
	W      Workload
	Res    *Result

	// PrefetchDepth is how many timesteps ahead a renderer grants credits
	// (its receive-buffer depth). The paper's design double-buffers
	// (depth 1): step t+1 streams in while t renders, which is what caps
	// 1DIP at the per-step sending time Ts. Depth 0 disables overlap
	// entirely; larger depths trade memory for pipelining (see the
	// prefetch ablation in internal/experiments).
	PrefetchDepth int

	// Workers bounds the shared-memory parallelism an input rank uses to
	// build its per-renderer payloads before the (ordered) sends: 0 uses
	// runtime.NumCPU(), 1 builds serially. Message order and content are
	// unchanged either way.
	Workers int

	// tolerate is set when the workload opts into rank-loss degradation
	// (Options.Faults.Tolerate): a message from a peer the transport has
	// declared lost becomes an absent (zero) message feeding the
	// degraded-frame path, instead of killing this rank.
	tolerate bool
}

// defaultPrefetchDepth is the paper's double buffering: one step streams in
// while one renders.
const defaultPrefetchDepth = 1

// NewPipeline validates the layout and prepares a result sink.
func NewPipeline(l Layout, w Workload) (*Pipeline, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if err := checkTagSpace(w.Steps(), defaultPrefetchDepth); err != nil {
		return nil, err
	}
	// FrameDone and the per-renderer busy map are preallocated so the
	// per-step bookkeeping never grows them mid-run.
	res := &Result{
		FrameDone:     make([]float64, 0, w.Steps()),
		RankRenderSec: make(map[int]float64, l.Renderers),
	}
	// Fault-tolerant workloads account their retry/degrade events on the
	// run's Result; the hookup is by optional interface so the Workload
	// contract stays unchanged for workloads with nothing to report.
	if fw, ok := w.(interface{ attachResult(*Result) }); ok {
		fw.attachResult(res)
	}
	p := &Pipeline{Layout: l, W: w, Res: res, PrefetchDepth: defaultPrefetchDepth}
	// Rank-loss tolerance is likewise an optional workload property: a
	// workload running with Options.Faults.Tolerate reports it here and
	// the pipeline's receives degrade on ErrPeerLost instead of dying.
	if tw, ok := w.(interface{ tolerateRankLoss() bool }); ok {
		p.tolerate = tw.tolerateRankLoss()
	}
	return p, nil
}

// recvOr receives the (src, tag) message, degrading on peer loss when
// the workload tolerates it: a message from a lost rank comes back as a
// zero Message (nil Data) carrying only the envelope, which the
// workload's stage hooks treat as an absent piece. Without tolerance,
// loss propagates as the receive error.
func (p *Pipeline) recvOr(c *mpi.Comm, src, tag int) (mpi.Message, error) {
	m, err := c.RecvErr(src, tag)
	if err != nil {
		if p.tolerate && errors.Is(err, mpi.ErrPeerLost) {
			return mpi.Message{Src: src, Tag: tag}, nil
		}
		return mpi.Message{}, err
	}
	return m, nil
}

// Run executes this rank's role; call from every rank of the world.
func (p *Pipeline) Run(c *mpi.Comm) error {
	if c.Size() != p.Layout.WorldSize() {
		return fmt.Errorf("core: world has %d ranks, layout needs %d", c.Size(), p.Layout.WorldSize())
	}
	// PrefetchDepth is set after NewPipeline, so the layout is re-checked here.
	if err := checkTagSpace(p.W.Steps(), p.PrefetchDepth); err != nil {
		return err
	}
	switch {
	case c.Rank() < p.Layout.NumInput():
		return p.runInput(c)
	case c.Rank() < p.Layout.NumInput()+p.Layout.Renderers:
		return p.runRenderer(c)
	default:
		return p.runOutput(c)
	}
}

// RunReal runs the pipeline in this process — one goroutine per rank of the
// layout over the wall-clock transport (mpi.RunReal), each executing Run —
// and returns the elapsed wall time in seconds and the first error a rank
// reported.
func (p *Pipeline) RunReal() (elapsed float64, err error) {
	var first sync.Once
	elapsed = mpi.RunReal(p.Layout.WorldSize(), func(c *mpi.Comm) {
		if rerr := p.Run(c); rerr != nil {
			first.Do(func() { err = rerr })
		}
	})
	return elapsed, err
}

// runInput is the input-processor loop: fetch, preprocess, wait for
// renderer credits (double buffering), distribute, optionally ship LIC.
func (p *Pipeline) runInput(c *mpi.Comm) error {
	l := p.Layout
	i := c.Rank()
	g := i / l.IPsPerGroup
	part := i % l.IPsPerGroup
	m := l.IPsPerGroup
	steps := p.W.Steps()
	// Per-step payload staging, reused across this rank's timesteps.
	bytes := make([]int64, l.Renderers)
	data := make([]any, l.Renderers)
	// Payload-build parallelism: constant across steps, so the worker pool
	// and the build closure are created once and every step's fan-out is a
	// pool dispatch, not `pw` goroutine spawns.
	pw := p.Workers
	if pw <= 0 {
		// All input ranks share one process under the mock MPI: split the
		// machine between them like the renderer side does.
		pw = runtime.NumCPU() / l.NumInput()
		if pw < 1 {
			pw = 1
		}
	}
	if pw > l.Renderers {
		pw = l.Renderers
	}
	var wp *workers.Pool
	var curT int
	var curPrep any
	build := func(r int) { bytes[r], data[r] = p.W.PayloadFor(c, curT, curPrep, r) }
	if pw > 1 {
		wp = workers.New(pw)
		defer wp.Close()
	}
	for t := g; t < steps; t += l.Groups {
		t0 := c.Now()
		fetched, err := p.W.Fetch(c, t, part, m)
		if err != nil {
			return fmt.Errorf("core: input %d fetch step %d: %w", i, t, err)
		}
		t1 := c.Now()
		prep, err := p.W.Preprocess(c, t, part, m, fetched)
		if err != nil {
			return fmt.Errorf("core: input %d preprocess step %d: %w", i, t, err)
		}
		t2 := c.Now()
		// Credits: every renderer grants one credit per step to each IP of
		// the step's group; sending before the grant would overrun the
		// renderer's prefetch buffer. A lost renderer grants no more
		// credits — its absence stands in for the grant, and the data
		// send below is dropped by the transport.
		for r := 0; r < l.Renderers; r++ {
			if _, err := p.recvOr(c, l.RenderRank(r), tagCredit(t)); err != nil {
				return fmt.Errorf("core: input %d credit step %d: %w", i, t, err)
			}
		}
		t3 := c.Now()
		// Build every renderer's payload (concurrently when allowed: wp is
		// nil exactly when pw is 1, which Run executes inline), then send
		// in renderer order so the message stream is unchanged.
		curT, curPrep = t, prep
		wp.Run(pw, l.Renderers, build)
		for r := 0; r < l.Renderers; r++ {
			c.Send(l.RenderRank(r), tagData(t), bytes[r], data[r])
		}
		t4 := c.Now()
		if p.W.WantLIC() && part == 0 {
			bytes, data, err := p.W.LICPayload(c, t, prep)
			if err != nil {
				return fmt.Errorf("core: input %d lic step %d: %w", i, t, err)
			}
			c.Send(l.OutputRank(t), tagLIC(t), bytes, data)
		}
		p.Res.addInputStep(t1-t0, t2-t1, t3-t2, t4-t3)
	}
	return nil
}

// runRenderer is the rendering-processor loop: grant credits one step
// ahead, receive the m pieces, render, composite, ship the strip.
func (p *Pipeline) runRenderer(c *mpi.Comm) error {
	l := p.Layout
	r := c.Rank() - l.NumInput()
	steps := p.W.Steps()
	group := l.RenderRanks()
	// Group rank lists, computed once instead of per granted credit.
	groupRanks := make([][]int, l.Groups)
	for g := range groupRanks {
		groupRanks[g] = l.GroupRanks(g)
	}
	grant := func(t int) {
		if t >= steps {
			return
		}
		for _, ip := range groupRanks[t%l.Groups] {
			c.Send(ip, tagCredit(t), 1, nil)
		}
	}
	depth := p.PrefetchDepth
	if depth < 0 {
		depth = 0
	}
	// Prime the pipeline: with buffer depth D, steps [0, D) may stream in
	// before any rendering happens.
	for t := 0; t < depth && t < steps; t++ {
		grant(t)
	}
	pieces := make([]mpi.Message, l.IPsPerGroup)
	for t := 0; t < steps; t++ {
		if depth == 0 {
			grant(t) // no buffering: admit a step only when ready for it
		}
		// One piece per IP of the step's group, received by source rank
		// so a lost input yields exactly its own absent piece (the
		// workload renders the rest and degrades the frame).
		for k, ip := range groupRanks[t%l.Groups] {
			var err error
			if pieces[k], err = p.recvOr(c, ip, tagData(t)); err != nil {
				return fmt.Errorf("core: renderer %d data step %d: %w", r, t, err)
			}
		}
		// Buffered prefetch: step t+depth may stream in while we render t.
		if depth > 0 {
			grant(t + depth)
		}
		t0 := c.Now()
		rendered, err := p.W.Render(c, t, r, pieces)
		if err != nil {
			return fmt.Errorf("core: renderer %d step %d: %w", r, t, err)
		}
		t1 := c.Now()
		bytes, strip, err := p.W.Composite(c, t, r, group, rendered)
		if err != nil {
			return fmt.Errorf("core: renderer %d composite step %d: %w", r, t, err)
		}
		t2 := c.Now()
		c.Send(l.OutputRank(t), tagStrip(t), bytes, strip)
		// Nothing holds a renderer back from the next step, so where ranks
		// share Ps, let the output rank run now: otherwise the strips (and
		// the buffers behind them) pile up in its mailbox for as long as
		// the renderers keep the Ps busy.
		runtime.Gosched()
		p.Res.addRenderStep(r, t1-t0, t2-t1)
	}
	return nil
}

// runOutput is the output-processor loop: collect strips (and LIC),
// assemble, and record the frame completion time.
func (p *Pipeline) runOutput(c *mpi.Comm) error {
	l := p.Layout
	o := c.Rank() - l.NumInput() - l.Renderers
	steps := p.W.Steps()
	strips := make([]mpi.Message, l.Renderers)
	for t := o; t < steps; t += l.Outputs {
		// Strips are received by renderer rank so a lost renderer leaves
		// exactly its own slot absent; Assemble fills the gap and marks
		// the frame degraded.
		for k := 0; k < l.Renderers; k++ {
			msg, err := p.recvOr(c, l.RenderRank(k), tagStrip(t))
			if err != nil {
				return fmt.Errorf("core: output %d strip step %d: %w", o, t, err)
			}
			strips[k] = msg
		}
		var lic *mpi.Message
		if p.W.WantLIC() {
			m, err := p.recvOr(c, l.GroupRanks(t % l.Groups)[0], tagLIC(t))
			if err != nil {
				return fmt.Errorf("core: output %d lic step %d: %w", o, t, err)
			}
			lic = &m
		}
		if err := p.W.Assemble(c, t, strips, lic); err != nil {
			return fmt.Errorf("core: output %d step %d: %w", o, t, err)
		}
		p.Res.addFrame(c.Now())
	}
	return nil
}

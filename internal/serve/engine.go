package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/pfs"
	"repro/internal/render"
)

// EngineConfig configures an Engine. The zero value serves: a 1-rank-per-
// role layout, a 64 MiB cache, four idle sessions kept warm, and 32-step
// render windows.
type EngineConfig struct {
	// Layout is the pipeline layout each session runs; the zero value
	// means one rank per role (Groups=IPsPerGroup=Renderers=Outputs=1).
	// Frames are bit-identical across layouts (pinned by the core suite),
	// so serving with a small layout matches any batch render.
	Layout core.Layout
	// CacheBytes bounds the frame cache (0 = 64 MiB, negative disables).
	CacheBytes int64
	// MaxSessions bounds the idle-session pool (0 = 4). Any idle session
	// serves any request (it is re-aimed, not matched), so the useful
	// bound is the number of concurrent renders, not of distinct views.
	// Sessions in use by concurrent requests are not counted; admission
	// control (Server) bounds those.
	MaxSessions int
	// MaxWindow bounds the steps of one render call (0 = 32): both the
	// largest request range and the pipeline window a cold render runs.
	MaxWindow int
	// Enhancement, Lighting and Workers are engine-wide render options,
	// identical for every session (and therefore excluded from cache
	// keys).
	Enhancement bool
	// Lighting enables gradient Phong lighting in every session.
	Lighting bool
	// Workers bounds each rank's shared-memory render parallelism
	// (core.Options.Workers).
	Workers int
	// FixedVMax pins the quantization range; 0 scans the dataset once at
	// engine construction. Either way every session quantizes with the
	// same range, so cached and fresh frames are interchangeable.
	FixedVMax float32
	// Tolerate enables degraded-mode fault tolerance (docs/faults.md):
	// failed reads serve stale data and mark the frame instead of
	// failing the request. Degraded frames are never cached.
	Tolerate bool
}

// Engine owns a dataset and renders frame requests through pooled
// per-session pipeline instances, filling the frame cache. It is safe
// for concurrent use: the dataset half (core.Dataset: mesh, block tables,
// quantization range) is built once and shared read-only; each in-flight
// render exclusively owns one session (a core.RealWorkload with private
// view tables, scratches, worker pools and frame ring), and the cache
// deals only in owned copies.
type Engine struct {
	ds    *core.Dataset
	opts  core.Options // engine-wide session options; acquire fills in the request's view fields
	cfg   EngineConfig
	cache *FrameCache

	mu     sync.Mutex
	idle   []*session // oldest first; evicted from the front
	closed bool

	rendered atomic.Uint64 // frames produced by pipeline runs
	sessions atomic.Uint64 // sessions ever built (cold starts)
}

// session is one exclusively-owned rendering instance: a workload whose
// view tables, scratches, pools and frame ring belong to whichever
// request holds it.
type session struct {
	w *core.RealWorkload
}

// NewEngine builds the shared dataset half — mesh, block tables, and the
// quantization range (one full-dataset scan unless cfg.FixedVMax pins
// it) — and returns an Engine ready to serve. Sessions are built lazily,
// one per concurrent render.
func NewEngine(store pfs.Store, cfg EngineConfig) (*Engine, error) {
	if cfg.Layout == (core.Layout{}) {
		cfg.Layout = core.Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 4
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 32
	}
	o := core.DefaultOptions(0, 0)
	o.Enhancement = cfg.Enhancement
	o.Lighting = cfg.Lighting
	o.Workers = cfg.Workers
	o.FixedVMax = cfg.FixedVMax
	o.Faults.Tolerate = cfg.Tolerate
	ds, err := core.NewDataset(cfg.Layout, o, store)
	if err != nil {
		return nil, fmt.Errorf("serve: building dataset: %w", err)
	}
	return &Engine{ds: ds, opts: o, cfg: cfg, cache: NewFrameCache(cfg.CacheBytes)}, nil
}

// Steps returns the dataset's timestep count (valid request steps are
// [0, Steps)).
func (e *Engine) Steps() int { return e.ds.NumSteps() }

// MaxWindow returns the largest step range one request may ask for.
func (e *Engine) MaxWindow() int { return e.cfg.MaxWindow }

// VMax returns the engine-wide quantization range every session uses.
func (e *Engine) VMax() float32 { return e.ds.VMax() }

// Cache exposes the frame cache (for stats and tests).
func (e *Engine) Cache() *FrameCache { return e.cache }

// view is the camera cfg asks for.
func view(cfg RenderConfig) render.View {
	if cfg.Orbit {
		return render.OrbitView(cfg.Width, cfg.Height, cfg.Az, cfg.El)
	}
	return render.DefaultView(cfg.Width, cfg.Height)
}

// acquire hands the caller an exclusively-owned session aimed at cfg: the
// most recently parked idle session, re-aimed (any session serves any
// view — only its view tables are recomputed, its buffers stay warm), or,
// when none is idle, a new one built on the shared dataset.
func (e *Engine) acquire(cfg RenderConfig) (*session, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("serve: engine closed")
	}
	var s *session
	if n := len(e.idle); n > 0 {
		s, e.idle = e.idle[n-1], e.idle[:n-1]
	}
	e.mu.Unlock()
	if s != nil {
		s.w.SetView(cfg.Width, cfg.Height, view(cfg), cfg.TF)
		return s, nil
	}
	o := e.opts
	o.Width, o.Height, o.View, o.TFName = cfg.Width, cfg.Height, view(cfg), cfg.TF
	w, err := e.ds.NewWorkload(o)
	if err != nil {
		return nil, fmt.Errorf("serve: building session: %w", err)
	}
	e.sessions.Add(1)
	return &session{w: w}, nil
}

// release parks a session for reuse, evicting the least recently used
// idle session past the pool bound (its worker pools are shut down).
// Sessions whose render failed are discarded instead (see discard).
func (e *Engine) release(s *session) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		s.w.Close()
		return
	}
	e.idle = append(e.idle, s)
	var victim *session
	if len(e.idle) > e.cfg.MaxSessions {
		victim = e.idle[0]
		e.idle = e.idle[1:]
	}
	e.mu.Unlock()
	if victim != nil {
		victim.w.Close()
	}
}

// discard closes a session whose pipeline run failed: a mid-run abort
// leaves workload state undefined, so it never returns to the pool.
func (e *Engine) discard(s *session) { s.w.Close() }

// IdleSessions returns the pooled-session count (for stats).
func (e *Engine) IdleSessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.idle)
}

// RenderedFrames returns the number of frames produced by pipeline runs
// (cache hits excluded) since construction.
func (e *Engine) RenderedFrames() uint64 { return e.rendered.Load() }

// ColdSessions returns how many sessions were ever built (cold starts):
// the peak number of concurrent renders, plus any rebuilt after a failed
// run or an idle-pool eviction.
func (e *Engine) ColdSessions() uint64 { return e.sessions.Load() }

// Close shuts down every idle session's worker pools and refuses further
// renders. The caller must drain in-flight renders first (the Server's
// Shutdown does).
func (e *Engine) Close() {
	e.mu.Lock()
	idle := e.idle
	e.idle = nil
	e.closed = true
	e.mu.Unlock()
	for _, s := range idle {
		s.w.Close()
	}
}

// CachedInto serves step from the cache into the caller-owned dst,
// bypassing sessions and admission entirely. This is the warm path the
// load suite pins at zero allocations per hit (dst reuse makes the copy
// in-place).
func (e *Engine) CachedInto(cfg RenderConfig, step int, dst *img.Image) bool {
	return e.cache.GetInto(FrameKey{Cfg: cfg, Step: step}, dst)
}

// Render produces frames for dataset steps [lo, hi) under cfg and hands
// each to visit in step order. Cached steps are copied into scratch
// (caller-owned, reused across hits) and visited with cached=true;
// contiguous runs of missing steps are rendered by an exclusively-owned
// session in one pipeline window each, cached (unless degraded), and
// visited directly from the session's frame ring before release.
//
// The *img.Image passed to visit is only valid for the duration of the
// call — implementations copy or encode, never retain. A visit error
// aborts the remaining steps and is returned as-is.
func (e *Engine) Render(cfg RenderConfig, lo, hi int, scratch *img.Image, visit func(step int, frame *img.Image, degraded, cached bool) error) error {
	if lo < 0 || hi <= lo || hi > e.ds.NumSteps() {
		return fmt.Errorf("serve: step range [%d, %d) outside dataset steps [0, %d)", lo, hi, e.ds.NumSteps())
	}
	if hi-lo > e.cfg.MaxWindow {
		return fmt.Errorf("serve: step range [%d, %d) exceeds the %d-step window bound", lo, hi, e.cfg.MaxWindow)
	}
	for step := lo; step < hi; {
		if e.cache.GetInto(FrameKey{Cfg: cfg, Step: step}, scratch) {
			if err := visit(step, scratch, false, true); err != nil {
				return err
			}
			step++
			continue
		}
		segHi := step + 1
		for segHi < hi && !e.cache.Contains(FrameKey{Cfg: cfg, Step: segHi}) {
			segHi++
		}
		if err := e.renderSegment(cfg, step, segHi, visit); err != nil {
			return err
		}
		step = segHi
	}
	return nil
}

// renderSegment renders the contiguous missing steps [lo, hi) with one
// session window: cache-fill happens by copy while the frame is still
// owned by the session's ring, then the canvas goes straight back to the
// ring (the copy-out-or-release contract).
func (e *Engine) renderSegment(cfg RenderConfig, lo, hi int, visit func(int, *img.Image, bool, bool) error) error {
	s, err := e.acquire(cfg)
	if err != nil {
		return err
	}
	if err := s.run(e.cfg.Layout, lo, hi); err != nil {
		e.discard(s)
		return err
	}
	for i := 0; i < hi-lo; i++ {
		step := lo + i
		frame := s.w.Frame(i)
		if frame == nil {
			e.discard(s)
			return fmt.Errorf("serve: step %d produced no frame", step)
		}
		e.rendered.Add(1)
		degraded := s.w.FrameDegraded(i)
		if !degraded {
			e.cache.Put(FrameKey{Cfg: cfg, Step: step}, frame)
		}
		err := visit(step, frame, degraded, false)
		s.w.ReleaseFrame(i)
		if err != nil {
			// Remaining frames stay on the workload; the next
			// SetStepWindow (or Close) recycles them.
			e.release(s)
			return err
		}
	}
	e.release(s)
	return nil
}

// run aims the session's workload at dataset steps [lo, hi) and executes
// one pipeline run over its layout.
func (s *session) run(l core.Layout, lo, hi int) error {
	if err := s.w.SetStepWindow(lo, hi); err != nil {
		return err
	}
	p, err := core.NewPipeline(l, s.w)
	if err != nil {
		return err
	}
	_, err = p.RunReal()
	return err
}

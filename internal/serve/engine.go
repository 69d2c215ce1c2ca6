package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/pfs"
	"repro/internal/pool"
	"repro/internal/render"
)

// EngineConfig configures an Engine. The zero value serves: a 1-rank-per-
// role layout, a 64 MiB cache and 32-step render windows. How many
// threads a session's ranks fan out to is not a setting: each role splits
// GOMAXPROCS between its ranks (workers.Width), so a 1-rank-per-role
// session renders at the process's full width.
type EngineConfig struct {
	// Layout is the pipeline layout each session runs; the zero value
	// means one rank per role (Groups=IPsPerGroup=Renderers=Outputs=1).
	// Frames are bit-identical across layouts (pinned by the core suite),
	// so serving with a small layout matches any batch render.
	Layout core.Layout
	// CacheBytes bounds the frame cache (0 = 64 MiB, negative disables).
	CacheBytes int64
	// MaxWindow bounds the steps of one render call (0 = 32): both the
	// largest request range and the pipeline window a cold render runs.
	MaxWindow int
	// Enhancement and Lighting are engine-wide render options, identical
	// for every session (and therefore excluded from cache keys).
	Enhancement bool
	// Lighting enables gradient Phong lighting in every session.
	Lighting bool
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
// holds wire bodies it encoded itself, handed out pinned.
type Engine struct {
	ds    *core.Dataset // holds the engine-wide session options; a session adds the request's view
	cfg   EngineConfig
	cache *FrameCache
	wire  pool.Pool[[]byte] // encodings of rendered frames the cache does not hold

	mu     sync.Mutex
	idle   []*core.RealWorkload // idle sessions, most recently released last
	closed bool

	rendered atomic.Uint64 // frames produced by pipeline runs
	sessions atomic.Uint64 // sessions ever built (cold starts)
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
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 32
	}
	o := core.DefaultOptions(0, 0)
	o.Enhancement = cfg.Enhancement
	o.Lighting = cfg.Lighting
	o.FixedVMax = cfg.FixedVMax
	o.Faults.Tolerate = cfg.Tolerate
	ds, err := core.NewDataset(cfg.Layout, o, store)
	if err != nil {
		return nil, fmt.Errorf("serve: building dataset: %w", err)
	}
	return &Engine{ds: ds, cfg: cfg, cache: NewFrameCache(cfg.CacheBytes)}, nil
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

// acquire hands the caller an exclusively-owned session — a workload whose
// view tables, scratches, pools and frame ring belong to whichever request
// holds it — aimed at cfg: the most recently parked idle session, re-aimed
// (any session serves any view — only its view tables are recomputed, its
// buffers stay warm), or, when none is idle, a new one built on the shared
// dataset.
func (e *Engine) acquire(cfg RenderConfig) (*core.RealWorkload, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("serve: engine closed")
	}
	var w *core.RealWorkload
	if n := len(e.idle); n > 0 {
		w, e.idle = e.idle[n-1], e.idle[:n-1]
	}
	e.mu.Unlock()
	if w != nil {
		w.SetView(cfg.Width, cfg.Height, view(cfg), cfg.TF)
		return w, nil
	}
	e.sessions.Add(1)
	return e.ds.NewWorkload(cfg.Width, cfg.Height, view(cfg), cfg.TF), nil
}

// release parks a session for reuse. Sessions are built only when every
// parked one is rendering, so the pool never holds more than the peak
// number of concurrent renders, which admission control (Server) bounds.
// Sessions whose render failed are discarded instead (see discard).
func (e *Engine) release(w *core.RealWorkload) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		w.Close()
		return
	}
	e.idle = append(e.idle, w)
	e.mu.Unlock()
}

// discard closes a session whose pipeline run failed: a mid-run abort
// leaves workload state undefined, so it never returns to the pool.
func (e *Engine) discard(w *core.RealWorkload) { w.Close() }

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
	for _, w := range idle {
		w.Close()
	}
}

// CachedInto decodes step's cached wire body into the caller-owned dst,
// bypassing sessions and admission entirely: the PNG hit path. A reused,
// right-sized dst makes it allocation-free, which the load suite pins.
//
//repro:allocfree
func (e *Engine) CachedInto(cfg RenderConfig, step int, dst *img.Image) bool {
	f := e.cache.Pin(FrameKey{Cfg: cfg, Step: step})
	if f == nil {
		return false
	}
	_, _, _, err := decodeWireInto(f.body, dst)
	e.cache.Release(f)
	return err == nil
}

// Render produces the wire frames of dataset steps [lo, hi) under cfg and
// hands each to visit in step order, with its degraded flag. A cached
// step's body is its cache entry, pinned for the visit. Contiguous runs
// of missing steps are rendered by an exclusively-owned session in one
// pipeline window each, and each frame is encoded exactly once: into the
// cache entry it fills, or, when degraded (never cached) or refused by
// the cache, into a pooled buffer.
//
// The body passed to visit is only valid for the duration of the call —
// implementations write or decode it, never retain it. A visit error
// aborts the remaining steps and is returned as-is. Every step's cache
// lookup is counted once, hit or miss.
func (e *Engine) Render(cfg RenderConfig, lo, hi int, visit func(step int, body []byte, degraded bool) error) error {
	return e.render(cfg, lo, hi, false, visit)
}

// render is Render for a caller that may already have counted step lo's
// lookup (counted): that step is re-checked, since it may have been
// filled while the caller waited for admission, without counting again.
func (e *Engine) render(cfg RenderConfig, lo, hi int, counted bool, visit func(int, []byte, bool) error) error {
	if lo < 0 || hi <= lo || hi > e.ds.NumSteps() {
		return fmt.Errorf("serve: step range [%d, %d) outside dataset steps [0, %d)", lo, hi, e.ds.NumSteps())
	}
	if hi-lo > e.cfg.MaxWindow {
		return fmt.Errorf("serve: step range [%d, %d) exceeds the %d-step window bound", lo, hi, e.cfg.MaxWindow)
	}
	for step := lo; step < hi; {
		if f := e.cache.pin(FrameKey{Cfg: cfg, Step: step}, !counted || step != lo); f != nil {
			err := visit(step, f.body, false)
			e.cache.Release(f)
			if err != nil {
				return err
			}
			step++
			continue
		}
		segHi := step + 1
		for segHi < hi && e.cache.missing(FrameKey{Cfg: cfg, Step: segHi}) {
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
// session window. Each frame is encoded once (encode) while the session's
// ring still owns it, then the canvas goes straight back to the ring (the
// copy-out-or-release contract). An encoding needs nothing of the
// session, so the last frame is visited with the session already parked:
// a client that reads the response and asks again finds it idle.
func (e *Engine) renderSegment(cfg RenderConfig, lo, hi int, visit func(int, []byte, bool) error) error {
	w, err := e.acquire(cfg)
	if err != nil {
		return err
	}
	if err := run(w, e.cfg.Layout, lo, hi); err != nil {
		e.discard(w)
		return err
	}
	for step := lo; step < hi; step++ {
		i := step - lo
		frame := w.Frame(i)
		if frame == nil {
			e.discard(w)
			return fmt.Errorf("serve: step %d produced no frame", step)
		}
		e.rendered.Add(1)
		degraded := w.FrameDegraded(i)
		f, buf := e.encode(FrameKey{Cfg: cfg, Step: step}, frame, degraded)
		w.ReleaseFrame(i)
		last := step == hi-1
		if last {
			e.release(w)
		}
		if f != nil {
			err = visit(step, f.body, false)
			e.cache.Release(f)
		} else {
			err = visit(step, *buf, degraded)
			e.wire.Put(buf)
		}
		if err != nil {
			if !last {
				// Remaining frames stay on the workload; the next
				// SetStepWindow (or Close) recycles them.
				e.release(w)
			}
			return err
		}
	}
	return nil
}

// encode encodes a rendered frame once: a clean frame into the cache
// entry its Put fills, returned pinned; a degraded one (never cached), or
// one the cache refuses, into a pooled buffer, with its flag.
func (e *Engine) encode(k FrameKey, frame *img.Image, degraded bool) (*CachedFrame, *[]byte) {
	if !degraded {
		if f := e.cache.Put(k, frame); f != nil {
			return f, nil
		}
	}
	buf := e.wire.Get()
	*buf = EncodeWireFrameInto(*buf, k.Step, frame, degraded)
	return nil, buf
}

// run aims a session's workload at dataset steps [lo, hi) and executes
// one pipeline run over layout l.
func run(w *core.RealWorkload, l core.Layout, lo, hi int) error {
	if err := w.SetStepWindow(lo, hi); err != nil {
		return err
	}
	p, err := core.NewPipeline(l, w)
	if err != nil {
		return err
	}
	_, err = p.RunReal()
	return err
}

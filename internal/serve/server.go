package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/img"
	"repro/internal/pool"
)

// Response marker headers (docs/serve.md). HeaderCache reports "hit" or
// "miss" for single-frame responses; HeaderDegraded marks frames built
// from degraded input ("stale"); HeaderStep echoes the served step; the
// view/TF hash headers identify which cache lineage served the frame.
const (
	// HeaderCache is "hit" when the frame came from the cache, "miss"
	// when it was rendered for this request.
	HeaderCache = "X-Quakeserve-Cache"
	// HeaderDegraded is "stale" on frames built from degraded input
	// (never cached; see docs/faults.md).
	HeaderDegraded = "X-Quakeserve-Degraded"
	// HeaderStep echoes the dataset timestep of a single-frame response.
	HeaderStep = "X-Quakeserve-Step"
	// HeaderViewHash and HeaderTFHash identify the request's view and
	// transfer-function lineage (display hashes, not cache keys).
	HeaderViewHash = "X-Quakeserve-View"
	// HeaderTFHash is the transfer-function display hash.
	HeaderTFHash = "X-Quakeserve-TF"
	// HeaderWidth and HeaderHeight carry the frame geometry of a raw
	// single-frame response body.
	HeaderWidth = "X-Quakeserve-Width"
	// HeaderHeight is the raw response body's frame height.
	HeaderHeight = "X-Quakeserve-Height"
)

// ServerConfig tunes the HTTP layer. The zero value serves: 2 in-flight
// renders, an 8-deep queue, a 2 s queue timeout.
type ServerConfig struct {
	// MaxInFlight bounds concurrent render executions (0 = 2). Size it
	// to the worker pools: each in-flight render owns a session whose
	// ranks split the machine.
	MaxInFlight int
	// MaxQueue bounds renders waiting for an in-flight slot (0 = 8,
	// negative = no queue: shed immediately when saturated).
	MaxQueue int
	// QueueTimeout is how long a queued render waits for a slot before
	// being shed with 429 (0 = 2 s).
	QueueTimeout time.Duration
}

// Server is the HTTP frame service over an Engine: GET /frame (single
// frame), GET /frames (chunked stream over a step range), /healthz and
// /statsz. Requests that can be answered from the frame cache bypass
// admission entirely; renders pass through the bounded in-flight +
// queue admission control and are shed with 429 (saturation) or 503
// (draining). Shutdown stops admitting, drains in-flight work, then
// closes the engine.
type Server struct {
	eng *Engine
	cfg ServerConfig
	mux *http.ServeMux

	tokens   chan struct{} // in-flight slots
	queue    chan struct{} // waiting slots
	draining atomic.Bool
	wg       sync.WaitGroup
	start    time.Time

	shed   atomic.Uint64
	served atomic.Uint64

	frames pool.Pool[img.Image] // PNG canvases: wire bodies decode into them
}

// NewServer wires a Server over eng. The engine is owned by the server
// from here on: Shutdown closes it.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 8
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	s := &Server{
		eng:    eng,
		cfg:    cfg,
		mux:    http.NewServeMux(),
		tokens: make(chan struct{}, cfg.MaxInFlight),
		queue:  make(chan struct{}, cfg.MaxQueue),
		start:  time.Now(),
	}
	s.mux.HandleFunc("GET /frame", s.handleFrame)
	s.mux.HandleFunc("POST /frame", s.handleFrame)
	s.mux.HandleFunc("GET /frames", s.handleFrames)
	s.mux.HandleFunc("POST /frames", s.handleFrames)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: new renders are refused with 503, in-
// flight renders finish (or ctx expires), then the engine's sessions are
// closed. Safe to call once; /healthz reports draining immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.eng.Close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errShed and errDraining classify admission refusals.
var (
	errShed     = fmt.Errorf("serve: render capacity saturated")
	errDraining = fmt.Errorf("serve: server draining")
)

// admit claims an in-flight render slot, waiting in the bounded queue up
// to the queue timeout. It returns a release func on success, or
// errShed/errDraining (mapped to 429/503 by the handlers).
func (s *Server) admit(ctx context.Context) (func(), error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	select {
	case s.tokens <- struct{}{}:
		return func() { <-s.tokens }, nil
	default:
	}
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		return nil, errShed
	}
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.tokens <- struct{}{}:
		if s.draining.Load() {
			<-s.tokens
			return nil, errDraining
		}
		return func() { <-s.tokens }, nil
	case <-timer.C:
		return nil, errShed
	case <-ctx.Done():
		return nil, errShed
	}
}

// decodeRequest parses the request's query string (GET) or JSON body
// (POST) under the given range bound.
func (s *Server) decodeRequest(r *http.Request, maxRange int) (Request, error) {
	lim := Limits{Steps: s.eng.Steps(), MaxRange: maxRange}
	if r.Method == http.MethodPost {
		body, err := io.ReadAll(io.LimitReader(r.Body, MaxRawRequestLen+1))
		if err != nil {
			return Request{}, fmt.Errorf("serve: reading body: %w", err)
		}
		return ParseJSONBody(body, lim)
	}
	return ParseQuery(r.URL.RawQuery, lim)
}

// shedError maps an admission refusal onto its HTTP status (503 while
// draining, 429 for saturation) and counts the shed request.
func (s *Server) shedError(w http.ResponseWriter, err error) {
	s.shed.Add(1)
	switch err {
	case errDraining:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, errShed.Error(), http.StatusTooManyRequests)
	}
}

// setFrameHeaders writes the marker headers common to every frame
// response.
func setFrameHeaders(w http.ResponseWriter, req Request) {
	h := w.Header()
	h.Set(HeaderViewHash, strconv.FormatUint(req.Cfg.ViewHash(), 16))
	h.Set(HeaderTFHash, strconv.FormatUint(req.Cfg.TFHash(), 16))
}

// handleFrame serves one frame with one counted cache lookup: hits bypass
// admission — a FormatRaw hit writes the pinned cache entry itself, a
// FormatPNG hit decodes it into a pooled canvas — and misses render
// through an admitted session. FormatRaw bodies are one wire frame;
// FormatPNG is a tone-mapped PNG.
func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(r, 1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	setFrameHeaders(w, req)
	asPNG := req.Format == FormatPNG
	var frame *img.Image
	if asPNG {
		frame = s.frames.Get()
		defer s.frames.Put(frame)
		if s.eng.CachedInto(req.Cfg, req.Lo, frame) {
			s.writeSingleFrame(w, req, nil, frame, false, true)
			return
		}
	} else if f := s.eng.Cache().Pin(FrameKey{Cfg: req.Cfg, Step: req.Lo}); f != nil {
		s.writeSingleFrame(w, req, f.Body(), nil, false, true)
		s.eng.Cache().Release(f)
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.shedError(w, err)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	defer release()
	err = s.eng.render(req.Cfg, req.Lo, req.Hi, true, func(_ int, body []byte, degraded bool) error {
		if asPNG {
			if _, _, _, err := decodeWireInto(body, frame); err != nil {
				return err
			}
		}
		s.writeSingleFrame(w, req, body, frame, degraded, false)
		return nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeSingleFrame writes one frame response: the wire body for
// FormatRaw, frame (the body decoded) as a PNG for FormatPNG.
func (s *Server) writeSingleFrame(w http.ResponseWriter, req Request, body []byte, frame *img.Image, degraded, cached bool) {
	h := w.Header()
	if cached {
		h.Set(HeaderCache, "hit")
	} else {
		h.Set(HeaderCache, "miss")
	}
	if degraded {
		h.Set(HeaderDegraded, "stale")
	}
	h.Set(HeaderStep, strconv.Itoa(req.Lo))
	s.served.Add(1)
	if req.Format == FormatPNG {
		h.Set("Content-Type", "image/png")
		if err := frame.WritePNG(w); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
		return
	}
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderWidth, strconv.Itoa(req.Cfg.Width))
	h.Set(HeaderHeight, strconv.Itoa(req.Cfg.Height))
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// handleFrames streams a step range as concatenated wire frames,
// flushing after each so viewers render progressively. PNG format is
// rejected here (one body, many frames).
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(r, s.eng.MaxWindow())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Format == FormatPNG {
		http.Error(w, "serve: png is single-frame only; use format=raw on /frames", http.StatusBadRequest)
		return
	}
	setFrameHeaders(w, req)

	allCached := true
	for step := req.Lo; step < req.Hi; step++ {
		if !s.eng.Cache().Contains(FrameKey{Cfg: req.Cfg, Step: step}) {
			allCached = false
			break
		}
	}
	release := func() {}
	if !allCached {
		rel, err := s.admit(r.Context())
		if err != nil {
			s.shedError(w, err)
			return
		}
		release = rel
	}
	s.wg.Add(1)
	defer s.wg.Done()
	defer release()

	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	err = s.eng.Render(req.Cfg, req.Lo, req.Hi, func(_ int, body []byte, _ bool) error {
		if _, err := w.Write(body); err != nil {
			return err
		}
		s.served.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// Mid-stream failure: the status line is already out; nothing
		// to signal beyond truncating the stream.
		return
	}
}

// handleHealthz reports liveness: 200 "ok" while serving, 503
// "draining" once shutdown began.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// Stats is the /statsz payload: cache counters plus serving-side
// admission and throughput counters.
type Stats struct {
	// UptimeSec is seconds since the server was built.
	UptimeSec float64 `json:"uptime_sec"`
	// Cache is the frame-cache snapshot.
	Cache CacheStats `json:"cache"`
	// CacheHitRate is Cache's hit fraction, precomputed for dashboards.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// InFlight is the number of renders currently holding a slot.
	InFlight int `json:"in_flight"`
	// Queued is the number of renders waiting for a slot.
	Queued int `json:"queued"`
	// Shed counts requests refused by admission control (429s).
	Shed uint64 `json:"shed"`
	// ServedFrames counts frames written to responses (hits + renders).
	ServedFrames uint64 `json:"served_frames"`
	// RenderedFrames counts frames produced by pipeline runs.
	RenderedFrames uint64 `json:"rendered_frames"`
	// RendersPerSec is RenderedFrames / UptimeSec.
	RendersPerSec float64 `json:"renders_per_sec"`
	// IdleSessions and ColdSessions describe the session pool.
	IdleSessions int `json:"idle_sessions"`
	// ColdSessions counts sessions ever built.
	ColdSessions uint64 `json:"cold_sessions"`
	// Draining is true once shutdown began.
	Draining bool `json:"draining"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	cs := s.eng.Cache().Stats()
	up := time.Since(s.start).Seconds()
	st := Stats{
		UptimeSec:      up,
		Cache:          cs,
		CacheHitRate:   cs.HitRate(),
		InFlight:       len(s.tokens),
		Queued:         len(s.queue),
		Shed:           s.shed.Load(),
		ServedFrames:   s.served.Load(),
		RenderedFrames: s.eng.RenderedFrames(),
		IdleSessions:   s.eng.IdleSessions(),
		ColdSessions:   s.eng.ColdSessions(),
		Draining:       s.draining.Load(),
	}
	if up > 0 {
		st.RendersPerSec = float64(st.RenderedFrames) / up
	}
	return st
}

// handleStatsz serves the JSON stats snapshot.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

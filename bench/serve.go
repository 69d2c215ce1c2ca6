package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/render"
	"repro/internal/serve"
)

// serveSystem is the real stack as cmd/quakeserve wires it, with default
// engine and server configs, behind a real loopback listener.
type serveSystem struct {
	eng     *serve.Engine
	srv     *serve.Server
	httpSrv *http.Server
	done    chan error
	base    string
	built   time.Time // when construction started
	engineS float64   // seconds NewEngine took (includes the vmax scan)
}

func newServeSystem(store pfs.Store) (*serveSystem, error) {
	s := &serveSystem{built: time.Now(), done: make(chan error, 1)}
	eng, err := serve.NewEngine(store, serve.EngineConfig{})
	if err != nil {
		return nil, err
	}
	s.engineS = time.Since(s.built).Seconds()
	s.eng = eng
	s.srv = serve.NewServer(eng, serve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.srv}
	go func() { s.done <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// close drains the server the way quakeserve does on SIGTERM and waits
// for the listener goroutine to end.
func (s *serveSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fatalf("draining server: %v", err)
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		fatalf("closing listener: %v", err)
	}
	<-s.done
}

// frameReq is one GET /frame: an orbit view and a step.
type frameReq struct {
	cfg  serve.RenderConfig
	step int
}

func (r frameReq) url(base string) string {
	return base + "/frame?format=raw&view=orbit&step=" + strconv.Itoa(r.step) +
		"&w=" + strconv.Itoa(r.cfg.Width) + "&h=" + strconv.Itoa(r.cfg.Height) +
		"&az=" + strconv.FormatFloat(r.cfg.Az, 'g', -1, 64) + "&el=" + strconv.FormatFloat(r.cfg.El, 'g', -1, 64)
}

// viewer is one closed-loop client: its own keep-alive connection and a
// reused body buffer.
type viewer struct {
	client *http.Client
	body   bytes.Buffer
}

func newViewer() *viewer {
	return &viewer{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}}
}

func (v *viewer) close() { v.client.CloseIdleConnections() }

// get sends the request and reads the whole body; the returned slice is
// valid until the viewer's next get. cache is the X-Quakeserve-Cache
// header and seconds the time from send to last body byte.
func (v *viewer) get(base string, r frameReq) (body []byte, cache string, status int, seconds float64, err error) {
	t0 := time.Now()
	resp, err := v.client.Get(r.url(base))
	if err != nil {
		return nil, "", 0, 0, err
	}
	v.body.Reset()
	_, err = io.Copy(&v.body, resp.Body)
	resp.Body.Close()
	seconds = time.Since(t0).Seconds()
	return v.body.Bytes(), resp.Header.Get(serve.HeaderCache), resp.StatusCode, seconds, err
}

// checkBody decodes a raw response and demands the requested step and
// size, undegraded.
func checkBody(body []byte, r frameReq) error {
	step, frame, degraded, rest, err := serve.DecodeWireFrame(body)
	switch {
	case err != nil:
		return err
	case step != r.step || frame.W != r.cfg.Width || frame.H != r.cfg.Height:
		return fmt.Errorf("got step %d %dx%d, asked for step %d %dx%d", step, frame.W, frame.H, r.step, r.cfg.Width, r.cfg.Height)
	case degraded:
		return fmt.Errorf("step %d came back degraded", step)
	case len(rest) != 0:
		return fmt.Errorf("%d bytes after the frame", len(rest))
	}
	return nil
}

// directBodies renders dataset steps [lo, hi) of cfg with a batch
// pipeline on a layout the engine does not use, with the engine's options
// (orbit view, transfer function, its quantization range), and returns
// the wire encoding each step's response must equal byte for byte.
func directBodies(store pfs.Store, eng *serve.Engine, cfg serve.RenderConfig, lo, hi int) ([][]byte, error) {
	l := core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	o := core.DefaultOptions(cfg.Width, cfg.Height)
	o.View = render.OrbitView(cfg.Width, cfg.Height, cfg.Az, cfg.El)
	o.TFName = cfg.TF
	o.FixedVMax = eng.VMax()
	w, err := core.NewRealWorkload(l, o, store)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if err := w.SetStepWindow(lo, hi); err != nil {
		return nil, err
	}
	p, err := core.NewPipeline(l, w)
	if err != nil {
		return nil, err
	}
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if err := p.Run(c); err != nil {
			fatalf("reference render, rank %d: %v", c.Rank(), err)
		}
	})
	out := make([][]byte, hi-lo)
	for i := range out {
		frame := w.Frame(i)
		if frame == nil {
			return nil, fmt.Errorf("reference render produced no frame for step %d", lo+i)
		}
		out[i] = serve.EncodeWireFrameInto(nil, lo+i, frame, false)
		w.ReleaseFrame(i)
	}
	return out, nil
}

// reqClass is what the generator knows about a request before sending it.
type reqClass uint8

const (
	classHit     reqClass = iota // drawn from the pre-warmed hot set
	classMiss                    // a step scrub on a view whose session is warm
	classNewView                 // a camera move to a never-seen view
	numClasses
)

var classStage = [numClasses]stage{stReqHit, stReqMiss, stReqNewView}
var classCache = [numClasses]string{"hit", "miss", "miss"}

// servePlan generates a viewer's requests. next returns the request, its
// class and, for the hot plan, the body the response must equal.
type servePlan struct {
	sv      *serveSpec
	steps   int
	w, h    int
	hot     []frameReq
	hotBody [][]byte
}

// newServePlan lays out the hot set: HotViews orbit azimuths a quarter
// turn apart from a seeded start, HotSteps contiguous steps mid-dataset.
func newServePlan(cfg runConfig, steps int) *servePlan {
	sv := cfg.spec.Serve
	p := &servePlan{sv: sv, steps: steps, w: cfg.dim(sv.Width), h: cfg.dim(sv.Height)}
	if sv.Plan == "hot" {
		rng := rand.New(rand.NewSource(cfg.seed))
		az0 := 360 * rng.Float64()
		n := min(sv.HotSteps, steps)
		lo := (steps - n) / 2
		for v := 0; v < sv.HotViews; v++ {
			az := az0 + 360*float64(v)/float64(sv.HotViews)
			if az >= 360 {
				az -= 360
			}
			for s := lo; s < lo+n; s++ {
				p.hot = append(p.hot, frameReq{p.view(az), s})
			}
		}
	}
	return p
}

func (p *servePlan) view(az float64) serve.RenderConfig {
	return serve.RenderConfig{Width: p.w, Height: p.h, Orbit: true, Az: az, El: p.sv.Elevation}
}

// viewerState is one viewer's position in the plan.
type viewerState struct {
	rng    *rand.Rand
	az     float64
	step   int
	scrubs int // scrubs left on the current view
}

func (p *servePlan) next(st *viewerState) (frameReq, reqClass, []byte) {
	if p.sv.Plan == "hot" {
		i := st.rng.Intn(len(p.hot))
		return p.hot[i], classHit, p.hotBody[i]
	}
	if st.scrubs > 0 {
		st.scrubs--
		st.step++
		return frameReq{p.view(st.az), st.step}, classMiss, nil
	}
	// A fresh azimuth from a continuous draw has not been seen before.
	st.az = 360 * st.rng.Float64()
	st.scrubs = min(p.sv.ScrubsPerView, p.steps-1)
	st.step = st.rng.Intn(p.steps - st.scrubs)
	return frameReq{p.view(st.az), st.step}, classNewView, nil
}

// serveSetup is a constructed, warmed serve system and what set-up cost.
type serveSetup struct {
	sys    *serveSystem
	store  pfs.Store
	dir    string
	info   datasetInfo
	plan   *servePlan
	setupS []float64 // seconds: generation + construction + warm-up
	genS   float64
}

// warm sends the plan's warm-up requests through one viewer: every hot
// key once (hot plan: fills the cache, builds the sessions) or one camera
// move with its scrubs (explore plan: lets lazy initialisation finish).
func (p *servePlan) warm(sys *serveSystem, out *outcome) {
	v := newViewer()
	defer v.close()
	send := func(r frameReq) {
		body, _, status, _, err := v.get(sys.base, r)
		if err == nil && status == http.StatusOK {
			err = checkBody(body, r)
		} else if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		out.check(err == nil, "warm-up request step %d az %g: %v", r.step, r.cfg.Az, err)
	}
	if p.sv.Plan == "hot" {
		for _, r := range p.hot {
			send(r)
		}
		return
	}
	for _, r := range p.warmView() {
		send(r)
	}
}

// warmView is the explore plan's warm-up: one camera move and its scrubs,
// on a view no seed's viewers visit.
func (p *servePlan) warmView() []frameReq {
	st := &viewerState{rng: rand.New(rand.NewSource(-1))}
	reqs := make([]frameReq, 1+p.sv.ScrubsPerView)
	for i := range reqs {
		reqs[i], _, _ = p.next(st)
	}
	return reqs
}

// firstResponses measures the cold start a viewer sees: NewEngine and
// NewServer on the existing dataset, a listener, and one request, timed
// from the start of construction to the last body byte.
func (ss serveSetup) firstResponses(cfg runConfig, out *outcome) []float64 {
	n := firstFrameSamples
	if cfg.smoke {
		n = 1
	}
	req := ss.plan.warmView()[0]
	if ss.plan.sv.Plan == "hot" {
		req = ss.plan.hot[0]
	}
	secs := make([]float64, n)
	for i := range secs {
		sys, err := newServeSystem(ss.store)
		if err != nil {
			fatalf("constructing server: %v", err)
		}
		v := newViewer()
		body, _, status, _, err := v.get(sys.base, req)
		secs[i] = time.Since(sys.built).Seconds()
		if err == nil && status == http.StatusOK {
			err = checkBody(body, req)
		}
		out.check(err == nil && status == http.StatusOK, "first request of a fresh server: status %d, %v", status, err)
		v.close()
		sys.close()
	}
	return secs
}

func setupServe(cfg runConfig, out *outcome, wrap func(pfs.Store) pfs.Store) serveSetup {
	var ss serveSetup
	for k := 0; k < cfg.setups(); k++ {
		if ss.sys != nil {
			ss.sys.close()
			if err := os.RemoveAll(ss.dir); err != nil {
				fatalf("removing dataset: %v", err)
			}
		}
		t0 := time.Now()
		ss.dir = cfg.dataDir(k)
		store, info, genS, err := generateDataset(cfg.spec.Dataset, cfg.dataset(), ss.dir)
		if err != nil {
			fatalf("%v", err)
		}
		ss.store = store
		if wrap != nil {
			ss.store = wrap(store)
		}
		sys, err := newServeSystem(ss.store)
		if err != nil {
			fatalf("constructing server: %v", err)
		}
		ss.plan = newServePlan(cfg, info.Steps)
		ss.plan.warm(sys, out)
		ss.setupS = append(ss.setupS, time.Since(t0).Seconds())
		ss.sys, ss.info, ss.genS = sys, info, genS
	}
	out.dataset = ss.info
	if p := ss.plan; p.sv.Plan == "hot" {
		// The checker's own cost, outside set-up: what each hot key must
		// return, from a direct batch render.
		n := len(p.hot) / p.sv.HotViews
		for v := 0; v < p.sv.HotViews; v++ {
			first := p.hot[v*n]
			bodies, err := directBodies(ss.store, ss.sys.eng, first.cfg, first.step, first.step+n)
			if err != nil {
				fatalf("%v", err)
			}
			p.hotBody = append(p.hotBody, bodies...)
		}
	}
	return ss
}

// loadResult is one measured phase of closed-loop load.
type loadResult struct {
	elapsed  float64
	cpu      float64
	lat      [numClasses][]float64 // good responses' latency in ms, by class
	ok       int
	bad      int
	problems []string
	last     []lastFrame // each viewer's last request and its body
}

// lastFrame is a request and the body it was answered with.
type lastFrame struct {
	req  frameReq
	body []byte
}

func (lr *loadResult) all() []float64 {
	var a []float64
	for _, l := range lr.lat {
		a = append(a, l...)
	}
	return a
}

// merge adds another viewer's, or another window's, share of the load.
func (lr *loadResult) merge(w loadResult) {
	lr.elapsed += w.elapsed
	lr.cpu += w.cpu
	for c := range lr.lat {
		lr.lat[c] = append(lr.lat[c], w.lat[c]...)
	}
	lr.ok += w.ok
	lr.bad += w.bad
	lr.problems = append(lr.problems, w.problems...)
	lr.last = append(lr.last, w.last...)
}

// load runs the plan's viewers until the deadline (or, with requests > 0,
// for exactly that many requests per viewer) and checks every response.
// rec, when set, gets one span per request on the viewer's lane.
func (p *servePlan) load(sys *serveSystem, seed int64, seconds float64, requests int, rec *recorder) loadResult {
	n := p.sv.Viewers
	per := make([]loadResult, n)
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for vi := 0; vi < n; vi++ {
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			v := newViewer()
			defer v.close()
			lr := &per[vi]
			st := &viewerState{rng: rand.New(rand.NewSource(seed*1000 + int64(vi)))}
			var last lastFrame
			for i := 0; (requests > 0 && i < requests) || (requests == 0 && time.Now().Before(deadline)); i++ {
				r, class, want := p.next(st)
				var sent int64
				if rec != nil {
					sent = rec.now()
				}
				body, cache, status, sec, err := v.get(sys.base, r)
				if rec != nil {
					rec.ranks[vi].add(rec, vi, r.step, classStage[class], sent)
				}
				last = lastFrame{r, body}
				switch {
				case err != nil:
				case status != http.StatusOK:
					err = fmt.Errorf("status %d", status)
				case cache != classCache[class]:
					err = fmt.Errorf("cache header %q, want %q", cache, classCache[class])
				case want != nil:
					if !bytes.Equal(body, want) {
						err = fmt.Errorf("body differs from a direct batch render")
					}
				default:
					err = checkBody(body, r)
				}
				if err != nil {
					lr.bad++
					if len(lr.problems) < 3 {
						lr.problems = append(lr.problems, fmt.Sprintf("viewer %d step %d az %g: %v", vi, r.step, r.cfg.Az, err))
					}
					continue
				}
				lr.ok++
				lr.lat[class] = append(lr.lat[class], 1e3*sec)
			}
			// The body aliases the viewer's buffer; keep a copy.
			last.body = append([]byte(nil), last.body...)
			lr.last = []lastFrame{last}
		}(vi)
	}
	wg.Wait()
	var total loadResult
	for _, lr := range per {
		total.merge(lr)
	}
	total.elapsed, total.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	return total
}

// recheck asks again for each viewer's last frame: the same key must
// return the same bytes (now from the cache), and on the explore plan,
// where nothing was compared against a reference during the load, the
// first viewer's must equal a direct batch render.
func (p *servePlan) recheck(ss serveSetup, lr loadResult, out *outcome) {
	v := newViewer()
	defer v.close()
	for i, l := range lr.last {
		if len(l.body) == 0 {
			continue
		}
		r := l.req
		body, cache, status, _, err := v.get(ss.sys.base, r)
		out.check(err == nil && status == http.StatusOK && cache == "hit" && bytes.Equal(body, l.body),
			"repeat of step %d az %g: status %d, cache %q, err %v, or bytes differ from the first response", r.step, r.cfg.Az, status, cache, err)
		if i == 0 && p.sv.Plan == "explore" {
			want, err := directBodies(ss.store, ss.sys.eng, r.cfg, r.step, r.step+1)
			if err != nil {
				fatalf("%v", err)
			}
			out.check(bytes.Equal(l.body, want[0]), "step %d az %g differs from a direct batch render", r.step, r.cfg.Az)
		}
	}
}

// fold moves a load phase's request counts into the outcome.
func (lr loadResult) fold(out *outcome) {
	out.attempted += lr.ok + lr.bad
	out.failed += lr.bad
	out.problems = append(out.problems, lr.problems...)
}

// smokeRequests is the fixed per-viewer request count under -scale smoke.
const smokeRequests = 25

// runServe measures a serve workload with tracing off and reports the
// end-to-end metrics.
func runServe(cfg runConfig) outcome {
	out := outcome{metrics: metricSet{}}
	ss := setupServe(cfg, &out, nil)
	defer ss.sys.close()
	firstS := ss.firstResponses(cfg, &out)
	requests := 0
	if cfg.smoke {
		requests = smokeRequests
	}
	rss := startRSSSampler()
	lr := ss.plan.load(ss.sys, cfg.seed, cfg.seconds, requests, nil)
	peak := rss.stop()
	lr.fold(&out)
	ss.plan.recheck(ss, lr, &out)

	lat := lr.all()
	m := out.metrics
	m.put("setup_s", "s", median(ss.setupS))
	m.put("frames_per_s", "1/s", float64(lr.ok)/lr.elapsed)
	m.put("frame_ms_p50", "ms", percentile(lat, 50))
	m.put("frame_ms_p90", "ms", percentile(lat, 90))
	m.put("first_frame_ms", "ms", 1e3*median(firstS))
	m.put("cpu_ms_per_frame", "ms", 1e3*lr.cpu/float64(max(lr.ok, 1)))
	m.put("peak_rss_mb", "MB", peak)
	fmt.Fprintf(os.Stderr, "quakebench: %s: %d responses in %.2f s from %d closed-loop viewers, %d set-ups\n",
		cfg.spec.Name, lr.ok, lr.elapsed, cfg.spec.Serve.Viewers, len(ss.setupS))
	return out
}

// statsz fetches and decodes GET /statsz.
func statsz(base string) (serve.Stats, error) {
	var st serve.Stats
	v := newViewer()
	defer v.close()
	resp, err := v.client.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

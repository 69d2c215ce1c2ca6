package serve_test

import (
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
	"repro/internal/serve"
)

// --- Shared fixtures --------------------------------------------------------

// buildDataset is quake's demo dataset with the given number of steps (the
// fixture the core suite uses, so serve-layer frames are comparable to the
// pinned pipeline behavior).
func buildDataset(t testing.TB, steps int) pfs.Store {
	t.Helper()
	st, err := quake.DemoDataset(steps)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// directOptions builds the batch-pipeline options equivalent to what the
// engine derives from cfg, WITHOUT pinning vmax — the reference run builds
// its own core.Dataset on another layout and scans for itself (the scan
// has its own oracle in TestServeVMaxMatchesIndependentScan).
func directOptions(cfg serve.RenderConfig, enhance bool) core.Options {
	o := core.DefaultOptions(cfg.Width, cfg.Height)
	if cfg.Orbit {
		o.View = render.OrbitView(cfg.Width, cfg.Height, cfg.Az, cfg.El)
	}
	o.TFName = cfg.TF
	o.Enhancement = enhance
	return o
}

// directFrames renders every dataset step with a deliberately different
// layout than the serving engine uses and returns the frames. These are
// the bit-exactness references for everything the server sends.
func directFrames(t testing.TB, store pfs.Store, cfg serve.RenderConfig, enhance bool) []*img.Image {
	t.Helper()
	l := core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, err := core.NewRealWorkload(l, directOptions(cfg, enhance), store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	p, err := core.NewPipeline(l, w)
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
	frames := make([]*img.Image, w.Steps())
	for i := range frames {
		frames[i] = w.Frame(i)
		if frames[i] == nil {
			t.Fatalf("reference run missing frame %d", i)
		}
	}
	return frames
}

// newTestEngine builds an engine over store with test-friendly defaults.
func newTestEngine(t testing.TB, store pfs.Store, ecfg serve.EngineConfig) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(store, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// cfgQuery renders cfg as /frame query parameters.
func cfgQuery(cfg serve.RenderConfig) string {
	q := fmt.Sprintf("w=%d&h=%d", cfg.Width, cfg.Height)
	if cfg.Orbit {
		q += fmt.Sprintf("&view=orbit&az=%g&el=%g", cfg.Az, cfg.El)
	}
	if cfg.TF != "" {
		q += "&tf=" + cfg.TF
	}
	return q
}

// newTestHTTPServer starts an httptest server over h and ties its
// lifetime to the test.
func newTestHTTPServer(t testing.TB, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// getFrameErr fetches /frame?step=N for cfg and decodes the wire
// response, returning errors instead of failing the test — safe to call
// from load-generator goroutines.
func getFrameErr(ts *httptest.Server, cfg serve.RenderConfig, step int) (*img.Image, error) {
	resp, err := ts.Client().Get(fmt.Sprintf("%s/frame?step=%d&%s", ts.URL, step, cfgQuery(cfg)))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /frame step=%d: %s: %s", step, resp.Status, body)
	}
	gotStep, frame, _, rest, err := serve.DecodeWireFrame(body)
	if err != nil {
		return nil, err
	}
	if gotStep != step || len(rest) != 0 {
		return nil, fmt.Errorf("wire frame: step %d (want %d), %d trailing bytes", gotStep, step, len(rest))
	}
	return frame, nil
}

// getBody fetches path and returns the body of its 200 response.
func getBody(t testing.TB, ts *httptest.Server, path string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, resp
}

// getFrame fetches /frame?step=N for cfg and decodes the wire response.
func getFrame(t testing.TB, ts *httptest.Server, cfg serve.RenderConfig, step int) (*img.Image, *http.Response) {
	t.Helper()
	body, resp := getBody(t, ts, fmt.Sprintf("/frame?step=%d&%s", step, cfgQuery(cfg)))
	gotStep, frame, _, rest, err := serve.DecodeWireFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if gotStep != step || len(rest) != 0 {
		t.Fatalf("wire frame: step %d (want %d), %d trailing bytes", gotStep, step, len(rest))
	}
	return frame, resp
}

// --- Bit-exactness ----------------------------------------------------------

// TestServeFrameBitExact pins the tentpole's correctness claim: frames
// served over HTTP — cold render, then cache hit — are bit-identical to a
// direct batch-pipeline render of the same request with a different
// layout, with and without temporal enhancement.
func TestServeFrameBitExact(t *testing.T) {
	store := buildDataset(t, 3)
	for _, enhance := range []bool{false, true} {
		cfg := serve.RenderConfig{Width: 40, Height: 40, Orbit: true, Az: 30, El: 55, TF: "hot"}
		want := directFrames(t, store, cfg, enhance)
		eng := newTestEngine(t, store, serve.EngineConfig{Enhancement: enhance})
		srv := serve.NewServer(eng, serve.ServerConfig{})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		for step := 0; step < 3; step++ {
			cold, resp := getFrame(t, ts, cfg, step)
			if got := resp.Header.Get(serve.HeaderCache); got != "miss" {
				t.Errorf("enhance=%v step %d: first fetch cache header = %q, want miss", enhance, step, got)
			}
			if d := img.MaxAbsDiff(want[step], cold); d != 0 {
				t.Errorf("enhance=%v step %d: cold frame differs from direct render (max diff %v)", enhance, step, d)
			}
			warm, resp := getFrame(t, ts, cfg, step)
			if got := resp.Header.Get(serve.HeaderCache); got != "hit" {
				t.Errorf("enhance=%v step %d: second fetch cache header = %q, want hit", enhance, step, got)
			}
			if d := img.MaxAbsDiff(want[step], warm); d != 0 {
				t.Errorf("enhance=%v step %d: cached frame differs from direct render (max diff %v)", enhance, step, d)
			}
		}
	}
}

// TestServeFramesStreamBitExact pins the streaming endpoint: a range
// request returns every step, in order, each bit-identical to the direct
// render, and a re-request is served fully from cache.
func TestServeFramesStreamBitExact(t *testing.T) {
	store := buildDataset(t, 4)
	cfg := serve.RenderConfig{Width: 32, Height: 32}
	want := directFrames(t, store, cfg, false)
	eng := newTestEngine(t, store, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	for round := 0; round < 2; round++ {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/frames?lo=0&hi=4&%s", ts.URL, cfgQuery(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: %s: %s", round, resp.Status, body)
		}
		for step := 0; step < 4; step++ {
			gotStep, frame, degraded, rest, err := serve.DecodeWireFrame(body)
			if err != nil {
				t.Fatalf("round %d frame %d: %v", round, step, err)
			}
			if gotStep != step || degraded {
				t.Fatalf("round %d: frame %d decoded as step %d degraded=%v", round, step, gotStep, degraded)
			}
			if d := img.MaxAbsDiff(want[step], frame); d != 0 {
				t.Errorf("round %d step %d: stream frame differs (max diff %v)", round, step, d)
			}
			body = rest
		}
		if len(body) != 0 {
			t.Fatalf("round %d: %d trailing bytes after last frame", round, len(body))
		}
	}
	if st := eng.Cache().Stats(); st.Hits == 0 {
		t.Error("second stream round produced no cache hits")
	}
}

// TestServeNewViewsReuseOneSession pins the re-aim path: never-seen views
// requested one after another — camera moves, an image-size change and a
// transfer-function change among them — are all rendered by the one
// session the first request built, and every response is bit-identical to
// a direct batch render of that view on a different layout.
func TestServeNewViewsReuseOneSession(t *testing.T) {
	store := buildDataset(t, 3)
	views := []serve.RenderConfig{
		{Width: 40, Height: 40, Orbit: true, Az: 30, El: 55},
		{Width: 40, Height: 40, Orbit: true, Az: 200, El: 20},
		{Width: 56, Height: 32, Orbit: true, Az: 120, El: 35, TF: "hot"},
		{Width: 56, Height: 32, TF: "hot"},
		{Width: 40, Height: 40, Orbit: true, Az: 75, El: 40, TF: "gray"},
		{Width: 40, Height: 40, Orbit: true, Az: 310, El: 65},
	}
	for _, enhance := range []bool{false, true} {
		eng := newTestEngine(t, store, serve.EngineConfig{Enhancement: enhance})
		ts := newTestHTTPServer(t, serve.NewServer(eng, serve.ServerConfig{}))
		for vi, cfg := range views {
			want := directFrames(t, store, cfg, enhance)
			for _, step := range []int{2, 0, 1} {
				got, resp := getFrame(t, ts, cfg, step)
				if h := resp.Header.Get(serve.HeaderCache); h != "miss" {
					t.Errorf("enhance=%v view %d step %d: cache header %q, want miss", enhance, vi, step, h)
				}
				if d := img.MaxAbsDiff(want[step], got); d != 0 {
					t.Errorf("enhance=%v view %d step %d: re-aimed session's frame differs from direct render (max diff %v)", enhance, vi, step, d)
				}
			}
		}
		if cold, idle := eng.ColdSessions(), eng.IdleSessions(); cold != 1 || idle != 1 {
			t.Errorf("enhance=%v: %d views built %d sessions (%d idle), want 1 (1 idle)", enhance, len(views), cold, idle)
		}
		// The last frame of a render is visited with its session already
		// parked, so a viewer that reads a response and asks again never
		// finds the session still busy with the request it just got.
		err := eng.Render(serve.RenderConfig{Width: 40, Height: 40, Orbit: true, Az: 5, El: 5}, 1, 3, func(step int, _ []byte, _ bool) error {
			want := 0
			if step == 2 {
				want = 1
			}
			if idle := eng.IdleSessions(); idle != want {
				t.Errorf("enhance=%v: visiting step %d with %d idle sessions, want %d", enhance, step, idle, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
}

// TestServeConcurrentViewersOwnSessions pins the other half: sessions are
// built per concurrent render, not per view. Two viewers rendering
// disjoint views at the same time (both held inside the store) need two
// sessions; the views they move to afterwards need no third.
func TestServeConcurrentViewersOwnSessions(t *testing.T) {
	store := buildDataset(t, 3)
	gate := newGateStore(store, func(name string) bool { return name == quake.StepObject(1) })
	eng := newTestEngine(t, gate, serve.EngineConfig{FixedVMax: independentVMax(t, store)})
	ts := newTestHTTPServer(t, serve.NewServer(eng, serve.ServerConfig{}))
	views := []serve.RenderConfig{
		{Width: 32, Height: 32, Orbit: true, Az: 10, El: 50},
		{Width: 32, Height: 32, Orbit: true, Az: 190, El: 30},
	}
	frames := make([]*img.Image, len(views))
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for i, cfg := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[i], errs[i] = getFrameErr(ts, cfg, 1)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for gate.Waiters() < len(views) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d renders reached the store", gate.Waiters(), len(views))
		}
		time.Sleep(time.Millisecond)
	}
	gate.Open()
	wg.Wait()
	for i, cfg := range views {
		if errs[i] != nil {
			t.Fatalf("viewer %d: %v", i, errs[i])
		}
		if d := img.MaxAbsDiff(directFrames(t, store, cfg, false)[1], frames[i]); d != 0 {
			t.Errorf("viewer %d: concurrent frame differs from direct render (max diff %v)", i, d)
		}
	}
	if got := eng.ColdSessions(); got != 2 {
		t.Errorf("2 concurrent viewers built %d sessions, want 2", got)
	}
	for _, az := range []float64{70, 250} {
		getFrame(t, ts, serve.RenderConfig{Width: 32, Height: 32, Orbit: true, Az: az, El: 45}, 0)
	}
	if cold, idle := eng.ColdSessions(), eng.IdleSessions(); cold != 2 || idle != 2 {
		t.Errorf("after two more camera moves: %d sessions built, %d idle, want 2/2", cold, idle)
	}
}

// independentVMax scans the dataset's velocity range with the allocating
// reference kernels, sharing no code with core's scan.
func independentVMax(t testing.TB, store pfs.Store) float32 {
	t.Helper()
	meta, err := quake.ReadMeta(store)
	if err != nil {
		t.Fatal(err)
	}
	var vmax float32
	buf := make([]byte, meta.NumNodes*quake.BytesPerNode)
	for step := 0; step < meta.NumSteps; step++ {
		if err := store.ReadAt(nil, quake.StepObject(step), 0, buf); err != nil {
			t.Fatal(err)
		}
		vec, err := quake.DecodeStepInto(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range render.MagnitudeInto(nil, vec) {
			vmax = max(vmax, m)
		}
	}
	return vmax
}

// TestServeVMaxMatchesIndependentScan pins the engine's quantization range
// (the shared dataset's one scan) against the independent oracle.
func TestServeVMaxMatchesIndependentScan(t *testing.T) {
	store := buildDataset(t, 3)
	eng := newTestEngine(t, store, serve.EngineConfig{})
	defer eng.Close()
	if got, want := eng.VMax(), independentVMax(t, store); got != want || want <= 0 {
		t.Errorf("engine vmax = %v, independent scan = %v", got, want)
	}
}

// TestServePNGFrame pins the png format: a decodable PNG with the
// requested geometry.
func TestServePNGFrame(t *testing.T) {
	store := buildDataset(t, 2)
	eng := newTestEngine(t, store, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := ts.Client().Get(ts.URL + "/frame?step=0&w=32&h=24&format=png")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("Content-Type = %q", ct)
	}
	im, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if b := im.Bounds(); b.Dx() != 32 || b.Dy() != 24 {
		t.Fatalf("png is %dx%d, want 32x24", b.Dx(), b.Dy())
	}
}

// TestServeBadRequests pins the strict decoder through the HTTP layer:
// every malformed request is a clean 400, never a render.
func TestServeBadRequests(t *testing.T) {
	store := buildDataset(t, 2)
	eng := newTestEngine(t, store, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	bad := []string{
		"/frame",                          // no step
		"/frame?step=9",                   // outside dataset
		"/frame?step=-1",                  // negative
		"/frame?step=0&w=4",               // too small
		"/frame?step=0&w=99999",           // too large
		"/frame?step=0&view=orbit&el=200", // bad elevation
		"/frame?step=0&az=30",             // az without orbit
		"/frame?step=0&view=squint",       // unknown view
		"/frame?step=0&tf=neon",           // unknown TF
		"/frame?step=0&format=bmp",        // unknown format
		"/frame?step=0&bogus=1",           // unknown key
		"/frame?lo=0&hi=2",                // range on single-frame endpoint
		"/frame?step=0&step=1",            // repeated key
		"/frame?step=0&view=orbit&az=NaN", // non-finite angle
		"/frames?lo=0&hi=2&format=png",    // png is single-frame only
		"/frames?lo=1&hi=1",               // empty range
	}
	for _, path := range bad {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %s, want 400", path, resp.Status)
		}
	}
	if got := eng.RenderedFrames(); got != 0 {
		t.Errorf("bad requests triggered %d renders", got)
	}
}

// TestServeJSONBody pins the POST/JSON request path end to end.
func TestServeJSONBody(t *testing.T) {
	store := buildDataset(t, 2)
	cfg := serve.RenderConfig{Width: 32, Height: 32, TF: "gray"}
	want := directFrames(t, store, cfg, false)
	eng := newTestEngine(t, store, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := ts.Client().Post(ts.URL+"/frame", "application/json",
		strings.NewReader(`{"step": 1, "width": 32, "height": 32, "tf": "gray"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	step, frame, _, _, err := serve.DecodeWireFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if step != 1 {
		t.Fatalf("decoded step %d, want 1", step)
	}
	if d := img.MaxAbsDiff(want[1], frame); d != 0 {
		t.Errorf("JSON-requested frame differs from direct render (max diff %v)", d)
	}
	resp, err = ts.Client().Post(ts.URL+"/frame", "application/json",
		strings.NewReader(`{"step": 0, "zoom": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown JSON field: %s, want 400", resp.Status)
	}
}

// TestServeHealthzStatsz pins the observability endpoints: liveness flips
// to 503 on drain, and the stats snapshot carries coherent counters.
func TestServeHealthzStatsz(t *testing.T) {
	store := buildDataset(t, 2)
	eng := newTestEngine(t, store, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	cfg := serve.RenderConfig{Width: 32, Height: 32}
	getFrame(t, ts, cfg, 0) // miss + render
	getFrame(t, ts, cfg, 0) // hit

	resp, err = ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.RenderedFrames != 1 || st.ServedFrames != 2 {
		t.Errorf("stats = hits %d rendered %d served %d, want 1/1/2", st.Cache.Hits, st.RenderedFrames, st.ServedFrames)
	}
	if st.CacheHitRate <= 0 || st.CacheHitRate > 1 {
		t.Errorf("hit rate %v out of range", st.CacheHitRate)
	}
	if st.ColdSessions != 1 || st.IdleSessions != 1 {
		t.Errorf("sessions: cold %d idle %d, want 1/1", st.ColdSessions, st.IdleSessions)
	}
	// A camera move re-aims the parked session instead of building one.
	getFrame(t, ts, serve.RenderConfig{Width: 32, Height: 32, Orbit: true, Az: 80, El: 40}, 0)
	if st := srv.Snapshot(); st.ColdSessions != 1 || st.IdleSessions != 1 {
		t.Errorf("sessions after a camera move: cold %d idle %d, want 1/1", st.ColdSessions, st.IdleSessions)
	}
}

// TestServeCacheCountsOnePerRequest pins the hit/miss accounting: a /frame
// request is one lookup — raw or PNG, hit or miss, however the miss path
// re-checks after admission — and a /frames window is one lookup per step,
// partly cached or not.
func TestServeCacheCountsOnePerRequest(t *testing.T) {
	store := buildDataset(t, 4)
	eng := newTestEngine(t, store, serve.EngineConfig{})
	// A handler releases its pin after writing the body, so the client can
	// read the whole response first: the pins are counted once the handler
	// has returned.
	srv := serve.NewServer(eng, serve.ServerConfig{})
	served := make(chan struct{}, 1)
	ts := newTestHTTPServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		served <- struct{}{}
	}))
	for _, c := range []struct {
		path         string
		hits, misses uint64
	}{
		{"/frame?step=1&w=32&h=32", 0, 1},                // raw miss
		{"/frame?step=1&w=32&h=32", 1, 0},                // raw hit
		{"/frame?step=3&w=32&h=32&format=png", 0, 1},     // PNG miss
		{"/frame?step=3&w=32&h=32&format=png", 1, 0},     // PNG hit
		{"/frames?lo=0&hi=4&w=32&h=32", 2, 2},            // steps 1 and 3 cached
		{"/frames?lo=0&hi=4&w=32&h=32&tf=gray", 0, 4},    // one segment, nothing cached
		{"/frames?lo=1&hi=3&w=32&h=32&format=raw", 2, 0}, // all cached
	} {
		before := eng.Cache().Stats()
		getBody(t, ts, c.path)
		<-served
		after := eng.Cache().Stats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != c.hits || misses != c.misses {
			t.Errorf("GET %s counted %d hits and %d misses, want %d and %d", c.path, hits, misses, c.hits, c.misses)
		}
		if n := eng.Cache().Pins(); n != 0 {
			t.Errorf("GET %s left %d cache entries pinned", c.path, n)
		}
	}
}

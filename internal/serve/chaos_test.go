package serve_test

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/serve"
)

// TestChaosServeDegradedNotCached pins the degraded-frame contract under
// permanent read faults: the frame is served with the stale marker
// header, is never cached (every fetch re-renders), and clean steps are
// unaffected and cache normally.
func TestChaosServeDegradedNotCached(t *testing.T) {
	store := buildDataset(t, 3)
	vmax := independentVMax(t, store)
	faulty := faultinject.Wrap(store, faultinject.Config{
		Seed:       42,
		PPermanent: 1,
		Match:      func(name string) bool { return name == quake.StepObject(1) },
	})
	feng := newTestEngine(t, faulty, serve.EngineConfig{FixedVMax: vmax, Tolerate: true})
	srv := serve.NewServer(feng, serve.ServerConfig{})
	ts := newTestHTTPServer(t, srv)

	for round := 0; round < 2; round++ {
		_, resp := getFrame(t, ts, serve.RenderConfig{Width: 32, Height: 32}, 1)
		if got := resp.Header.Get(serve.HeaderDegraded); got != "stale" {
			t.Fatalf("round %d: degraded header = %q, want stale", round, got)
		}
		if got := resp.Header.Get(serve.HeaderCache); got != "miss" {
			t.Errorf("round %d: degraded frame served from cache (%q), must never be cached", round, got)
		}
	}
	for round := 0; round < 2; round++ {
		_, resp := getFrame(t, ts, serve.RenderConfig{Width: 32, Height: 32}, 0)
		if got := resp.Header.Get(serve.HeaderDegraded); got != "" {
			t.Errorf("round %d: clean step carries degraded header %q", round, got)
		}
		want := "miss"
		if round > 0 {
			want = "hit"
		}
		if got := resp.Header.Get(serve.HeaderCache); got != want {
			t.Errorf("round %d: clean step cache header = %q, want %q", round, got, want)
		}
	}
}

// TestChaosServeTransientsHealed pins the recovery stack under the
// server: transient faults and short reads below MPI-IO are healed by
// the retry store, so responses are clean, unmarked, and bit-exact
// against a fault-free direct render.
func TestChaosServeTransientsHealed(t *testing.T) {
	store := buildDataset(t, 3)
	cfg := serve.RenderConfig{Width: 32, Height: 32}
	want := directFrames(t, store, cfg, false)
	faulty := faultinject.Wrap(store, faultinject.Config{
		Seed:          7,
		PTransient:    0.3,
		PShortRead:    0.1,
		FaultAttempts: 2,
	})
	healed := pfs.NewRetryStore(faulty, pfs.RetryConfig{Seed: 7})
	eng := newTestEngine(t, healed, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{})
	ts := newTestHTTPServer(t, srv)
	for step := 0; step < 3; step++ {
		frame, resp := getFrame(t, ts, cfg, step)
		if got := resp.Header.Get(serve.HeaderDegraded); got != "" {
			t.Errorf("step %d: healed read still marked degraded (%q)", step, got)
		}
		if d := img.MaxAbsDiff(want[step], frame); d != 0 {
			t.Errorf("step %d: frame under healed transients differs (max diff %v)", step, d)
		}
	}
	if fstats := faulty.Stats(); fstats.Transients == 0 && fstats.ShortReads == 0 {
		t.Error("fault schedule injected nothing; the test pinned a no-op")
	}
}

// gateStore wraps a Store and blocks reads of matched objects until the
// gate opens, giving the saturation test deterministic control over how
// long a render holds its admission slot.
type gateStore struct {
	inner pfs.Store
	match func(string) bool

	mu      sync.Mutex
	open    bool
	cond    *sync.Cond
	waiters int
}

func newGateStore(inner pfs.Store, match func(string) bool) *gateStore {
	g := &gateStore{inner: inner, match: match}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Open releases all blocked reads (and all future ones).
func (g *gateStore) Open() {
	g.mu.Lock()
	g.open = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Waiters reports how many reads are currently blocked.
func (g *gateStore) Waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters
}

func (g *gateStore) wait(name string) {
	if g.match != nil && !g.match(name) {
		return
	}
	g.mu.Lock()
	g.waiters++
	for !g.open {
		g.cond.Wait()
	}
	g.waiters--
	g.mu.Unlock()
}

// Size implements pfs.Store.
func (g *gateStore) Size(name string) (int64, error) { return g.inner.Size(name) }

// ReadAt implements pfs.Store, blocking matched objects until Open.
func (g *gateStore) ReadAt(c *mpi.Comm, name string, off int64, buf []byte) error {
	g.wait(name)
	return g.inner.ReadAt(c, name, off, buf)
}

// Write implements pfs.Store.
func (g *gateStore) Write(name string, data []byte) error { return g.inner.Write(name, data) }

// TestChaosServeSaturationSheds pins admission control under render-queue
// saturation: with one in-flight slot held by a gated render, an
// unqueueable second render is shed 429 immediately, a queued render
// sheds 429 after the queue timeout, and cache hits keep being served
// throughout.
func TestChaosServeSaturationSheds(t *testing.T) {
	store := buildDataset(t, 3)
	vmax := independentVMax(t, store)
	gate := newGateStore(store, func(name string) bool { return name == quake.StepObject(1) })
	cfg := serve.RenderConfig{Width: 32, Height: 32}

	eng := newTestEngine(t, gate, serve.EngineConfig{FixedVMax: vmax})
	srv := serve.NewServer(eng, serve.ServerConfig{
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 50 * time.Millisecond,
	})
	ts := newTestHTTPServer(t, srv)

	// Warm step 0 into the cache while the gate only covers step 1.
	getFrame(t, ts, cfg, 0)

	// Saturate the single render slot with a request stuck on the gate.
	stuck := make(chan error, 1)
	go func() {
		_, err := getFrameErr(ts, cfg, 1)
		stuck <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gate.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gated render never reached the store")
		}
		time.Sleep(time.Millisecond)
	}

	// One request fits the queue and sheds on timeout; a second is shed
	// instantly because both the slot and the queue are full. Fire the
	// queued one first, then overflow it.
	queued := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/frame?step=2&w=32&h=32")
		if err != nil {
			queued <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	time.Sleep(10 * time.Millisecond) // let it enter the queue
	resp, err := ts.Client().Get(ts.URL + "/frame?step=2&w=32&h=32")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow request: %s, want 429", resp.Status)
	}
	if code := <-queued; code != http.StatusTooManyRequests {
		t.Errorf("queued request: %d, want 429 after queue timeout", code)
	}

	// Cache hits bypass admission even while saturated.
	_, hitResp := getFrame(t, ts, cfg, 0)
	if got := hitResp.Header.Get(serve.HeaderCache); got != "hit" {
		t.Errorf("cached frame under saturation: cache header %q, want hit", got)
	}

	gate.Open()
	if err := <-stuck; err != nil {
		t.Fatalf("gated render failed after release: %v", err)
	}
	if st := srv.Snapshot(); st.Shed < 2 {
		t.Errorf("shed counter = %d, want >= 2", st.Shed)
	}
}

// TestChaosServeDrainNoLeaks pins graceful shutdown: draining refuses new
// renders with 503 (healthz flips too), keeps serving cache hits, lets
// in-flight work finish, and leaks no goroutines or sessions once done.
func TestChaosServeDrainNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	store := buildDataset(t, 3)
	cfg := serve.RenderConfig{Width: 32, Height: 32}
	eng := newTestEngine(t, store, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{MaxInFlight: 2})
	ts := newTestHTTPServer(t, srv)

	// Mixed traffic, then drain.
	var wg sync.WaitGroup
	for v := 0; v < 4; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for step := 0; step < 3; step++ {
				getFrameErr(ts, cfg, step)
			}
		}(v)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %s, want 503", resp.Status)
	}
	resp, err = ts.Client().Get(ts.URL + "/frame?step=2&w=48&h=48") // uncached: needs a render
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("render while draining: %s, want 503", resp.Status)
	}
	_, hitResp := getFrame(t, ts, cfg, 0) // cached: still served
	if got := hitResp.Header.Get(serve.HeaderCache); got != "hit" {
		t.Errorf("cached frame while draining: cache header %q, want hit", got)
	}
	if eng.IdleSessions() != 0 {
		t.Errorf("%d sessions survived engine close", eng.IdleSessions())
	}

	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

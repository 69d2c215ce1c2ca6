package serve_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/img"
	"repro/internal/pool"
	"repro/internal/serve"
)

// BenchmarkServeCachedFrame measures the warm serving path — a cache hit
// copied into a reused canvas plus the wire encode — which the load suite
// requires to be allocation-free.
func BenchmarkServeCachedFrame(b *testing.B) {
	store := buildDataset(b, 1)
	eng := newTestEngine(b, store, serve.EngineConfig{})
	defer eng.Close()
	cfg := serve.RenderConfig{Width: 256, Height: 256}
	var dst img.Image
	if err := eng.Render(cfg, 0, 1, &dst, func(int, *img.Image, bool, bool) error { return nil }); err != nil {
		b.Fatal(err)
	}
	if !eng.CachedInto(cfg, 0, &dst) {
		b.Fatal("frame not cached after render")
	}
	var buf []byte
	buf = serve.EncodeWireFrameInto(buf, 0, &dst, false)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.CachedInto(cfg, 0, &dst) {
			b.Fatal("cache entry vanished")
		}
		buf = serve.EncodeWireFrameInto(buf, 0, &dst, false)
	}
}

// BenchmarkServeColdFrame measures an uncached render through the engine:
// session acquisition (warm after the first iteration), a one-step
// pipeline window, and the frame copy-out. The cache is disabled so every
// iteration pays the full render.
func BenchmarkServeColdFrame(b *testing.B) {
	store := buildDataset(b, 1)
	eng := newTestEngine(b, store, serve.EngineConfig{CacheBytes: -1})
	defer eng.Close()
	cfg := serve.RenderConfig{Width: 256, Height: 256}
	var dst img.Image
	// Warm the session pool so iterations measure renders, not construction.
	if err := eng.Render(cfg, 0, 1, &dst, func(int, *img.Image, bool, bool) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := eng.Render(cfg, 0, 1, &dst, func(_ int, fr *img.Image, _, _ bool) error {
			if fr != &dst {
				dst.W, dst.H = fr.W, fr.H
				dst.Pix = pool.Grow(dst.Pix, len(fr.Pix))
				copy(dst.Pix, fr.Pix)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeNewView measures a camera move: every iteration asks a
// warm engine for an azimuth it has never seen, so nothing hits the cache
// and the parked session is re-aimed (SetView) before its one-step
// window. BenchmarkServeColdFrame re-renders one view and so never pays
// the re-aim; the difference between the two is what a new view costs.
func BenchmarkServeNewView(b *testing.B) {
	store := buildDataset(b, 1)
	eng := newTestEngine(b, store, serve.EngineConfig{CacheBytes: -1})
	defer eng.Close()
	cfg := serve.RenderConfig{Width: 256, Height: 256, Orbit: true, El: 35}
	var dst img.Image
	visit := func(int, *img.Image, bool, bool) error { return nil }
	if err := eng.Render(cfg, 0, 1, &dst, visit); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Az = 360 * float64(i+1) / float64(b.N+1)
		if err := eng.Render(cfg, 0, 1, &dst, visit); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := eng.ColdSessions(); got != 1 {
		b.Fatalf("%d camera moves built %d sessions, want 1", b.N, got)
	}
}

// BenchmarkServeConcurrentViewers drives the full HTTP stack with 8
// synthetic viewers over a mostly-warm view set and reports end-to-end
// frames/sec and p99 request latency — the headline serving numbers,
// tracked end to end by quakebench's serve_hot and serve_explore workloads
// (bench/README.md).
func BenchmarkServeConcurrentViewers(b *testing.B) {
	const viewers = 8
	store := buildDataset(b, 3)
	views := []serve.RenderConfig{
		{Width: 64, Height: 64},
		{Width: 64, Height: 64, Orbit: true, Az: 30, El: 55},
		{Width: 64, Height: 64, Orbit: true, Az: 120, El: 35, TF: "hot"},
		{Width: 64, Height: 64, TF: "gray"},
	}
	eng := newTestEngine(b, store, serve.EngineConfig{MaxSessions: len(views)})
	defer eng.Close()
	srv := serve.NewServer(eng, serve.ServerConfig{MaxInFlight: 4})
	ts := newTestHTTPServer(b, srv)
	// Warm every (view, step) pair so the steady state matches a running
	// service with a hot cache.
	for _, cfg := range views {
		for step := 0; step < 3; step++ {
			if _, err := getFrameErr(ts, cfg, step); err != nil {
				b.Fatal(err)
			}
		}
	}

	var mu sync.Mutex
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	work := make(chan int, b.N)
	for i := 0; i < b.N; i++ {
		work <- i
	}
	close(work)
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			local := make([]time.Duration, 0, b.N/viewers+1)
			for i := range work {
				cfg := views[i%len(views)]
				step := (i / len(views)) % 3
				t0 := time.Now()
				if _, err := getFrameErr(ts, cfg, step); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(v)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		p99 := lats[(len(lats)*99)/100%len(lats)]
		b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
		b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "frames/sec")
	}
}

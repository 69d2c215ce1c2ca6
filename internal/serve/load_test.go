package serve_test

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/img"
	"repro/internal/serve"
)

// TestServeLoadConcurrentViewers is the load satellite: N synthetic
// viewers hammer a small view set through the HTTP layer. Every response
// must be bit-exact against a direct batch render of the same request,
// the cache hit rate must clear a floor (the view set is small, so after
// first touch nearly everything is warm), and the warm cached path must
// not allocate per hit.
func TestServeLoadConcurrentViewers(t *testing.T) {
	const (
		steps        = 3
		viewers      = 8
		reqPerViewer = 24
		hitRateFloor = 0.80
	)
	store := buildDataset(t, steps)
	views := []serve.RenderConfig{
		{Width: 32, Height: 32},
		{Width: 32, Height: 32, Orbit: true, Az: 30, El: 55},
		{Width: 32, Height: 32, Orbit: true, Az: 120, El: 35, TF: "hot"},
		{Width: 32, Height: 32, TF: "gray"},
	}
	refs := make([][]*img.Image, len(views))
	for i, cfg := range views {
		refs[i] = directFrames(t, store, cfg, false)
	}

	eng := newTestEngine(t, store, serve.EngineConfig{})
	srv := serve.NewServer(eng, serve.ServerConfig{MaxInFlight: 4})
	ts := newTestHTTPServer(t, srv)

	var wg sync.WaitGroup
	errc := make(chan error, viewers)
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + v)))
			for i := 0; i < reqPerViewer; i++ {
				ci := rng.Intn(len(views))
				step := rng.Intn(steps)
				frame, err := getFrameErr(ts, views[ci], step)
				if err != nil {
					errc <- err
					return
				}
				if d := img.MaxAbsDiff(refs[ci][step], frame); d != 0 {
					errc <- fmt.Errorf("viewer %d: cfg %d step %d differs from direct render (max diff %v)", v, ci, step, d)
					return
				}
			}
		}(v)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := eng.Cache().Stats()
	if rate := st.HitRate(); rate < hitRateFloor {
		t.Errorf("cache hit rate %.3f below floor %.2f (hits %d misses %d)", rate, hitRateFloor, st.Hits, st.Misses)
	}

	// The warm PNG-hit path must be allocation-free: a reused destination
	// canvas makes CachedInto pure decode work.
	cfg, step := views[0], 0
	var dst img.Image
	if !eng.CachedInto(cfg, step, &dst) {
		t.Fatal("expected a warm cache entry after the load run")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if !eng.CachedInto(cfg, step, &dst) {
			t.Fatal("cache entry vanished")
		}
	}); allocs != 0 {
		t.Errorf("warm cache hit allocates %v times per run, want 0", allocs)
	}

	// And what a raw hit does — pin, write the cached body, release — is
	// allocation-free too.
	c, k := eng.Cache(), serve.FrameKey{Cfg: cfg, Step: step}
	if allocs := testing.AllocsPerRun(200, func() {
		f := c.Pin(k)
		if f == nil {
			t.Fatal("cache entry vanished")
		}
		io.Discard.Write(f.Body())
		c.Release(f)
	}); allocs != 0 {
		t.Errorf("warm raw hit (pin, write, release) allocates %v times per run, want 0", allocs)
	}
}

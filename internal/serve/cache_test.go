package serve_test

import (
	"bytes"
	"testing"

	"repro/internal/img"
	"repro/internal/serve"
)

// mkFrame returns a w×h frame with every channel set to fill.
func mkFrame(w, h int, fill float32) *img.Image {
	m := img.New(w, h)
	for i := range m.Pix {
		m.Pix[i] = fill
	}
	return m
}

// key builds a cache key distinguished only by step.
func key(step int) serve.FrameKey {
	return serve.FrameKey{Cfg: serve.RenderConfig{Width: 8, Height: 8}, Step: step}
}

// frameBytes is the accounted cost of one 8×8 test frame (wire header +
// pixels + per-entry overhead), mirrored from the cache's accounting.
const frameBytes = serve.WireHeaderSize + 4*4*8*8 + 160

// put caches m under k and drops the pin Put returns.
func put(c *serve.FrameCache, k serve.FrameKey, m *img.Image) {
	if f := c.Put(k, m); f != nil {
		c.Release(f)
	}
}

// get pins k and decodes its cached body into dst, reporting whether k was
// cached.
func get(t *testing.T, c *serve.FrameCache, k serve.FrameKey, dst *img.Image) bool {
	t.Helper()
	f := c.Pin(k)
	if f == nil {
		return false
	}
	defer c.Release(f)
	step, m, degraded, rest, err := serve.DecodeWireFrame(f.Body())
	if err != nil || step != k.Step || degraded || len(rest) != 0 {
		t.Fatalf("key %d: cached body decodes as step %d degraded=%v rest=%d: %v", k.Step, step, degraded, len(rest), err)
	}
	*dst = *m
	return true
}

// TestFrameCacheLRUEviction pins strict byte-bounded LRU: a third frame
// in a two-frame cache evicts the least recently used one.
func TestFrameCacheLRUEviction(t *testing.T) {
	c := serve.NewFrameCache(2 * frameBytes)
	put(c, key(0), mkFrame(8, 8, 0))
	put(c, key(1), mkFrame(8, 8, 1))
	put(c, key(2), mkFrame(8, 8, 2))
	if c.Contains(key(0)) {
		t.Error("oldest frame survived eviction")
	}
	var dst img.Image
	for _, step := range []int{1, 2} {
		if !get(t, c, key(step), &dst) {
			t.Fatalf("frame %d missing", step)
		}
		if dst.Pix[0] != float32(step) {
			t.Errorf("frame %d holds %v", step, dst.Pix[0])
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("entries %d evictions %d, want 2/1", st.Entries, st.Evictions)
	}
	if st.Bytes != 2*frameBytes {
		t.Errorf("accounted %d bytes, want %d", st.Bytes, 2*frameBytes)
	}
}

// TestFrameCacheGetBumpsRecency pins that a hit protects its entry: after
// touching the older frame, the other one is the eviction victim.
func TestFrameCacheGetBumpsRecency(t *testing.T) {
	c := serve.NewFrameCache(2 * frameBytes)
	put(c, key(0), mkFrame(8, 8, 0))
	put(c, key(1), mkFrame(8, 8, 1))
	var dst img.Image
	if !get(t, c, key(0), &dst) {
		t.Fatal("frame 0 missing")
	}
	put(c, key(2), mkFrame(8, 8, 2))
	if !c.Contains(key(0)) || c.Contains(key(1)) {
		t.Errorf("victim after bump: have0=%v have1=%v, want true/false", c.Contains(key(0)), c.Contains(key(1)))
	}
}

// TestFrameCachePutRefreshes pins that re-putting a key replaces its
// pixels without growing the entry count or double-accounting bytes.
func TestFrameCachePutRefreshes(t *testing.T) {
	c := serve.NewFrameCache(4 * frameBytes)
	put(c, key(0), mkFrame(8, 8, 1))
	put(c, key(0), mkFrame(8, 8, 7))
	var dst img.Image
	if !get(t, c, key(0), &dst) || dst.Pix[0] != 7 {
		t.Fatalf("refreshed frame reads %v", dst.Pix)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != frameBytes {
		t.Errorf("entries %d bytes %d after refresh, want 1/%d", st.Entries, st.Bytes, frameBytes)
	}
}

// TestFrameCacheBounds pins the edge rules: an oversized frame is not
// cached, and a disabled cache (limit <= 0) never stores anything.
func TestFrameCacheBounds(t *testing.T) {
	c := serve.NewFrameCache(frameBytes - 1)
	if f := c.Put(key(0), mkFrame(8, 8, 1)); f != nil || c.Contains(key(0)) {
		t.Error("frame larger than the cache was cached")
	}
	off := serve.NewFrameCache(-1)
	put(off, key(0), mkFrame(8, 8, 1))
	var dst img.Image
	if get(t, off, key(0), &dst) {
		t.Error("disabled cache returned a hit")
	}
}

// TestFrameCacheCopiesBothWays pins the ownership contract: mutating the
// source after Put, or a frame decoded from a hit, must not affect the
// cached body.
func TestFrameCacheCopiesBothWays(t *testing.T) {
	c := serve.NewFrameCache(4 * frameBytes)
	src := mkFrame(8, 8, 3)
	put(c, key(0), src)
	src.Pix[0] = 99
	var a img.Image
	if !get(t, c, key(0), &a) || a.Pix[0] != 3 {
		t.Fatalf("cache aliased the source: %v", a.Pix[0])
	}
	a.Pix[0] = 42
	var b img.Image
	if !get(t, c, key(0), &b) || b.Pix[0] != 3 {
		t.Fatalf("cache aliased a destination: %v", b.Pix[0])
	}
}

// TestFrameCachePinnedSurvivesEviction pins the pin lifetime (run under
// -race by make ci): a held entry's bytes stay byte-identical while
// another goroutine evicts it and re-puts its key with new pixels, the
// key then serves the new bytes, the byte bound holds throughout, the
// released entry is the one the next Put reuses, and a Put into a cache
// whose every entry is pinned terminates.
func TestFrameCachePinnedSurvivesEviction(t *testing.T) {
	c := serve.NewFrameCache(3 * frameBytes)
	put(c, key(0), mkFrame(8, 8, 1))
	held := c.Pin(key(0))
	if held == nil {
		t.Fatal("frame 0 missing")
	}
	want := bytes.Clone(held.Body())

	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := 1; s <= 6; s++ {
			put(c, key(s), mkFrame(8, 8, float32(s)))
			if st := c.Stats(); st.Bytes > st.Limit {
				t.Errorf("after put %d: %d bytes accounted over the %d limit", s, st.Bytes, st.Limit)
			}
		}
		put(c, key(0), mkFrame(8, 8, 9))
		if st := c.Stats(); st.Bytes > st.Limit {
			t.Errorf("after re-put: %d bytes accounted over the %d limit", st.Bytes, st.Limit)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if !bytes.Equal(held.Body(), want) {
			t.Fatal("a pinned body changed while its reader held it")
		}
	}
	var dst img.Image
	if !get(t, c, key(0), &dst) || dst.Pix[0] != 9 {
		t.Fatalf("re-put key serves %v, want the new pixels", dst.Pix)
	}
	if !bytes.Equal(held.Body(), want) {
		t.Fatal("a pinned body changed after its key was re-put")
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 3*frameBytes {
		t.Errorf("entries %d bytes %d, want 3/%d: an evicted pinned entry is outside the bound", st.Entries, st.Bytes, 3*frameBytes)
	}

	c.Release(held)
	next := c.Put(key(7), mkFrame(8, 8, 7))
	if next != held {
		t.Error("the released entry was not reused by the next Put: a new entry was allocated")
	}
	c.Release(next)

	var pins []*serve.CachedFrame
	for _, s := range []int{0, 6, 7} {
		f := c.Pin(key(s))
		if f == nil {
			t.Fatalf("frame %d missing", s)
		}
		pins = append(pins, f)
	}
	if f := c.Put(key(8), mkFrame(8, 8, 8)); f == nil {
		t.Error("a Put into an all-pinned cache cached nothing")
	} else {
		c.Release(f)
	}
	if st := c.Stats(); st.Bytes > st.Limit {
		t.Errorf("all pinned: %d bytes accounted over the %d limit", st.Bytes, st.Limit)
	}
	for _, f := range pins {
		c.Release(f)
	}

	// Re-putting a key that is pinned and still cached takes a fresh entry.
	cached := c.Pin(key(8))
	if cached == nil {
		t.Fatal("frame 8 missing")
	}
	was := bytes.Clone(cached.Body())
	put(c, key(8), mkFrame(8, 8, 10))
	if !bytes.Equal(cached.Body(), was) {
		t.Error("re-putting a pinned key rewrote its reader's bytes")
	}
	c.Release(cached)
	if !get(t, c, key(8), &dst) || dst.Pix[0] != 10 {
		t.Errorf("re-put pinned key serves %v, want the new pixels", dst.Pix[0])
	}
}

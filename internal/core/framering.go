package core

import (
	"sync"

	"repro/internal/img"
)

// FrameRing recycles assembled output frames, closing the last per-step
// allocation of the output stage. Assemble acquires a canvas per timestep;
// the frame then lives in the workload's frame table until a consumer
// releases it (ReleaseFrame), which returns the canvas to the ring. A
// consumer that releases frames as it uses them keeps the ring at its initial depth — sized to the prefetch
// window, since that bounds how many frames are in flight at once — and the
// steady-state assemble allocates nothing. A consumer that never releases
// (the batch examples read every frame after the run) simply grows the
// ring's working set to the step count, exactly the pre-ring behavior.
//
// Ownership contract (see docs/ownership.md): Acquire transfers the
// canvas to the caller; Release transfers it back, after which the
// previous holder must not touch it — Frame() results are borrows from
// this ring. The ring is mutex-guarded, so producer (output rank) and
// consumer may be different goroutines.
type FrameRing struct {
	mu   sync.Mutex
	free []*img.Image
}

// NewFrameRing returns a ring preloaded with depth w×h canvases.
func NewFrameRing(depth, w, h int) *FrameRing {
	r := &FrameRing{free: make([]*img.Image, 0, depth)}
	for i := 0; i < depth; i++ {
		r.free = append(r.free, img.New(w, h))
	}
	return r
}

// Acquire returns a cleared w×h canvas, reusing a released one when its
// capacity suffices and allocating otherwise (the ring grows under
// consumer lag instead of blocking the pipeline).
func (r *FrameRing) Acquire(w, h int) *img.Image {
	n := 4 * w * h
	var m *img.Image
	r.mu.Lock()
	for i := len(r.free) - 1; i >= 0; i-- {
		if cap(r.free[i].Pix) >= n {
			m = r.free[i]
			last := len(r.free) - 1
			r.free[i] = r.free[last]
			r.free = r.free[:last]
			break
		}
	}
	r.mu.Unlock()
	if m == nil {
		return img.New(w, h)
	}
	m.W, m.H = w, h
	m.Pix = m.Pix[:n]
	clear(m.Pix)
	return m
}

// Release returns a canvas to the ring. nil is ignored.
//
// Releasing the same canvas twice without an Acquire in between panics:
// a duplicate in the free list would let Acquire hand one canvas to two
// owners, and the resulting aliasing corrupts frames silently, far from
// the bug. The workload-level consumer API (ReleaseFrame) is
// naturally idempotent — the frames-map delete means a second release
// of a step finds nothing — which hid this hole until the serving layer
// (internal/serve) became the ring's first direct second consumer; the
// O(depth) membership scan turns the silent corruption into an immediate,
// attributable failure and allocates nothing (the assemble path's
// AllocsPerRun gates still see exactly 0).
func (r *FrameRing) Release(m *img.Image) {
	if m == nil {
		return
	}
	r.mu.Lock()
	for _, f := range r.free {
		if f == m {
			r.mu.Unlock()
			panic("core: FrameRing.Release called twice for the same canvas (ownership bug: see docs/ownership.md)")
		}
	}
	r.free = append(r.free, m)
	r.mu.Unlock()
}

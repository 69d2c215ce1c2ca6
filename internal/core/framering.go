package core

import (
	"sync"

	"repro/internal/img"
)

// FrameRing recycles the canvases assembled frames are read into. A frame
// is kept as its run-length stream (RealWorkload.Assemble); Frame(t)
// acquires a canvas from the ring the first time step t is read and
// pastes the stream into it, and ReleaseFrame (or a re-aim) returns the
// canvas to the ring. The ring starts empty and holds only canvases that
// readers have handed back, so a run nobody reads allocates none, a
// consumer that reads and releases frames one at a time keeps it at one
// canvas, and a consumer that reads frames and never releases them grows
// its working set to the step count.
//
// Ownership contract (see docs/ownership.md): Acquire transfers the
// canvas to the caller; Release transfers it back, after which the
// previous holder must not touch it — Frame() results are borrows from
// this ring. The ring is mutex-guarded, so the goroutines that read
// frames and those that release them may differ. The zero FrameRing is an
// empty ring ready to use.
type FrameRing struct {
	mu   sync.Mutex
	free []*img.Image
	made int // canvases Acquire has allocated (img.New calls)
}

// Acquire returns a cleared w×h canvas, reusing a released one when its
// capacity suffices and allocating otherwise (the ring grows while readers
// hold more canvases than it has ever had).
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
	if m == nil {
		r.made++
		r.mu.Unlock()
		return img.New(w, h)
	}
	r.mu.Unlock()
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

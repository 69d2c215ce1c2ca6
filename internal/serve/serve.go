// Package serve wraps the batch visualization pipeline (internal/core) in
// a long-running frame-serving service: an Engine that owns the dataset,
// renders frame requests keyed on (view, transfer function, timestep)
// through per-session pipeline instances, and fills a size-bounded LRU
// frame cache; and an HTTP Server exposing single-frame and streaming
// endpoints with admission control, graceful drain, and /healthz +
// /statsz observability. docs/serve.md documents the endpoints, the cache
// key semantics, and the session-ownership rules this package adds on top
// of docs/ownership.md.
//
// The layering mirrors the repository's ownership discipline: every
// concurrent request that has to render owns a whole session — a
// RealWorkload with its private scratches, worker pools, and frame ring —
// so sessions never share mutable state; the cache is the only cross-
// session structure. It holds frames in their wire form, encoded once on
// fill while the session's ring still owns the frame (the ring's
// copy-out-or-release contract), and hands entries out pinned: a raw hit
// writes the cached bytes themselves, allocation-free at steady state.
package serve

import (
	"hash/fnv"
	"math"
)

// RenderConfig identifies everything about a frame request except the
// timestep: image geometry, camera, and transfer function. It is a
// comparable value used directly as the session-pool key and, combined
// with a step, as the frame-cache key — so cache correctness rests on Go
// map equality of the exact parameters, never on hash comparison (the
// FNV hashes below exist only for headers, logs and stats). Engine-wide
// rendering options (enhancement, lighting, quantization range) are
// deliberately not part of the key: they are fixed per Engine, so all
// sessions agree on them.
type RenderConfig struct {
	// Width and Height are the frame geometry in pixels.
	Width, Height int
	// Orbit selects the orbit camera (render.OrbitView) with the Az/El
	// angles below; false uses the dataset's default view.
	Orbit bool
	// Az and El are the orbit camera's azimuth and elevation in degrees.
	// Both are zero when Orbit is false, so default-view configs compare
	// equal regardless of how they were built.
	Az, El float64
	// TF names the transfer-function preset ("seismic", "gray", "hot");
	// empty means the seismic default. The request decoder rejects
	// unknown names so misspellings cannot silently alias the default
	// preset's cache entries.
	TF string
}

// FrameKey is the frame-cache key: one rendered frame is identified by
// its full render configuration plus the dataset timestep.
type FrameKey struct {
	// Cfg is the complete render configuration of the cached frame.
	Cfg RenderConfig
	// Step is the dataset timestep (not a window-relative step).
	Step int
}

// ViewHash returns a stable 64-bit FNV-1a hash of the view-defining
// fields (geometry + camera), for marker headers and stats. Never used
// for cache lookups — those compare full keys.
func (c RenderConfig) ViewHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(c.Width))
	put(uint64(c.Height))
	if c.Orbit {
		put(1)
	} else {
		put(0)
	}
	put(math.Float64bits(c.Az))
	put(math.Float64bits(c.El))
	return h.Sum64()
}

// TFHash returns a stable 64-bit FNV-1a hash of the transfer-function
// name, for marker headers and stats (cache lookups compare the name
// itself).
func (c RenderConfig) TFHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.TF))
	return h.Sum64()
}

package compositor

import (
	"repro/internal/img"
	"repro/internal/pool"
)

// wirePayload is the typed wire message of one compositing exchange: the
// subfragments one rank ships to one compositor, stored by value so a
// steady-state frame loop reuses both the slice and each slot's pixel/RLE
// buffers. Payloads are pooled on the sending rank; the receiving rank must
// call Release after compositing, which returns the payload (and every
// buffer it owns) to the sender-side pool. Cost-model runs ship nil data
// and never see one.
type wirePayload struct {
	subs  []subFragment
	owner *pool.Pool[wirePayload]
}

// reset truncates the payload for refilling; slot buffers are kept.
func (p *wirePayload) reset() { p.subs = p.subs[:0] }

// add returns the next subfragment slot, reusing a previously grown slot's
// buffers when one is available.
func (p *wirePayload) add() *subFragment {
	if n := len(p.subs); n < cap(p.subs) {
		p.subs = p.subs[:n+1]
	} else {
		p.subs = append(p.subs, subFragment{})
	}
	return &p.subs[len(p.subs)-1]
}

// Release returns the payload to its owner's pool. Safe to call from the
// receiving rank's goroutine; a payload must not be touched afterwards.
func (p *wirePayload) Release() {
	if p != nil && p.owner != nil {
		p.owner.Put(p)
	}
}

// getPayload takes a reset payload from the pool, stamping the owner on
// first use.
func getPayload(pl *pool.Pool[wirePayload]) *wirePayload {
	p := pl.Get()
	p.owner = pl
	p.reset()
	return p
}

// getStrip takes a cleared w×h canvas from a strip pool, reusing pooled
// pixel storage. The composited strip stays in flight until its consumer
// releases it, so at steady state the pool cycles the few images the
// prefetch window keeps live.
func getStrip(pl *pool.Pool[img.Image], w, h int) *img.Image {
	m := pl.Get()
	n := 4 * w * h
	if cap(m.Pix) < n {
		m.Pix = make([]float32, n)
	}
	m.Pix = m.Pix[:n]
	m.W, m.H = w, h
	clear(m.Pix)
	return m
}

// swapPayload is the wire form of one binary-swap half: a pooled image the
// receiving partner must Release after blending it.
type swapPayload struct {
	img   img.Image
	owner *pool.Pool[swapPayload]
}

func (p *swapPayload) Release() {
	if p != nil && p.owner != nil {
		p.owner.Put(p)
	}
}

// getSwap takes a w×h swap payload from the pool (contents unspecified;
// the caller overwrites every pixel).
func getSwap(pl *pool.Pool[swapPayload], w, h int) *swapPayload {
	p := pl.Get()
	p.owner = pl
	n := 4 * w * h
	if cap(p.img.Pix) < n {
		p.img.Pix = make([]float32, n)
	}
	p.img.Pix = p.img.Pix[:n]
	p.img.W, p.img.H = w, h
	return p
}

// CompositeScratch holds one rank's reusable compositing state: the pooled
// wire payloads it sends (returned by receivers via Release), the strip
// canvases it composites into (returned by whoever consumes the strip via
// ReleaseStrip), the local clip buffers, and the binary-swap ping-pong
// images. A scratch belongs to one rank; two compositing calls on the same
// scratch must not overlap. With a scratch, DirectSendWith / SLICWith /
// BinarySwapWith allocate nothing at steady state. Buffer ownership
// follows docs/ownership.md: wire payloads and strips are pooled on the
// sending rank and released by whichever rank consumes them.
type CompositeScratch struct {
	payloads pool.Pool[wirePayload]
	strips   pool.Pool[img.Image]

	self  wirePayload    // clips kept locally (destination == me), never sent
	mine  []*subFragment // receive-side accumulation
	recvd []*wirePayload // received payloads pending Release

	// full is DirectSendWith's schedule (fullSchedule) for an image fullH
	// rows high and a group of len(full.Strips), rebuilt when either changes.
	full  *Schedule
	fullH int

	// BinarySwap buffers: the two keep images ping-pong between rounds
	// (round s writes bsKeep[s&1] while reading the previous round's keep),
	// bsCur stages the initial partial, and sent halves are pooled payloads
	// the partner releases after blending — partners change every round, so
	// only an explicit release makes reuse safe.
	bsKeep [2]*img.Image
	bsCur  *img.Image
	bsSeq  int
	bsOut  pool.Pool[swapPayload]
}

// NewCompositeScratch returns an empty scratch; buffers grow on first use.
func NewCompositeScratch() *CompositeScratch { return &CompositeScratch{} }

// ReleaseStrip returns a strip canvas produced by DirectSendWith/SLICWith
// on this scratch back to its pool. Call it once the strip's contents have
// been consumed (e.g. after the output processor pasted the frame).
func (s *CompositeScratch) ReleaseStrip(m *img.Image) {
	if m != nil {
		s.strips.Put(m)
	}
}

// ensureImg resizes *m (allocating only on growth) without clearing: the
// caller overwrites every pixel.
func ensureImg(m **img.Image, w, h int) *img.Image {
	if *m == nil {
		*m = &img.Image{}
	}
	n := 4 * w * h
	if cap((*m).Pix) < n {
		(*m).Pix = make([]float32, n)
	}
	(*m).Pix = (*m).Pix[:n]
	(*m).W, (*m).H = w, h
	return *m
}

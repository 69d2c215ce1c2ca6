package compositor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/render"
)

// Strip is a horizontal band of the final image owned by one compositor.
type Strip struct {
	Y0, H int
}

// equalStrips divides h scanlines into n contiguous strips of near-equal
// height (the plain direct-send partition).
func equalStrips(h, n int) []Strip {
	out := make([]Strip, n)
	for i := range out {
		y0 := h * i / n
		y1 := h * (i + 1) / n
		out[i] = Strip{Y0: y0, H: y1 - y0}
	}
	return out
}

// subFragment is a piece of a fragment clipped to a strip, on the wire.
// Exactly one of Raw/RLE is meaningful, selected by compressed; both
// buffers are retained across reuse of a pooled payload slot.
type subFragment struct {
	X0, Y0     int // absolute image coordinates
	W, H       int
	VisRank    int
	compressed bool
	Raw        *img.Image
	RLE        []byte
}

// clipFragmentInto appends the part of f that overlaps the strip to p,
// reusing the target slot's pixel/RLE buffers, and returns the wire bytes
// contributed (0 when f does not overlap the strip). Fragments are clipped
// in y only — the strip spans the full image width — so the clipped rows
// are one contiguous range of f's pixel array, and the compressed path
// encodes straight from it with no intermediate copy.
func clipFragmentInto(p *wirePayload, f *render.Fragment, st Strip, compress bool) int64 {
	y0 := max(f.Y0, st.Y0)
	y1 := min(f.Y0+f.Img.H, st.Y0+st.H)
	if y1 <= y0 || f.Img.W == 0 {
		return 0
	}
	h := y1 - y0
	w := f.Img.W
	rows := f.Img.Pix[4*(y0-f.Y0)*w : 4*(y1-f.Y0)*w]
	sf := p.add()
	sf.X0, sf.Y0, sf.W, sf.H, sf.VisRank = f.X0, y0, w, h, f.VisRank
	if compress {
		sf.compressed = true
		sf.RLE = encodeRLE(sf.RLE[:0], rows, w*h)
		return int64(len(sf.RLE))
	}
	sf.compressed = false
	part := ensureImg(&sf.Raw, w, h)
	copy(part.Pix, rows)
	return RawBytes(part)
}

// sortSubsByVis orders subfragments front to back. Insertion sort: stable
// (matching the sort.SliceStable the per-pixel path used), allocation-free,
// and the lists are short (one entry per overlapping block).
func sortSubsByVis(s []*subFragment) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].VisRank < s[j-1].VisRank; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// blendRow composites one clipped source row over the canvas row with the
// front-to-back operator (dst is already composited and in front):
// dst += (1-dst.a) * src, skipping fully transparent source pixels. The
// equal-length reslice up front lets the compiler drop every bounds check
// in the pixel loop.
func blendRow(dst, src []float32) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	dst = dst[:len(src)]
	for k := 0; k+4 <= len(src); k += 4 {
		sa := src[k+3]
		if sa == 0 {
			continue
		}
		t := 1 - dst[k+3]
		dst[k] += t * src[k]
		dst[k+1] += t * src[k+1]
		dst[k+2] += t * src[k+2]
		dst[k+3] += t * sa
	}
}

// blendRaw composites a raw subfragment into the strip canvas with flat
// row-slice arithmetic over Pix (no per-pixel At/Set or bounds tests).
func blendRaw(dst *img.Image, w int, st Strip, s *subFragment) {
	x0 := 0
	if s.X0 < 0 {
		x0 = -s.X0
	}
	x1 := s.W
	if s.X0+s.W > w {
		x1 = w - s.X0
	}
	if x1 <= x0 {
		return
	}
	for y := 0; y < s.H; y++ {
		gy := s.Y0 + y - st.Y0
		if gy < 0 || gy >= st.H {
			continue
		}
		src := s.Raw.Pix[4*(y*s.W+x0) : 4*(y*s.W+x1)]
		row := dst.Pix[4*(gy*w+s.X0+x0) : 4*(gy*w+s.X0+x1)]
		blendRow(row, src)
	}
}

// blendRLESeg composites one run segment read directly from the encoded
// stream (16 bytes per pixel) over a canvas row slice.
func blendRLESeg(dst []float32, src []byte) {
	n := len(src) / 16
	if n > len(dst)/4 {
		n = len(dst) / 4
	}
	for k := 0; k < n; k++ {
		b := src[16*k : 16*k+16 : 16*k+16]
		d := dst[4*k : 4*k+4 : 4*k+4]
		sa := math.Float32frombits(binary.LittleEndian.Uint32(b[12:]))
		if sa == 0 {
			continue
		}
		sr := math.Float32frombits(binary.LittleEndian.Uint32(b[0:]))
		sg := math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
		sb := math.Float32frombits(binary.LittleEndian.Uint32(b[8:]))
		t := 1 - d[3]
		d[0] += t * sr
		d[1] += t * sg
		d[2] += t * sb
		d[3] += t * sa
	}
}

// blendRLE composites a compressed subfragment directly from its encoded
// stream: skip records only advance the pixel cursor (the whole point of
// the transparent-run compression — skipped pixels cost nothing), and run
// records blend row segments in place. No decoded image is materialized.
// The stream is validated record by record (rleRecord), exactly as the
// tests' reference decoder (DecodeRLE) validates it.
func blendRLE(dst *img.Image, w int, st Strip, s *subFragment) error {
	data := s.RLE
	n := s.W * s.H
	pos := 0
	i := 0
	for pos < len(data) {
		start, run, err := rleRecord(data, pos, i, n)
		if err != nil {
			return err
		}
		pos += 8
		i = start
		for run > 0 {
			y := i / s.W
			x := i - y*s.W
			seg := s.W - x
			if seg > run {
				seg = run
			}
			gy := s.Y0 + y - st.Y0
			gx := s.X0 + x
			lo, hi := 0, seg
			if gx < 0 {
				lo = -gx
			}
			if gx+seg > w {
				hi = w - gx
			}
			if gy >= 0 && gy < st.H && hi > lo {
				row := dst.Pix[4*(gy*w+gx+lo) : 4*(gy*w+gx+hi)]
				blendRLESeg(row, data[pos+16*lo:pos+16*hi])
			}
			pos += 16 * seg
			i += seg
			run -= seg
		}
	}
	return nil
}

// compositeStripInto assembles subfragments into the (cleared) strip canvas
// in visibility order, front to back. Raw subfragments blend with flat row
// slices; compressed ones blend straight from the RLE stream.
//
//repro:allocfree
func compositeStripInto(dst *img.Image, w int, st Strip, subs []*subFragment) error {
	sortSubsByVis(subs)
	for _, s := range subs {
		if s.compressed {
			if err := blendRLE(dst, w, st, s); err != nil {
				return err
			}
		} else {
			blendRaw(dst, w, st, s)
		}
	}
	return nil
}

// Stats reports the communication volume of one compositing invocation.
type Stats struct {
	MsgsSent  int
	BytesSent int64
}

// DirectSendWith is the unscheduled baseline: the image is cut into equal
// strips, and every rank sends every other rank one message containing its
// (possibly empty) overlapping subfragments — the n(n-1) message pattern
// the paper describes as the worst case. It is SLICWith over the schedule
// that says exactly that (fullSchedule, kept in the scratch while the image
// height and group size stay the same), so the two share one exchange loop,
// one scratch and release contract, and one lost-peer contract. Returns
// this rank's composited strip.
func DirectSendWith(c *mpi.Comm, group []int, me int, frags []*render.Fragment,
	w, h, tagBase int, compress bool, scr *CompositeScratch) (*img.Image, Strip, Stats, error) {

	if scr == nil {
		scr = NewCompositeScratch()
	}
	if scr.full == nil || scr.fullH != h || len(scr.full.Strips) != len(group) {
		scr.full, scr.fullH = fullSchedule(h, len(group)), h
	}
	return SLICWith(c, group, me, scr.full, frags, w, h, tagBase, compress, scr)
}

// Rect is a projected screen-space bounding rectangle of one block, used to
// precompute the SLIC schedule.
type Rect struct {
	X0, Y0, X1, Y1 int // half-open pixel bounds
}

// Empty reports whether the rect covers no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Schedule is the view-dependent compositing schedule: weighted strips and
// the exact sender set for each compositor, computed identically on every
// rank from the block-to-rank assignment and the view (no communication).
type Schedule struct {
	Strips  []Strip
	Senders [][]int // Senders[j] = group indices that will message member j

	// sendMask is the per-rank sender bitmap (bit i of row j set iff member
	// i sends to member j), precomputed by BuildSchedule so the per-frame
	// "am I scheduled to send?" test is one bit probe instead of a linear
	// scan of Senders[j].
	sendMask []uint64
	maskW    int // words per bitmap row
}

// sends reports whether member i is scheduled to send to member j. A
// hand-built Schedule without a bitmap falls back to scanning Senders.
func (s *Schedule) sends(j, i int) bool {
	if s.sendMask == nil {
		return contains(s.Senders[j], i)
	}
	return s.sendMask[j*s.maskW+(i>>6)]&(1<<(uint(i)&63)) != 0
}

// BuildSchedule computes the schedule. rects[i] lists the projected rects
// of group member i's blocks. Scanlines are partitioned so each strip
// carries a near-equal amount of compositing work (sum of covering rects),
// and a sender appears in Senders[j] only if it has pixels for strip j —
// this is the "minimal number of messages" property of SLIC.
func BuildSchedule(rects [][]Rect, w, h, n int) *Schedule {
	weight := make([]float64, h)
	for _, rs := range rects {
		for _, r := range rs {
			if r.Empty() {
				continue
			}
			y0 := clamp(r.Y0, 0, h)
			y1 := clamp(r.Y1, 0, h)
			cov := float64(clamp(r.X1, 0, w) - clamp(r.X0, 0, w))
			for y := y0; y < y1; y++ {
				weight[y] += cov
			}
		}
	}
	var total float64
	for _, wt := range weight {
		total += wt + 1 // +1 keeps empty scanlines assignable
	}
	strips := make([]Strip, n)
	y := 0
	var acc float64
	for j := 0; j < n; j++ {
		y0 := y
		limit := total * float64(j+1) / float64(n)
		for y < h && acc+weight[y]+1 <= limit+1e-9 {
			acc += weight[y] + 1
			y++
		}
		if j == n-1 {
			y = h
		}
		strips[j] = Strip{Y0: y0, H: y - y0}
	}
	sched := newSchedule(strips)
	for j := 0; j < n; j++ {
		st := strips[j]
		for i, rs := range rects {
			if i == j {
				continue
			}
			for _, r := range rs {
				if r.Empty() {
					continue
				}
				if r.Y0 < st.Y0+st.H && r.Y1 > st.Y0 {
					sched.addSender(j, i)
					break
				}
			}
		}
	}
	return sched
}

// newSchedule returns a schedule over the given strips with no senders yet.
func newSchedule(strips []Strip) *Schedule {
	n := len(strips)
	maskW := (n + 63) / 64
	return &Schedule{
		Strips:   strips,
		Senders:  make([][]int, n),
		sendMask: make([]uint64, n*maskW),
		maskW:    maskW,
	}
}

// addSender schedules member i to message member j. Callers add a strip's
// senders in ascending order, which is the order SLICWith receives them in.
func (s *Schedule) addSender(j, i int) {
	s.Senders[j] = append(s.Senders[j], i)
	s.sendMask[j*s.maskW+(i>>6)] |= 1 << (uint(i) & 63)
}

// fullSchedule is direct send written as a schedule: n equal strips of an
// h-row image, every member a sender of every other member's strip.
func fullSchedule(h, n int) *Schedule {
	sched := newSchedule(equalStrips(h, n))
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i != j {
				sched.addSender(j, i)
			}
		}
	}
	return sched
}

// SLICWith performs scheduled direct-send compositing: only scheduled
// messages are exchanged (senders with no pixels for a strip stay silent),
// and strip sizes are load-balanced by the precomputed schedule.
//
// Wire payloads, clip buffers and the strip canvas all come from the
// per-rank scratch's pools, so a steady-state frame loop allocates nothing.
// Receivers return payload buffers to this rank's pool as they finish
// compositing; the returned strip belongs to scr until ReleaseStrip is
// called on it (by whoever consumes it). A nil scr is a private scratch,
// so the strip is the caller's.
//
// If a sending rank has been declared lost by the transport, its pixels
// are composited as absent: the returned strip is still valid (partial)
// output and the error matches mpi.ErrPeerLost, so loss-tolerant frame
// loops can keep the strip and mark the frame degraded.
func SLICWith(c *mpi.Comm, group []int, me int, sched *Schedule, frags []*render.Fragment,
	w, h, tagBase int, compress bool, scr *CompositeScratch) (*img.Image, Strip, Stats, error) {

	if scr == nil {
		scr = NewCompositeScratch()
	}
	n := len(group)
	var st Stats
	mine := scr.mine[:0]
	recvd := scr.recvd[:0]
	for j := 0; j < n; j++ {
		// Am I scheduled to send to j?
		if j != me && !sched.sends(j, me) {
			continue
		}
		p := &scr.self
		if j != me {
			p = getPayload(&scr.payloads)
		} else {
			p.reset()
		}
		var bytes int64
		for _, f := range frags {
			bytes += clipFragmentInto(p, f, sched.Strips[j], compress)
		}
		if j == me {
			for i := range p.subs {
				mine = append(mine, &p.subs[i])
			}
			continue
		}
		c.Send(group[j], tagBase, bytes, p)
		st.MsgsSent++
		st.BytesSent += bytes
	}
	lost := 0
	for _, i := range sched.Senders[me] {
		msg, rerr := c.RecvErr(group[i], tagBase)
		if rerr != nil {
			if errors.Is(rerr, mpi.ErrPeerLost) {
				// A dead sender's pixels are simply absent: composite
				// what arrived and report the gap, so the frame loop can
				// degrade instead of dying (docs/faults.md).
				lost++
				continue
			}
			panic(rerr)
		}
		if p, ok := msg.Data.(*wirePayload); ok && p != nil {
			recvd = append(recvd, p)
			for k := range p.subs {
				mine = append(mine, &p.subs[k])
			}
		}
	}
	out := getStrip(&scr.strips, w, sched.Strips[me].H)
	err := compositeStripInto(out, w, sched.Strips[me], mine)
	for _, p := range recvd {
		p.Release()
	}
	scr.mine, scr.recvd = mine[:0], recvd[:0]
	if err == nil && lost > 0 {
		// The strip itself is valid (partial) output; callers that
		// tolerate rank loss match ErrPeerLost and keep it.
		err = fmt.Errorf("compositor: composited without %d lost peer(s): %w", lost, mpi.ErrPeerLost)
	}
	return out, sched.Strips[me], st, err
}

// BinarySwapWith is the classic baseline for power-of-two groups. Each
// member must hold a single full-image partial whose contents are
// depth-orderable by group index (member 0 front-most); with the paper's
// scattered block assignment this assumption does not hold, which is why
// the pipeline uses SLIC — binary swap is provided for the compositing
// benchmark.
//
// The two keep images ping-pong between rounds in the per-rank scratch
// (purely rank-local), and each sent half is a pooled payload the receiving
// partner releases after blending — partners change every round, so release
// is the only safe reuse signal. The returned image is scratch-owned and
// valid until the next call; a nil scr is a private scratch, so the image
// is the caller's.
func BinarySwapWith(c *mpi.Comm, group []int, me int, partial *img.Image,
	w, h, tagBase int, scr *CompositeScratch) (*img.Image, Strip, Stats, error) {

	n := len(group)
	if n&(n-1) != 0 {
		return nil, Strip{}, Stats{}, fmt.Errorf("compositor: BinarySwap needs power-of-two group, got %d", n)
	}
	if scr == nil {
		scr = NewCompositeScratch()
	}
	var st Stats
	cur := ensureImg(&scr.bsCur, partial.W, partial.H)
	copy(cur.Pix, partial.Pix)
	y0, hh := 0, h
	for stride := 1; stride < n; stride <<= 1 {
		partner := me ^ stride
		top := me&stride == 0 // I keep the top half
		half := hh / 2
		var keepY, sendY, keepH, sendH int
		if top {
			keepY, keepH = y0, half
			sendY, sendH = y0+half, hh-half
		} else {
			keepY, keepH = y0+half, hh-half
			sendY, sendH = y0, half
		}
		// Slice out the half to ship.
		send := getSwap(&scr.bsOut, w, sendH)
		copy(send.img.Pix, cur.Pix[4*(sendY-y0)*w:4*(sendY-y0+sendH)*w])
		bytes := RawBytes(&send.img)
		c.Send(group[partner], tagBase+stride, bytes, send)
		st.MsgsSent++
		st.BytesSent += bytes
		msg := c.Recv(group[partner], tagBase+stride)
		recv := msg.Data.(*swapPayload)
		keep := ensureImg(&scr.bsKeep[scr.bsSeq&1], w, keepH)
		copy(keep.Pix, cur.Pix[4*(keepY-y0)*w:4*(keepY-y0+keepH)*w])
		// Depth order by group index: lower index is in front.
		if me < partner {
			keep.Under(&recv.img)
		} else {
			keep.Over(&recv.img)
		}
		recv.Release()
		cur, y0, hh = keep, keepY, keepH
		scr.bsSeq++
	}
	return cur, Strip{Y0: y0, H: hh}, st, nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

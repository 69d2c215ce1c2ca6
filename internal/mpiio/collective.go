package mpiio

// Epoch-scoped staging for the collective two-phase read (PR 5). The
// per-call ReadAllInto of PR 4 still allocated its aggregated physical-read
// buffer and shuffle pieces every collective round, because the pieces'
// lifetime crosses rank boundaries: a receiver may still be assembling a
// sender's pieces after the sender's call returned. CollectiveScratch
// retires that allocation with two mechanisms layered on the collective's
// own synchronization:
//
//   - The metadata exchange that starts every round is the epoch boundary.
//     Its completion on any rank proves every rank has *entered* the
//     current round, hence fully *completed* the previous one — so buffers
//     that were only referenced during the previous round (the packed
//     physical-read buffer, the per-destination piece slices, the segment
//     metadata) are dead everywhere and safe to reuse. The exchange is a
//     message-for-message replica of the allgather the per-call path
//     used (gather to rank 0, binomial broadcast), so MsgsSent /
//     BytesSent / MsgsRecv / BytesRecv accounting is bit-identical.
//
//   - Piece release is additionally acknowledged through the exchange
//     itself: the pieces shipped to each destination travel as a pooled
//     *pieceBatch whose receiver releases it after assembling, returning
//     the whole epoch record to the sender's free list once every batch
//     (and the sender's own reference) is back. A consumer that does NOT
//     release — a batch consumer holding pieces across rounds — simply
//     keeps that epoch record out of the free list, so the next round
//     falls back to a fresh record (the pre-epoch per-call behavior) and
//     the held pieces stay intact. This mirrors core.FrameRing's
//     copy-out-or-release contract.
//
// On top of the staging, the scratch remembers the round's *plan* (collPlan):
// everything ReadAllInto derives from the exchanged segment table — the
// physical runs, who is shipped which bytes, where each received piece
// lands — is a pure function of that table, this rank, the communicator
// size and SieveGap. A step loop over a static mesh exchanges the same
// table every round, so the plan is built once and replayed until the
// table's content changes.
//
// See docs/ownership.md for the repository-wide buffer-ownership
// conventions this design follows.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/pool"
)

// metaTagBase is the tag space of the epoch path's metadata exchange (two
// tags per collective round: gather, then broadcast). It sits above the
// shuffle tag space (collTagBase) and below the mpi collective namespace.
const metaTagBase = 1 << 22

// planCopy is one entry of a plan's copy lists: len bytes identified by
// off, moved to or from position pos. What off and pos index depends on the
// list (see collPlan).
type planCopy struct {
	off, pos, len int64
}

// collPlan is the remembered geometry of one two-phase round. It holds
// offsets and lengths only — never file data — so a round that failed or
// was zero-filled cannot poison a later replay, and it is private to its
// rank: table is the scratch's own copy of the exchanged segment table,
// because the slices a round receives belong to the peers (their view
// caches, or a decoded network frame) and are only valid for that round.
type collPlan struct {
	// The key: a plan is replayed when the round's table equals this one
	// segment for segment — one entry per rank, so on a communicator of the
	// same size; a scratch that has built no plan yet has no entries — on
	// the same rank, with the same SieveGap.
	gap   int64
	rank  int
	table [][]Segment // per rank, slices of flat
	flat  []Segment

	empty bool      // no rank requests anything: the round ends after the exchange
	runs  []Segment // this rank's physical reads, packed back to back in this order
	total int64     // packed buffer length

	// send[sendAt[dr]:sendAt[dr+1]] are the pieces shipped to rank dr (off:
	// file offset, pos: packed position), sendBytes[dr] their sum. own are
	// this rank's pieces of its own range (off: packed position, pos:
	// position in dst). expect[expectAt[sr]:expectAt[sr+1]] are the pieces
	// rank sr's range owes this rank, in the order sr ships them (off: file
	// offset, pos: position in dst).
	send      []planCopy
	sendAt    []int
	sendBytes []int64
	own       []planCopy
	expect    []planCopy
	expectAt  []int
}

// metaPayload is the wire form of one rank's view metadata during the
// gather half of the epoch boundary: the rank's absolute view segments,
// shipped by reference. The slice aliases the sender's cached view
// segments, which are stable for the duration of the round; rank 0 copies
// the slice header into its metaTable before broadcasting, so the payload
// struct itself is only read during the gather.
type metaPayload struct {
	segs []Segment
}

// metaTable is the broadcast result of the epoch boundary: every rank's
// view segments, indexed by rank. Rank 0 owns two tables and ping-pongs
// between rounds — a table is read by the other ranks until they finish
// the round it was built for, which is strictly before rank 0 gathers two
// rounds later.
type metaTable struct {
	all [][]Segment
}

// pieceBatch is the pooled wire form of the pieces one rank ships one
// destination during the shuffle phase. The piece data alias the sending
// epoch's packed buffer; the receiver must release the batch after
// assembling (copying) the pieces, which is the acknowledgment the
// sender's epoch recycling waits for.
type pieceBatch struct {
	ep *collEpoch
	ps []piece
}

// release returns the batch's reference on its epoch. Safe to call from
// the receiving rank's goroutine; the batch and its pieces must not be
// touched afterwards.
func (b *pieceBatch) release() { b.ep.release() }

// collEpoch is one collective round's cross-rank staging: the packed
// physical-read buffer every shuffled piece aliases, and the pooled
// per-destination batches. It is reference-counted — one reference per
// batch actually sent plus one for the owning call — and returns to its
// scratch's free list when the count reaches zero.
type collEpoch struct {
	owner   *CollectiveScratch
	packed  []byte
	batches []pieceBatch
	refs    atomic.Int32
}

// release drops one reference, recycling the epoch when none remain.
func (ep *collEpoch) release() {
	if ep.refs.Add(-1) == 0 {
		s := ep.owner
		s.mu.Lock()
		s.free = append(s.free, ep)
		s.mu.Unlock()
	}
}

// CollectiveScratch holds one file handle's reusable collective-read
// staging: the epoch records (packed read buffer + shuffle batches), the
// metadata exchange payloads, and the per-call working slices. A scratch
// belongs to one rank's file handle and is not concurrency-safe — at most
// one collective may be in flight per scratch; only the batch/epoch
// releases arriving from receiving ranks may touch it concurrently (they
// are confined to the mutex-guarded free list).
//
// Buffer ownership follows docs/ownership.md: ReadAllInto's result aliases
// the caller's dst; the pieces shipped to other ranks are released by
// their consumer; and the epoch boundary (the metadata exchange) is what
// makes single-buffered reuse of everything else safe.
type CollectiveScratch struct {
	meta   metaPayload  // this rank's gather payload
	tables [2]metaTable // rank 0's ping-pong gather tables
	flip   int

	mu   sync.Mutex
	free []*collEpoch // epochs with no outstanding references

	plan    collPlan  // the remembered round geometry, replayed while the table is unchanged
	clipped []Segment // plan-build staging: aggregated-range clip of every rank's segments

	// holdBatch, when set (tests only), simulates a non-releasing batch
	// consumer: a received batch for which it returns true is kept instead
	// of released, pinning its epoch out of the free list.
	holdBatch func(*pieceBatch) bool
}

// collective returns the handle's lazily created collective scratch. The
// scratch survives Reopen — like the handle's other steady-state buffers,
// it describes the handle, not the object.
func (f *File) collective() *CollectiveScratch {
	if f.coll == nil {
		f.coll = &CollectiveScratch{}
	}
	return f.coll
}

// acquireEpoch takes an epoch record with no outstanding references from
// the free list, or builds a fresh one when none is available — the first
// rounds, and the fallback when a batch consumer still holds pieces of a
// previous epoch. The record starts with the single reference owned by the
// calling round.
func (s *CollectiveScratch) acquireEpoch(n int) *collEpoch {
	s.mu.Lock()
	var ep *collEpoch
	if k := len(s.free); k > 0 {
		ep = s.free[k-1]
		s.free = s.free[:k-1]
	}
	s.mu.Unlock()
	if ep == nil {
		ep = &collEpoch{owner: s}
	}
	if cap(ep.batches) < n {
		ep.batches = make([]pieceBatch, n)
	}
	ep.batches = ep.batches[:n]
	for i := range ep.batches {
		ep.batches[i].ep = ep
		ep.batches[i].ps = ep.batches[i].ps[:0]
	}
	ep.refs.Store(1)
	return ep
}

// exchangeMeta runs the epoch boundary: an accounting-identical replica of
// the allgather the per-call path used (gather every rank's view segments
// to rank 0, broadcast the table down a binomial tree). When it returns,
// every rank of the communicator has entered the current round — the
// guarantee that makes reusing the previous round's staging safe. The
// returned per-rank segment table is shared read-only by all ranks until
// the end of the round.
func (s *CollectiveScratch) exchangeMeta(c *mpi.Comm, seq int, mySegs []Segment) [][]Segment {
	tagG := metaTagBase + 2*seq
	tagB := tagG + 1
	metaBytes := int64(16 * len(mySegs))
	if c.Rank() != 0 {
		s.meta.segs = mySegs
		c.Send(0, tagG, metaBytes, &s.meta)
		m := c.Recv(mpi.AnySource, tagB)
		tbl := m.Data.(*metaTable)
		// Forward down the binomial tree.
		for k := 1; k < c.Size(); k <<= 1 {
			if c.Rank() < k && c.Rank()+k < c.Size() {
				c.Send(c.Rank()+k, tagB, m.Bytes, tbl)
			}
		}
		return tbl.all
	}
	tbl := &s.tables[s.flip]
	s.flip ^= 1
	tbl.all = pool.Grow(tbl.all, c.Size())
	tbl.all[0] = mySegs
	for i := 0; i < c.Size()-1; i++ {
		m := c.Recv(mpi.AnySource, tagG)
		tbl.all[m.Src] = m.Data.(*metaPayload).segs
	}
	bytes := metaBytes * int64(c.Size())
	for k := 1; k < c.Size(); k <<= 1 {
		c.Send(k, tagB, bytes, tbl)
	}
	return tbl.all
}

// matches reports whether the plan was built for exactly this round: same
// SieveGap, same rank, and a segment table (one entry per rank of the
// communicator) equal to the retained copy. The comparison is by content,
// one linear pass: over the network transport every round's table is a
// freshly decoded slice, so identity would never hit, and in process a peer
// may rewrite its view cache in place, so identity would hit wrongly.
func (p *collPlan) matches(all [][]Segment, gap int64, rank int) bool {
	if p.gap != gap || p.rank != rank || len(all) != len(p.table) {
		return false
	}
	for r, rs := range all {
		if !slices.Equal(rs, p.table[r]) {
			return false
		}
	}
	return true
}

// span returns the start of rank r's aggregation range when [lo, hi) is
// split evenly over m ranks (r == m gives hi).
func span(lo, hi int64, r, m int) int64 {
	return lo + (hi-lo)*int64(r)/int64(m)
}

// buildPlan derives the round geometry from the exchanged table — the
// two-phase partitioning ReadAllInto used to redo every round — and retains
// a private copy of the table as the replay key. It runs when the table
// changed (and on the first round), so unlike ReadAllInto it may allocate
// while its lists grow to size.
func (s *CollectiveScratch) buildPlan(all [][]Segment, gap int64, rank int) {
	p := &s.plan
	size := len(all)
	p.gap, p.rank = gap, rank
	p.flat, p.table = p.flat[:0], p.table[:0]
	for _, rs := range all {
		p.flat = append(p.flat, rs...)
	}
	at := 0
	for _, rs := range all {
		p.table = append(p.table, p.flat[at:at+len(rs):at+len(rs)])
		at += len(rs)
	}
	p.runs, p.send, p.own, p.expect = p.runs[:0], p.send[:0], p.own[:0], p.expect[:0]
	p.sendAt, p.sendBytes, p.expectAt = append(p.sendAt[:0], 0), p.sendBytes[:0], append(p.expectAt[:0], 0)
	p.total = 0
	lo, hi := int64(-1), int64(-1)
	for _, sg := range p.flat {
		if lo < 0 || sg.Off < lo {
			lo = sg.Off
		}
		if e := sg.Off + sg.Len; e > hi {
			hi = e
		}
	}
	if p.empty = lo < 0; p.empty {
		return
	}
	// Phase 1 geometry: this rank aggregates [myLo, myHi) — the union of
	// every rank's segments clipped to it, read with data sieving into one
	// packed buffer.
	myLo, myHi := span(lo, hi, rank, size), span(lo, hi, rank+1, size)
	s.clipped = s.clipped[:0]
	for _, sg := range p.flat {
		if cl := clip(sg, myLo, myHi); cl.Len > 0 {
			s.clipped = append(s.clipped, cl)
		}
	}
	s.clipped = Coalesce(s.clipped)
	p.runs = planSieveInto(p.runs, s.clipped, gap)
	for _, r := range p.runs {
		p.total += r.Len
	}
	// Phase 2 geometry: what this range owes every rank, itself included.
	for dr, rs := range p.table {
		var bytes, viewAt int64 // viewAt: sg's position in rank dr's packed view
		ri, base := 0, int64(0) // runs[ri] starts at packed position base; runs and segments both ascend
		for _, sg := range rs {
			segAt := viewAt
			viewAt += sg.Len
			cl := clip(sg, myLo, myHi)
			if cl.Len == 0 {
				continue
			}
			for cl.Off >= p.runs[ri].Off+p.runs[ri].Len {
				base += p.runs[ri].Len
				ri++
			}
			packedAt := base + cl.Off - p.runs[ri].Off
			if dr == rank {
				p.own = append(p.own, planCopy{packedAt, segAt + cl.Off - sg.Off, cl.Len})
			} else {
				p.send = append(p.send, planCopy{cl.Off, packedAt, cl.Len})
				bytes += cl.Len
			}
		}
		p.sendAt = append(p.sendAt, len(p.send))
		p.sendBytes = append(p.sendBytes, bytes)
	}
	// What every other range owes this rank, in the order its owner ships
	// it: this rank's segments clipped to that range.
	for sr := 0; sr < size; sr++ {
		if sr != rank {
			srLo, srHi := span(lo, hi, sr, size), span(lo, hi, sr+1, size)
			viewAt := int64(0)
			for _, sg := range p.table[rank] {
				if cl := clip(sg, srLo, srHi); cl.Len > 0 {
					p.expect = append(p.expect, planCopy{cl.Off, viewAt + cl.Off - sg.Off, cl.Len})
				}
				viewAt += sg.Len
			}
		}
		p.expectAt = append(p.expectAt, len(p.expect))
	}
}

// assembleStray places a received piece the plan did not expect where it
// was — or where it was expected with another length — by locating its
// view segment the way every piece used to be: binary search, then the
// segment's packed position. It returns the piece length, or -1 for a
// piece that starts in none of the view's segments.
func assembleStray(dst []byte, mySegs []Segment, pc piece) int64 {
	si := findSegIdx(mySegs, pc.Off)
	if si < 0 {
		return -1
	}
	pos := pc.Off - mySegs[si].Off
	for _, sg := range mySegs[:si] {
		pos += sg.Len
	}
	copy(dst[pos:], pc.Data)
	return int64(len(pc.Data))
}

// ReadAllInto performs a collective read of every rank's view using
// two-phase I/O (mirrors MPI_FILE_READ_ALL): the union of all requests is
// split into one contiguous file range per rank; each rank reads its range
// with data sieving and redistributes the pieces. The useful bytes of this
// rank's view are assembled, packed in view order, into dst (which must
// hold ViewSize bytes), and the byte count is returned. The result is the
// caller's dst; no internal buffer aliases it after the call.
//
// The two-phase internals stage the aggregated physical reads and the
// cross-rank shuffle pieces in the handle's CollectiveScratch, scoped by
// epoch: each round's metadata exchange doubles as the epoch boundary
// (when it completes, every rank has finished the previous round), and the
// shipped piece batches are additionally released by their receivers, so a
// steady-state collective read allocates nothing on any rank while
// PhysReads/PhysBytes/UsefulBytes/ShuffleBytes and the communicator's
// message accounting stay bit-identical to the per-call oracle the tests
// keep (readAllIntoPerCall). The partitioning itself — runs, piece lists,
// landing positions — is derived from the exchanged segment table only
// when that table, this rank or SieveGap changed; otherwise the scratch's
// plan is replayed (collPlan), with the same reads, messages and bytes.
//
// Every rank of the communicator must call the collective in the same
// order, and consecutive collectives on one communicator must use distinct
// seq values (tags are derived from seq).
//
// Failure domain (docs/faults.md): no rank-local failure aborts the
// collective mid-round — that would strand peers in the exchange or the
// shuffle Recv. A rank whose own view is invalid for the open object (or
// whose dst is too small) requests nothing, still aggregates its range and
// ships its peers' pieces, and gets the error after the round; a failed
// physical read is zero-filled, the round runs to structural completion,
// and the error surfaces only on the failing rank, after the round. Callers
// must not re-issue a completed collective from one rank alone (the peers
// have moved on); recovery above this layer means degrading, and transient
// faults are expected to be healed *below* it (pfs.RetryStore).
//
//repro:allocfree
func (f *File) ReadAllInto(seq int, dst []byte) (int, error) {
	c := f.c
	s := f.collective() //repro:allow allocfree: lazy scratch init, first collective only
	mySegs, useful, preErr := f.segs()
	if preErr == nil && int64(len(dst)) < useful {
		preErr = fmt.Errorf("mpiio: ReadAllInto buffer holds %d of %d view bytes: %w", len(dst), useful, pfs.ErrPermanent)
	}
	if preErr != nil {
		// This rank cannot read its own view, but its peers have entered (or
		// will enter) the round and count on it for the exchange and for the
		// pieces of its range: deserting here would strand them. Request
		// nothing, serve the round, surface the error afterwards.
		mySegs = nil
	}
	// Phase 0: exchange request metadata — the epoch boundary.
	all := s.exchangeMeta(c, seq, mySegs)
	p := &s.plan
	if !p.matches(all, f.SieveGap, c.Rank()) {
		s.buildPlan(all, f.SieveGap, c.Rank())
	}
	if p.empty { // nobody wants anything
		return 0, preErr
	}
	tag := collTagBase + seq
	// Phase 1: read this rank's aggregation range. The packed buffer and
	// the per-destination batches belong to the epoch: pieces shipped to
	// other ranks alias them until released.
	ep := s.acquireEpoch(c.Size())
	ep.packed = pool.Grow(ep.packed, int(p.total)) //repro:allow allocfree: amortized epoch-buffer growth
	packed := ep.packed[:p.total]
	var readErr error
	base := int64(0)
	for _, r := range p.runs {
		buf := packed[base : base+r.Len]
		base += r.Len
		if err := f.st.ReadAt(f.c, f.name, r.Off, buf); err != nil {
			// A failed physical read MUST NOT abort the collective here:
			// returning before the shuffle sends would leave every peer
			// blocked in Recv forever. Zero-fill the run, run the round to
			// structural completion, and surface the first error afterwards.
			// Peers receive the zero-filled pieces without an error signal —
			// only downstream validation can catch them (docs/faults.md).
			if readErr == nil {
				readErr = fmt.Errorf("mpiio: collective read of %q run [%d,%d): %w", f.name, r.Off, r.Off+r.Len, err)
			}
			clear(buf)
		} else {
			f.PhysReads++
			f.PhysBytes += r.Len
		}
	}
	// Phase 2: send every rank the pieces of its view that fall in my
	// range; own pieces are copied straight from the runs.
	for dr := 0; dr < c.Size(); dr++ {
		if dr == c.Rank() {
			continue
		}
		b := &ep.batches[dr]
		for _, e := range p.send[p.sendAt[dr]:p.sendAt[dr+1]] {
			b.ps = append(b.ps, piece{Off: e.off, Data: packed[e.pos : e.pos+e.len]})
		}
		ep.refs.Add(1)
		c.Send(dr, tag, p.sendBytes[dr], b)
		if len(b.ps) > 0 {
			f.ShuffleBytes += p.sendBytes[dr]
			f.ShuffleMsgs++
		}
	}
	filled := int64(0)
	for _, e := range p.own {
		copy(dst[e.pos:e.pos+e.len], packed[e.off:])
		filled += e.len
	}
	// Received batches are copied and released. A piece that is the one the
	// plan expects next from its source — same offset, same length — goes
	// where the plan says; anything else is located the slow way, which
	// rejects strays.
	var recvErr error
	for sr := 0; sr < c.Size(); sr++ {
		if sr == c.Rank() {
			continue
		}
		msg := c.Recv(sr, tag)
		b, ok := msg.Data.(*pieceBatch)
		if !ok || b == nil {
			if msg.Data != nil && recvErr == nil {
				recvErr = fmt.Errorf("mpiio: collective shuffle got unexpected payload %T from rank %d: %w", msg.Data, sr, pfs.ErrPermanent)
			}
			continue
		}
		expect := p.expect[p.expectAt[sr]:p.expectAt[sr+1]]
		for i, pc := range b.ps {
			if i < len(expect) && pc.Off == expect[i].off && int64(len(pc.Data)) == expect[i].len {
				copy(dst[expect[i].pos:], pc.Data)
				filled += expect[i].len
			} else if n := assembleStray(dst, mySegs, pc); n >= 0 {
				filled += n
			} else if recvErr == nil {
				recvErr = fmt.Errorf("mpiio: received stray piece at %d: %w", pc.Off, pfs.ErrPermanent)
			}
		}
		if s.holdBatch == nil || !s.holdBatch(b) {
			b.release()
		}
	}
	ep.release()
	if preErr != nil {
		return 0, preErr
	}
	if readErr != nil {
		return 0, readErr
	}
	if recvErr != nil {
		return 0, recvErr
	}
	if filled != useful {
		return 0, fmt.Errorf("mpiio: two-phase assembled %d of %d bytes: %w", filled, useful, pfs.ErrPermanent)
	}
	f.UsefulBytes += useful
	return int(useful), nil
}

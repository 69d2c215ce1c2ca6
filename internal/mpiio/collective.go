package mpiio

// Epoch-scoped staging for the collective two-phase read (PR 5). The
// per-call ReadAllInto of PR 4 allocated its aggregated physical-read
// buffer and shuffle pieces every collective round, because the pieces'
// lifetime crosses rank boundaries: a receiver may still be assembling a
// sender's pieces after the sender's call returned. CollectiveScratch
// retires that allocation with one rule layered on the collective's own
// synchronization: the metadata exchange that starts every round is the
// epoch boundary. Its completion on any rank proves every rank of the
// communicator has *entered* the current round, hence fully *completed*
// the previous one — so everything that was only referenced during the
// previous round (the packed physical-read buffer, the per-destination
// piece batches, the segment metadata) is dead everywhere and safe to
// reuse, single-buffered, with no handshake. The exchange is a
// message-for-message replica of the allgather the per-call path used
// (gather to rank 0, binomial broadcast), so MsgsSent / BytesSent /
// MsgsRecv / BytesRecv accounting is bit-identical. The boundary speaks for
// one communicator only, so a receiver's release of a batch clears the
// batch's out flag: a round that finds one still out — its predecessor ran
// on another communicator of a live world — starts from fresh staging,
// and every other round, on one communicator or across worlds run one
// after another, reuses it.
//
// On top of the staging, the scratch remembers the rounds' *plans*
// (collPlan): what ReadAllInto derives from the exchanged segment table —
// the physical runs and who is shipped which bytes — is a pure function of
// that table, this rank and the communicator size. A step loop exchanges
// one table per distinct set of views, one per step at most, so each plan
// is built once and replayed whenever its table comes round again. Where
// each received piece lands needs no list: it is this rank's own segments,
// clipped to the sender's range, walked in order.
//
// See docs/ownership.md for the repository-wide buffer-ownership
// conventions this design follows.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/pool"
)

// metaTagBase is the tag space of the epoch path's metadata exchange (two
// tags per collective round: gather, then broadcast). It sits above the
// shuffle tag space (collTagBase) and below the mpi collective namespace.
const metaTagBase = 1 << 22

// planCopy is one entry of a plan's send list: len bytes at file offset
// off, taken from packed position pos.
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
	// same size — on the same rank. A rank's entry that is a committed
	// type's shared array (frozen) is kept as that array, and compared by
	// identity: the array never changes, so the same array is the same
	// segments, and holding it keeps its memory from being reused. Every
	// other entry is a copy, in flat.
	rank   int
	table  [][]Segment // per rank: the frozen array, or a slice of flat
	flat   []Segment
	frozen []bool

	empty  bool      // no rank requests anything: the round ends after the exchange
	lo, hi int64     // the union of every rank's segments spans [lo, hi): span splits it
	runs   []Segment // this rank's physical reads, packed back to back in this order
	total  int64     // packed buffer length

	// send[sendAt[dr]:sendAt[dr+1]] are the pieces shipped to rank dr (off:
	// file offset, pos: packed position), sendBytes[dr] their sum. What
	// this rank's own range and every other range owe it is not listed:
	// it is this rank's own segments (table[rank]) clipped to the range,
	// in order, which ReadAllInto walks (ownPieces, expectation).
	send      []planCopy
	sendAt    []int
	sendBytes []int64
}

// metaPayload is the wire form of one rank's view metadata during the
// gather half of the epoch boundary: the rank's absolute view segments,
// shipped by reference. The slice aliases the sender's cached view
// segments, which are stable for the duration of the round; rank 0 copies
// the slice header into its metaTable before broadcasting, so the payload
// struct itself is only read during the gather.
type metaPayload struct {
	segs   []Segment
	frozen bool // segs is a committed type's shared array (never on the wire)
}

// metaTable is the broadcast result of the epoch boundary: every rank's
// view segments, indexed by rank. Rank 0 owns two tables and ping-pongs
// between rounds — a table is read by the other ranks until they finish
// the round it was built for, which is strictly before rank 0 gathers two
// rounds later.
type metaTable struct {
	all    [][]Segment
	frozen []bool // per rank: all[r] is a committed type's array; nil off the wire
}

// pieceBatch is the wire form of the pieces one rank ships one destination
// during the shuffle phase. A batch shipped by reference is the sender's
// CollectiveScratch staging: its pieces alias the sender's packed buffer,
// and it is out from the send until the receiver releases it (or the
// network codec has encoded it). A batch decoded from the network owns a
// copy of the piece bytes, comes from the receiving process's netBatches
// pool, and goes back there when ReadAllInto releases it.
type pieceBatch struct {
	ps      []piece
	data    []byte      // decoded batches: the bytes ps aliases
	decoded bool        // drawn from netBatches
	out     atomic.Bool // shipped by reference and not yet released
}

// release ends the receiver's use of a batch: a decoded one goes back to
// netBatches, a batch shipped by reference is no longer out.
func (b *pieceBatch) release() {
	if b.decoded {
		netBatches.Put(b)
		return
	}
	b.out.Store(false)
}

// CollectiveScratch holds one file handle's reusable collective-read
// staging: the packed read buffer and shuffle batches, the metadata
// exchange payloads, the remembered plan, and the per-call working slices.
// A scratch belongs to one rank's file handle and is not
// concurrency-safe: at most one collective may be in flight per scratch;
// only receivers clearing a batch's out flag touch it concurrently.
//
// Buffer ownership follows docs/ownership.md: ReadAllInto's result aliases
// the caller's dst, and the epoch boundary (the metadata exchange) is what
// makes single-buffered reuse of everything else safe.
type CollectiveScratch struct {
	meta   metaPayload  // this rank's gather payload
	tables [2]metaTable // rank 0's ping-pong gather tables
	flip   int

	packed  []byte       // this rank's physical reads; shipped pieces alias it
	batches []pieceBatch // per destination rank, shipped by reference

	plans   []collPlan // the remembered round geometries, one per distinct table met
	next    int        // where planFor's search starts: the plan after the last one matched
	clipped []Segment  // plan-build staging: aggregated-range clip of every rank's segments
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

// exchangeMeta runs the epoch boundary: an accounting-identical replica of
// the allgather the per-call path used (gather every rank's view segments
// to rank 0, broadcast the table down a binomial tree). When it returns,
// every rank of the communicator has entered the current round — the
// guarantee that makes reusing the previous round's staging safe. The
// returned per-rank segment table is shared read-only by all ranks until
// the end of the round.
func (s *CollectiveScratch) exchangeMeta(c *mpi.Comm, seq int, mySegs []Segment, frozen bool) *metaTable {
	tagG := metaTagBase + 2*seq
	tagB := tagG + 1
	metaBytes := int64(16 * len(mySegs))
	if c.Rank() != 0 {
		s.meta.segs, s.meta.frozen = mySegs, frozen
		c.Send(0, tagG, metaBytes, &s.meta)
		m := c.Recv(mpi.AnySource, tagB)
		tbl := m.Data.(*metaTable)
		// Forward down the binomial tree.
		for k := 1; k < c.Size(); k <<= 1 {
			if c.Rank() < k && c.Rank()+k < c.Size() {
				c.Send(c.Rank()+k, tagB, m.Bytes, tbl)
			}
		}
		return tbl
	}
	tbl := &s.tables[s.flip]
	s.flip ^= 1
	tbl.all, tbl.frozen = pool.Grow(tbl.all, c.Size()), pool.Grow(tbl.frozen, c.Size())
	tbl.all[0], tbl.frozen[0] = mySegs, frozen
	for i := 0; i < c.Size()-1; i++ {
		m := c.Recv(mpi.AnySource, tagG)
		mp := m.Data.(*metaPayload)
		tbl.all[m.Src], tbl.frozen[m.Src] = mp.segs, mp.frozen
	}
	bytes := metaBytes * int64(c.Size())
	for k := 1; k < c.Size(); k <<= 1 {
		c.Send(k, tagB, bytes, tbl)
	}
	return tbl
}

// frozenAt reports whether rank r's entry of the table is a committed
// type's shared array.
func (t *metaTable) frozenAt(r int) bool { return r < len(t.frozen) && t.frozen[r] }

// matches reports whether the plan was built for exactly this round: same
// rank, and a segment table (one entry per rank of the communicator) equal
// to the retained copy. An entry that is frozen now and was when the plan
// was built is equal when it is the same array; any other entry is
// compared by content, one linear pass: over the network transport every
// round's table is a freshly decoded slice, so identity would never hit,
// and in process a peer may rewrite a view cache that is not a committed
// type's in place, so identity would hit wrongly.
func (p *collPlan) matches(tbl *metaTable, rank int) bool {
	if p.rank != rank || len(tbl.all) != len(p.table) {
		return false
	}
	for r, rs := range tbl.all {
		if p.frozen[r] && tbl.frozenAt(r) {
			if len(rs) != len(p.table[r]) || len(rs) > 0 && &rs[0] != &p.table[r][0] {
				return false
			}
		} else if !slices.Equal(rs, p.table[r]) {
			return false
		}
	}
	return true
}

// planFor returns the remembered plan of this round's table, building and
// keeping one when none matches, which it reports. The scratch keeps one
// plan per distinct table it has met, so their number is that of the
// distinct sets of views its callers read through — one per step at most
// for a step loop. The search starts after the plan the previous round
// matched, so a loop that meets its tables in the same order every pass
// matches each at the first comparison.
func (s *CollectiveScratch) planFor(tbl *metaTable, rank int) (*collPlan, bool) {
	n := len(s.plans)
	for k := range n {
		i := (s.next + k) % n
		if s.plans[i].matches(tbl, rank) {
			s.next = (i + 1) % n
			return &s.plans[i], false
		}
	}
	s.plans = append(s.plans, collPlan{})
	p := &s.plans[n]
	s.buildPlan(p, tbl, rank)
	// A new plan's lists grew by appending; it is kept for the run, so it
	// keeps no more than it holds.
	p.runs, p.send = slices.Clone(p.runs), slices.Clone(p.send)
	s.next = 0
	return p, true
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
func (s *CollectiveScratch) buildPlan(p *collPlan, tbl *metaTable, rank int) {
	all := tbl.all
	size := len(all)
	p.rank = rank
	p.flat, p.table, p.frozen = p.flat[:0], p.table[:0], p.frozen[:0]
	for r, rs := range all {
		if !tbl.frozenAt(r) {
			p.flat = append(p.flat, rs...)
		}
	}
	at := 0
	for r, rs := range all {
		fz := tbl.frozenAt(r)
		p.frozen = append(p.frozen, fz)
		if fz {
			p.table = append(p.table, rs)
			continue
		}
		p.table = append(p.table, p.flat[at:at+len(rs):at+len(rs)])
		at += len(rs)
	}
	p.runs, p.send = p.runs[:0], p.send[:0]
	p.sendAt, p.sendBytes = append(p.sendAt[:0], 0), p.sendBytes[:0]
	p.total = 0
	lo, hi := int64(-1), int64(-1)
	for _, rs := range p.table {
		for _, sg := range rs {
			if lo < 0 || sg.Off < lo {
				lo = sg.Off
			}
			if e := sg.Off + sg.Len; e > hi {
				hi = e
			}
		}
	}
	if p.empty = lo < 0; p.empty {
		return
	}
	p.lo, p.hi = lo, hi
	// Phase 1 geometry: this rank aggregates [myLo, myHi) — the union of
	// every rank's segments clipped to it, read with data sieving into one
	// packed buffer.
	myLo, myHi := span(lo, hi, rank, size), span(lo, hi, rank+1, size)
	s.clipped = s.clipped[:0]
	for _, rs := range p.table {
		for _, sg := range rs {
			if cl := clip(sg, myLo, myHi); cl.Len > 0 {
				s.clipped = append(s.clipped, cl)
			}
		}
	}
	s.clipped = Coalesce(s.clipped)
	p.runs = planSieveInto(p.runs, s.clipped, sieveGap)
	for _, r := range p.runs {
		p.total += r.Len
	}
	// Phase 2 geometry: what this range owes every other rank.
	for dr, rs := range p.table {
		var bytes int64
		if dr != rank {
			ri, base := 0, int64(0) // runs[ri] starts at packed position base; runs and segments both ascend
			for _, sg := range rs {
				cl := clip(sg, myLo, myHi)
				if cl.Len == 0 {
					continue
				}
				for cl.Off >= p.runs[ri].Off+p.runs[ri].Len {
					base += p.runs[ri].Len
					ri++
				}
				p.send = append(p.send, planCopy{cl.Off, base + cl.Off - p.runs[ri].Off, cl.Len})
				bytes += cl.Len
			}
		}
		p.sendAt = append(p.sendAt, len(p.send))
		p.sendBytes = append(p.sendBytes, bytes)
	}
}

// ownPieces copies the pieces of this rank's view that fall in its own
// range from the packed runs to their places in dst and returns their
// byte count: its segments, mine, clipped to [lo, hi), located in the runs
// by a cursor (runs and segments both ascend).
func (p *collPlan) ownPieces(dst, packed []byte, mine []Segment, lo, hi int64) int64 {
	var filled, viewAt int64
	ri, base := 0, int64(0) // runs[ri] starts at packed position base
	for _, sg := range mine {
		segAt := viewAt
		viewAt += sg.Len
		cl := clip(sg, lo, hi)
		if cl.Len == 0 {
			continue
		}
		for cl.Off >= p.runs[ri].Off+p.runs[ri].Len {
			base += p.runs[ri].Len
			ri++
		}
		at := base + cl.Off - p.runs[ri].Off
		copy(dst[segAt+cl.Off-sg.Off:][:cl.Len], packed[at:at+cl.Len])
		filled += cl.Len
	}
	return filled
}

// expectation walks the pieces one aggregation range [lo, hi) owes this
// rank, in the order its owner ships them: this rank's segments from
// mine[j] on (the first that is not wholly below the range; at is its
// position in the rank's packed view) clipped to the range.
type expectation struct {
	mine   []Segment
	j      int
	at     int64
	lo, hi int64
}

// next returns the next piece expected — its file segment and its
// position in dst — or false when the range owes no more.
func (e *expectation) next() (Segment, int64, bool) {
	for e.j < len(e.mine) && e.mine[e.j].Off < e.hi {
		sg, segAt := e.mine[e.j], e.at
		e.j++
		e.at += sg.Len
		if cl := clip(sg, e.lo, e.hi); cl.Len > 0 {
			return cl, segAt + cl.Off - sg.Off, true
		}
	}
	return Segment{}, 0, false
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
// (when it completes, every rank has finished the previous round), so the
// staging is single-buffered and a steady-state collective read allocates
// nothing on any rank while
// PhysReads/PhysBytes/UsefulBytes/ShuffleBytes and the communicator's
// message accounting stay bit-identical to the per-call oracle the tests
// keep (readAllIntoPerCall). The partitioning itself — runs and the
// pieces shipped — is derived from the exchanged segment table only the
// first time this rank meets that table; afterwards the scratch's plan of
// it is replayed (collPlan), with the same reads, messages and bytes.
// Every received piece must be the next one expected from its source,
// offset and length — this rank's next segment clipped to the source's
// range: both sides derive them from the same exchanged table, so anything
// else is refused as a permanent error after the round, like a short or
// missing piece.
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
	p, built := s.planFor(s.exchangeMeta(c, seq, mySegs, f.frozen && preErr == nil), c.Rank())
	if built {
		f.PlanBuilds++
	}
	if p.empty { // nobody wants anything
		return 0, preErr
	}
	tag := collTagBase + seq
	// Phase 1: read this rank's aggregation range. The packed buffer and
	// the per-destination batches are the scratch's: pieces shipped to other
	// ranks alias them until their receiver releases the batch, which on one
	// communicator the exchange above has just proven. A batch still out
	// was shipped on another communicator whose receiver is not done.
	for i := range s.batches {
		if s.batches[i].out.Load() {
			s.packed, s.batches = nil, nil
			break
		}
	}
	s.packed, s.batches = pool.Grow(s.packed, int(p.total)), pool.Grow(s.batches, c.Size()) //repro:allow allocfree: amortized staging growth
	packed := s.packed[:p.total]
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
		b := &s.batches[dr]
		b.ps = b.ps[:0]
		for _, e := range p.send[p.sendAt[dr]:p.sendAt[dr+1]] {
			b.ps = append(b.ps, piece{Off: e.off, Data: packed[e.pos : e.pos+e.len]})
		}
		b.out.Store(true)
		c.Send(dr, tag, p.sendBytes[dr], b)
		if len(b.ps) > 0 {
			f.ShuffleBytes += p.sendBytes[dr]
			f.ShuffleMsgs++
		}
	}
	size, mine := c.Size(), p.table[c.Rank()]
	filled := p.ownPieces(dst, packed, mine, span(p.lo, p.hi, c.Rank(), size), span(p.lo, p.hi, c.Rank()+1, size))
	// Received batches are copied and released. A piece goes where the plan
	// says only if it is the one the plan expects next from its source —
	// same offset, same length; anything else is refused.
	var recvErr error
	k, kAt := 0, int64(0) // mine[k]: this rank's first segment not wholly below range sr; kAt its view position
	for sr := 0; sr < size; sr++ {
		srLo, srHi := span(p.lo, p.hi, sr, size), span(p.lo, p.hi, sr+1, size)
		for k < len(mine) && mine[k].Off+mine[k].Len <= srLo {
			kAt += mine[k].Len
			k++
		}
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
		expect := expectation{mine: mine, j: k, at: kAt, lo: srLo, hi: srHi}
		for i, pc := range b.ps {
			if seg, pos, ok := expect.next(); ok && pc.Off == seg.Off && int64(len(pc.Data)) == seg.Len {
				copy(dst[pos:], pc.Data)
				filled += seg.Len
			} else if recvErr == nil {
				recvErr = fmt.Errorf("mpiio: rank %d shipped piece %d at [%d,%d), not the one the plan expects: %w",
					sr, i, pc.Off, pc.Off+int64(len(pc.Data)), pfs.ErrPermanent)
			}
		}
		b.release()
	}
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

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
//     message-for-message replica of the mpi.Comm.Allgather the per-call
//     path used (gather to rank 0, binomial broadcast), so MsgsSent /
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
// See docs/ownership.md for the repository-wide buffer-ownership
// conventions this design follows.

import (
	"fmt"
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

// physRun records where one physical sieve run of the aggregated range
// landed in the epoch's packed buffer.
type physRun struct {
	off, base, len int64
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

	clipped []Segment // aggregated-range clip of every rank's segments
	plan    []Segment // sieve plan over the clipped union
	runs    []physRun // where each plan entry landed in the packed buffer

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
// the Allgather the per-call path used (gather every rank's view segments
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
		// Forward down the binomial tree exactly as mpi.Comm.Bcast does.
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

// assemblePiece copies one piece into its packed position within dst
// (prefix holds the packed start of each view segment) and returns the
// piece length, or -1 when the piece matches no view segment.
func assemblePiece(dst []byte, mySegs []Segment, prefix []int64, pc piece) int64 {
	si := findSegIdx(mySegs, pc.Off)
	if si < 0 {
		return -1
	}
	copy(dst[prefix[si]+pc.Off-mySegs[si].Off:], pc.Data)
	return int64(len(pc.Data))
}

// lookupRun returns the packed-buffer bytes of file range [off, off+n),
// which must fall inside one physical run.
func lookupRun(runs []physRun, packed []byte, off, n int64) []byte {
	for _, r := range runs {
		if off >= r.off && off+n <= r.off+r.len {
			return packed[r.base+off-r.off : r.base+off-r.off+n]
		}
	}
	panic("mpiio: two-phase lookup miss")
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
// keep (readAllIntoPerCall).
//
// Every rank of the communicator must call the collective in the same
// order, and consecutive collectives on one communicator must use distinct
// seq values (tags are derived from seq).
//
// Failure domain (docs/faults.md): a failed physical read never aborts the
// collective mid-round — that would strand peers in the shuffle Recv. The
// round runs to structural completion with the failed run zero-filled, and
// the error surfaces only on the failing rank, after the round. Callers
// must not re-issue a completed collective from one rank alone (the peers
// have moved on); recovery above this layer means degrading, and transient
// faults are expected to be healed *below* it (pfs.RetryStore).
//
//repro:allocfree
func (f *File) ReadAllInto(seq int, dst []byte) (int, error) {
	c := f.c
	s := f.collective() //repro:allow allocfree: lazy scratch init, first collective only
	mySegs, err := f.segs()
	if err != nil {
		return 0, err
	}
	var useful int64
	for _, sg := range mySegs {
		useful += sg.Len
	}
	if int64(len(dst)) < useful {
		return 0, fmt.Errorf("mpiio: ReadAllInto buffer holds %d of %d view bytes: %w", len(dst), useful, pfs.ErrPermanent)
	}
	// Phase 0: exchange request metadata — the epoch boundary.
	all := s.exchangeMeta(c, seq, mySegs)
	lo, hi := int64(-1), int64(-1)
	for _, rs := range all {
		for _, sg := range rs {
			if lo < 0 || sg.Off < lo {
				lo = sg.Off
			}
			if e := sg.Off + sg.Len; e > hi {
				hi = e
			}
		}
	}
	if lo < 0 { // nobody wants anything
		return 0, nil
	}
	tag := collTagBase + seq
	// Phase 1: this rank aggregates the file range [myLo, myHi).
	span := hi - lo
	m := int64(c.Size())
	myLo := lo + span*int64(c.Rank())/m
	myHi := lo + span*int64(c.Rank()+1)/m
	s.clipped = s.clipped[:0]
	for _, rs := range all {
		for _, sg := range rs {
			if cl := clip(sg, myLo, myHi); cl.Len > 0 {
				s.clipped = append(s.clipped, cl)
			}
		}
	}
	s.clipped = Coalesce(s.clipped)
	s.plan = planSieveInto(s.plan[:0], s.clipped, f.SieveGap)
	var total int64
	for _, p := range s.plan {
		total += p.Len
	}
	// The packed buffer and the per-destination batches belong to the
	// epoch: pieces shipped to other ranks alias them until released.
	ep := s.acquireEpoch(c.Size())
	ep.packed = pool.Grow(ep.packed, int(total)) //repro:allow allocfree: amortized epoch-buffer growth
	packed := ep.packed[:total]
	s.runs = s.runs[:0]
	base := int64(0)
	var readErr error
	for _, p := range s.plan {
		buf := packed[base : base+p.Len]
		if err := f.st.ReadAt(f.c, f.name, p.Off, buf); err != nil {
			// A failed physical read MUST NOT abort the collective here:
			// returning before the shuffle sends would leave every peer
			// blocked in Recv forever. Zero-fill the run, run the round to
			// structural completion, and surface the first error afterwards.
			// Peers receive the zero-filled pieces without an error signal —
			// only downstream validation can catch them (docs/faults.md).
			if readErr == nil {
				readErr = fmt.Errorf("mpiio: collective read of %q run [%d,%d): %w", f.name, p.Off, p.Off+p.Len, err)
			}
			clear(buf)
		} else {
			f.PhysReads++
			f.PhysBytes += p.Len
		}
		s.runs = append(s.runs, physRun{p.Off, base, p.Len})
		base += p.Len
	}
	// Phase 2: send every rank the pieces of its view that fall in my
	// range (own pieces are assembled locally from the runs).
	for dr := 0; dr < c.Size(); dr++ {
		if dr == c.Rank() {
			continue
		}
		b := &ep.batches[dr]
		var bytes int64
		for _, sg := range all[dr] {
			if cl := clip(sg, myLo, myHi); cl.Len > 0 {
				b.ps = append(b.ps, piece{Off: cl.Off, Data: lookupRun(s.runs, packed, cl.Off, cl.Len)})
				bytes += cl.Len
			}
		}
		ep.refs.Add(1)
		c.Send(dr, tag, bytes, b)
		if len(b.ps) > 0 {
			f.ShuffleBytes += bytes
			f.ShuffleMsgs++
		}
	}
	// Assemble into packed view order: prefix sums give each (sorted)
	// segment's packed position; own pieces come straight from the runs,
	// received batches are copied and released.
	if cap(f.prefix) < len(mySegs)+1 {
		f.prefix = make([]int64, len(mySegs)+1) //repro:allow allocfree: amortized growth, guarded by cap check
	}
	prefix := f.prefix[:len(mySegs)+1]
	prefix[0] = 0
	for i, sg := range mySegs {
		prefix[i+1] = prefix[i] + sg.Len
	}
	filled := int64(0)
	for _, sg := range mySegs {
		if cl := clip(sg, myLo, myHi); cl.Len > 0 {
			n := assemblePiece(dst, mySegs, prefix, piece{Off: cl.Off, Data: lookupRun(s.runs, packed, cl.Off, cl.Len)})
			if n < 0 {
				ep.release()
				return 0, fmt.Errorf("mpiio: received stray piece at %d: %w", cl.Off, pfs.ErrPermanent)
			}
			filled += n
		}
	}
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
		for _, pc := range b.ps {
			if n := assemblePiece(dst, mySegs, prefix, pc); n < 0 {
				if recvErr == nil {
					recvErr = fmt.Errorf("mpiio: received stray piece at %d: %w", pc.Off, pfs.ErrPermanent)
				}
			} else {
				filled += n
			}
		}
		if s.holdBatch == nil || !s.holdBatch(b) {
			b.release()
		}
	}
	ep.release()
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

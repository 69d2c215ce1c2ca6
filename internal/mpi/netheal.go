package mpi

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// This file is the network transport's failure domain (docs/faults.md
// "Network failure domain"): the liveness rule, the per-connection reader
// loop, heartbeats, the heal path (re-dial or wait, the reattach
// handshake, adoption), peer-loss declaration, and teardown. Every frame
// write, a replay or an injected fault included, is flush's.

// DroppedMessagesError is returned by NetWorld.Close when in-flight
// messages that no Recv ever matched were drained at shutdown, so
// callers can distinguish a clean close from message loss.
type DroppedMessagesError struct {
	// Rank is the closing rank.
	Rank int
	// Count is how many unconsumed messages were dropped.
	Count int
}

// Error formats the loss.
func (e *DroppedMessagesError) Error() string {
	return fmt.Sprintf("mpi: rank %d closed with %d unconsumed in-flight messages", e.Rank, e.Count)
}

// Close tears the transport down: it stops the heartbeat and healing
// machinery, closes every peer connection and this rank's listener, and
// waits for the reader goroutines to drain. Close only after all
// communication has completed (e.g. after a final Barrier); in-flight
// unmatched messages are drained and surfaced as a
// *DroppedMessagesError so callers can distinguish clean shutdown from
// message loss. Close is idempotent.
func (nw *NetWorld) Close() error {
	w := nw.w
	w.closeConns()
	w.readers.Wait()
	w.aux.Wait()
	if n := w.box.drain(); n > 0 {
		w.dropped.Add(uint64(n))
		return &DroppedMessagesError{Rank: w.rank, Count: n}
	}
	return nil
}

// fail poisons the mailbox with err and tears the connections down,
// so both blocked receivers and the peer reader goroutines unwind.
// Used by RunNet's abort path; post-bootstrap connection failures go
// through the heal path instead.
func (w *netWorld) fail(err error) {
	w.box.fail(err)
	w.closeConns()
}

// kill simulates this rank dying mid-run (NetFaultKill): the listener
// and every connection close immediately, nothing further is sent
// (frames already handed to the kernel may still arrive, exactly like a
// crashing process), and every local communication surface fails with
// an error wrapping ErrRankKilled.
func (w *netWorld) kill() {
	if !w.killed.CompareAndSwap(false, true) {
		return
	}
	w.box.fail(fmt.Errorf("mpi: rank %d: %w", w.rank, ErrRankKilled))
	w.closeConns()
}

// closeConns closes the listener and every peer connection once, and
// wakes every sleeper (healers in backoff, window-blocked senders, the
// heartbeat loop). It does not wait for readers (fail runs on a reader
// goroutine); Close does.
func (w *netWorld) closeConns() {
	w.closeOnce.Do(func() {
		w.closed.Store(true)
		close(w.stopc)
		killed := w.killed.Load()
		if w.ln != nil {
			w.ln.Close()
		}
		for _, p := range w.peers {
			if p == nil {
				continue
			}
			if !killed {
				// Announce the clean shutdown (best effort, after any
				// pending frame) so the peer retires this link quietly
				// instead of burning its reconnect budget on a rank that
				// is gone on purpose. flush writes nothing on a link that
				// is not live.
				w.flush(p, flushGoodbye)
			}
			p.mu.Lock()
			if tc, ok := p.conn.(*net.TCPConn); ok && killed {
				// A killed rank sends no goodbye (a crash must look like
				// one) but half-closes: FIN after every frame written,
				// while the read side drains for PeerTimeout so the close
				// never RSTs away frames sent before dying. readLoop
				// closes the conn when the drain deadline fires.
				tc.CloseWrite()
				tc.SetReadDeadline(time.Now().Add(w.tun.PeerTimeout))
			} else if p.conn != nil {
				p.conn.Close()
			}
			if p.cond != nil {
				p.cond.Broadcast()
			}
			p.mu.Unlock()
		}
	})
}

// liveConn keeps the liveness rule: a link has failed only when no byte
// has moved on it for PeerTimeout. A read may wait that long for a byte
// (heartbeats on; a killed rank's drain keeps closeConns' bound); a write
// attempt cut short after moving bytes made progress, and the rest goes in
// a fresh one. An expired deadline gets a secondLook first: its timer
// fires late when this process stalls, and bytes that moved are progress.
type liveConn struct {
	net.Conn
	w *netWorld
}

func (c liveConn) Read(b []byte) (n int, err error) {
	for _, d := range [2]time.Duration{c.w.tun.PeerTimeout, secondLook} {
		if c.w.tun.Heartbeat > 0 && !c.w.killed.Load() {
			c.SetReadDeadline(time.Now().Add(d))
		}
		if n, err = c.Conn.Read(b); n > 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
	}
	return n, err
}

//repro:allocfree
func (c liveConn) Write(b []byte) (n int, err error) {
	for m, d := 0, c.w.tun.PeerTimeout; ; n += m {
		c.SetWriteDeadline(time.Now().Add(d))
		if m, err = c.Conn.Write(b[n:]); err == nil || !errors.Is(err, os.ErrDeadlineExceeded) || m == 0 && d == secondLook {
			return n + m, err
		}
		if d = c.w.tun.PeerTimeout; m == 0 {
			d = secondLook
		}
	}
}

// readLoop drains one peer connection into the mailbox until the
// connection dies: clean teardown exits quietly, anything else enters
// the heal path.
func (w *netWorld) readLoop(src int, p *netPeer, conn net.Conn, done chan struct{}) {
	defer w.readers.Done()
	defer close(done)
	br := bufio.NewReaderSize(liveConn{conn, w}, 64<<10)
	var scratch []byte
	for {
		m, seq, ack, err := readFrame(br, &scratch)
		if err != nil {
			w.connFailed(src, p, conn, err)
			return
		}
		if cap(scratch) > keepFrame {
			scratch = nil // the decoded message never aliases it
		}
		if ack > 0 {
			p.mu.Lock()
			// Bounded by our own sendSeq so a corrupt ack cannot wreck
			// the window arithmetic.
			if ack > p.acked && ack <= p.sendSeq {
				p.ackLocked(ack)
			}
			p.mu.Unlock()
		}
		if seq == goodbyeSeq {
			p.departed.Store(true) // clean shutdown announced
			continue
		}
		if seq == 0 {
			continue // pure control frame (heartbeat/ack), never surfaced
		}
		if seq <= p.recvSeq.Load() {
			continue // duplicate from a post-reconnect replay
		}
		p.recvSeq.Store(seq)
		m.Src = src
		w.box.put(m)
	}
}

// ackLocked advances the cumulative ack, which frees resend-ring slots
// and reopens the send window. An acknowledged slot keeps its buffer for
// the next frame unless it is larger than keepFrame. Callers hold p.mu.
func (p *netPeer) ackLocked(ack uint64) {
	for s := p.acked + 1; s <= ack; s++ {
		if slot := &p.ring[s%uint64(len(p.ring))]; cap(slot.buf) > keepFrame {
			slot.buf = nil
		}
	}
	p.acked = ack
	p.cond.Broadcast()
}

// connFailed is the reader-side failure path: quiet exit at teardown,
// stale-news exit if a newer connection was already adopted, otherwise
// heal.
func (w *netWorld) connFailed(src int, p *netPeer, conn net.Conn, err error) {
	if w.closed.Load() || w.killed.Load() {
		// Teardown owns the conn — except on the killed half-close path,
		// where this reader kept draining past closeConns and closes the
		// (possibly still open) conn on its way out. Closing twice is a
		// harmless no-op.
		conn.Close()
		return
	}
	cause := fmt.Errorf("mpi: net receive from rank %d: %w", src, err)
	if errors.Is(err, io.EOF) {
		cause = fmt.Errorf("mpi: rank %d closed the connection", src)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// On another conn the link is already healing (the write path
	// noticed first) or has adopted a replacement: stale news.
	if p.conn == conn {
		w.startHealLocked(p, cause)
	}
}

// startHealLocked transitions a live peer into healing (or, when
// reconnection is disabled or the world is tearing down, straight to
// lost). Callers hold p.mu.
func (w *netWorld) startHealLocked(p *netPeer, cause error) {
	if p.state != peerOK {
		return
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = nil
	if p.departed.Load() {
		// The peer said goodbye before the stream ended: a deliberate
		// shutdown, not a failure. No healing, no PeersLost — but the
		// rank is still marked unreachable so a straggling receive
		// addressed to it errors out instead of hanging forever.
		w.declareLostLocked(p, fmt.Errorf("mpi: rank %d shut down", p.rank), false)
		return
	}
	if w.closed.Load() || w.killed.Load() || w.tun.ReconnectAttempts <= 0 {
		w.declareLostLocked(p, cause, true)
		return
	}
	p.state = peerHealing
	p.healDeadline = time.Now().Add(w.tun.ReconnectWindow)
	w.aux.Add(1)
	go w.heal(p, p.readerDone, cause)
}

// heal recovers one failed peer link. The higher rank re-dials (the
// lower always has a live listener: rank 0's coordinator listener and
// the mid-rank peer listeners stay open for exactly this); the lower
// rank waits, bounded, for the reattach to arrive.
func (w *netWorld) heal(p *netPeer, oldReader chan struct{}, cause error) {
	defer w.aux.Done()
	// The failed connection's reader must fully exit before a
	// replacement may deliver: per-pair FIFO and the recvSeq dedup
	// cursor rely on one reader at a time.
	<-oldReader
	if w.rank > p.rank {
		w.healDial(p, cause)
	} else {
		w.healWait(p, cause)
	}
}

// healDial re-dials the peer with capped exponential backoff and
// deterministic jitter until adoption succeeds or the budget runs out.
func (w *netWorld) healDial(p *netPeer, cause error) {
	failure := cause
	for a := 1; a <= w.tun.ReconnectAttempts; a++ {
		if a > 1 && !w.sleepBackoff(p.rank, a) {
			break // teardown
		}
		if w.closed.Load() || w.killed.Load() {
			break
		}
		conn, peerSeq, err := w.dialReattach(p.rank)
		if err != nil {
			cause = fmt.Errorf("%v; reattach to rank %d (attempt %d/%d): %w",
				failure, p.rank, a, w.tun.ReconnectAttempts, err)
			continue
		}
		if err := w.adopt(p, conn, peerSeq); err != nil {
			conn.Close()
			cause = err
			continue
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w.declareLostLocked(p, cause, true)
}

// healWait is the acceptor side of a heal: wait (bounded by the
// reconnect window) for handleReattach to adopt a replacement.
func (w *netWorld) healWait(p *netPeer, cause error) {
	timer := time.AfterFunc(w.tun.ReconnectWindow, p.cond.Broadcast)
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.state == peerHealing && !w.closed.Load() && !w.killed.Load() &&
		time.Now().Before(p.healDeadline) {
		p.cond.Wait()
	}
	if p.state == peerHealing {
		w.declareLostLocked(p, cause, true)
	}
}

// sleepBackoff sleeps the capped, jittered backoff before the given
// attempt (2-based; the first re-dial is immediate). Returns false when
// interrupted by teardown. The jitter is the pfs.RetryStore idiom: half
// the delay fixed, half scaled by a hash of (ranks, attempt), so retries
// are reproducible yet decorrelated across links.
func (w *netWorld) sleepBackoff(peer, attempt int) bool {
	d := min(reconnectBase<<min(attempt-2, 16), reconnectMax)
	h := netJitterHash(uint64(w.rank), uint64(peer), uint64(attempt))
	d = d/2 + time.Duration(uint64(d/2)*(h>>40)>>24)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.stopc:
		return false
	case <-t.C:
		return true
	}
}

// netJitterHash mixes (a, b, c) into a uniform 64-bit value
// (FNV-1a over the words, splitmix64-style finalizer) — a local copy of
// the pfs.HashSite construction, which cannot be imported from here
// (pfs depends on mpi).
func netJitterHash(a, b, c uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [3]uint64{a, b, c} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// dialReattach dials the peer's advertised address and runs the
// reattach handshake, returning the fresh connection and the peer's
// receive cursor (highest data seq it delivered from us).
func (w *netWorld) dialReattach(r int) (net.Conn, uint64, error) {
	addr := w.addrs[r]
	if addr == "" {
		return nil, 0, fmt.Errorf("mpi: no known address for rank %d", r)
	}
	conn, err := net.DialTimeout("tcp", addr, w.tun.PeerTimeout)
	if err != nil {
		return nil, 0, err
	}
	conn.SetDeadline(time.Now().Add(w.tun.PeerTimeout))
	if err := writeHandshake(conn, handshake{kind: hsReattach, rank: w.rank, seq: w.peers[r].recvSeq.Load()}); err != nil {
		conn.Close()
		return nil, 0, err
	}
	h, err := readHandshake(conn, w.size)
	if err != nil || h.kind != hsReattachOK || h.rank != r {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("mpi: bad reattach reply (kind %d, rank %d) from rank %d", h.kind, h.rank, r)
		}
		return nil, 0, err
	}
	conn.SetDeadline(time.Time{})
	return conn, h.seq, nil
}

// adopt installs a fresh connection for a healing peer: the reader
// restarts, senders unblock, and the replay of every frame the peer never
// delivered (above its receive cursor peerSeq) is flush writing from that
// cursor. Callers must have waited for the previous reader to exit.
func (w *netWorld) adopt(p *netPeer, conn net.Conn, peerSeq uint64) error {
	p.mu.Lock()
	if p.state != peerHealing || w.closed.Load() || w.killed.Load() {
		p.mu.Unlock()
		return fmt.Errorf("mpi: rank %d is not healing", p.rank)
	}
	ack := max(p.acked, peerSeq) // the cursor is the strongest ack there is
	if p.sendSeq-ack > uint64(len(p.ring)) {
		// Unreachable while the send window holds, but never replay
		// garbage: the ring no longer covers the oldest unacked frame.
		// (Every slot above the oldest holds its seq: only send fills
		// slots, numbering each before it advances sendSeq.)
		p.mu.Unlock()
		return fmt.Errorf("mpi: resend ring overrun for rank %d", p.rank)
	}
	p.ackLocked(ack)
	p.conn = conn
	p.state = peerOK
	p.written = p.acked
	w.resent.Add(p.sendSeq - p.acked) // the flush below replays them
	p.lastWrite = time.Now()
	p.readerDone = make(chan struct{})
	w.reconnects.Add(1)
	w.readers.Add(1)
	go w.readLoop(p.rank, p, conn, p.readerDone)
	p.cond.Broadcast()
	p.mu.Unlock()
	w.flush(p, flushData)
	return nil
}

// declareLostLocked marks the peer permanently gone: pending and future
// receives addressed to it unblock with a *PeerLostError, window-blocked
// senders drop, and reattach attempts are rejected. counted is false for
// an announced clean shutdown, which makes the rank unreachable without
// registering as a failure in the PeersLost counter. Callers hold p.mu.
func (w *netWorld) declareLostLocked(p *netPeer, cause error, counted bool) {
	if p.state == peerLost {
		return
	}
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.state = peerLost
	if counted {
		w.peersLost.Add(1)
	}
	w.box.markLost(p.rank, &PeerLostError{Rank: p.rank, Cause: cause})
	p.cond.Broadcast()
}

// acceptLoop serves post-bootstrap connections on this rank's listener:
// healing higher-ranked peers re-dial here to reattach.
func (w *netWorld) acceptLoop() {
	defer w.aux.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			if w.closed.Load() {
				return
			}
			// Transient accept failure (fd pressure); back off briefly.
			select {
			case <-w.stopc:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		w.aux.Add(1)
		go w.handleReattach(conn)
	}
}

// handleReattach runs the acceptor side of a reconnect: validate the
// handshake, retire the old connection if we had not yet noticed its
// failure, wait for its reader to exit, reply with our receive cursor,
// and adopt. A failed reattach leaves the link healing, where the heal
// path's bounded waiter still declares it lost if no later one adopts.
func (w *netWorld) handleReattach(conn net.Conn) {
	defer w.aux.Done()
	conn.SetDeadline(time.Now().Add(w.tun.PeerTimeout))
	h, err := readHandshake(conn, w.size)
	if err != nil || h.kind != hsReattach || h.rank <= w.rank {
		conn.Close()
		return
	}
	p := w.peers[h.rank]
	p.mu.Lock()
	if p.state == peerLost || w.closed.Load() || w.killed.Load() {
		p.mu.Unlock()
		conn.Close()
		return
	}
	// A live link means the peer saw a failure we have not noticed
	// yet: retire the current connection and adopt the replacement.
	w.startHealLocked(p, fmt.Errorf("mpi: rank %d reattached after a failure this rank had not seen", h.rank))
	oldReader := p.readerDone
	p.mu.Unlock()
	<-oldReader
	err = writeHandshake(conn, handshake{kind: hsReattachOK, rank: w.rank, seq: p.recvSeq.Load()})
	conn.SetDeadline(time.Time{})
	if err != nil || w.adopt(p, conn, h.seq) != nil {
		conn.Close()
	}
}

// heartbeatLoop ticks every Heartbeat and has flush beat each quiet peer
// link. A link in the middle of a write is skipped, not waited on: one
// long write never delays another link's heartbeat.
func (w *netWorld) heartbeatLoop() {
	defer w.aux.Done()
	t := time.NewTimer(w.tun.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
		}
		for _, p := range w.peers {
			if p != nil {
				w.flush(p, flushBeat)
			}
		}
		t.Reset(w.tun.Heartbeat)
	}
}

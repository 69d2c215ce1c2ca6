package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the network transport: each rank is a process (or an
// in-process goroutine under RunNet) connected to every peer by one
// persistent TCP connection carrying length-prefixed frames, multiplexed
// by tag through the same mailbox matching the real transport uses.
//
// Bootstrap is a rendezvous: rank 0 listens on the agreed coordinator
// address; every other rank dials it and registers (rank, listen
// address). Once all ranks have registered, rank 0 sends each the full
// address table over the registration connection — which then stays as
// the 0<->r link — and rank r dials ranks 1..r-1 while accepting from
// ranks r+1..size-1, so exactly one connection exists per pair.
//
// Wire format, all little-endian:
//
//	frame  = [len u32] [seq u64] [ack u64] [tag u64] [bytes u64] [value]
//	value  = [codec id u16] [len u32] [payload]   (see codec.go)
//
// len counts everything after itself. seq numbers this connection's data
// frames from 1; seq 0 marks a pure control frame (heartbeat/ack) that
// the codec layer never surfaces. ack piggybacks the highest data seq
// the sender has delivered from this peer, cumulatively — it both keeps
// the resend ring's window open under sustained flow and lets a
// reconnecting peer trim its replay. Self-sends never touch the wire:
// they deliver by reference, exactly like RunReal, preserving the
// in-process ownership rules for a rank talking to itself.
//
// The transport is self-healing (docs/faults.md "Network failure
// domain"): read deadlines plus idle-aware heartbeats detect a dead
// peer within NetTuning.PeerTimeout; a failed connection is transparently
// re-dialed with capped exponential backoff and deterministic jitter
// (the pfs.RetryStore idiom), unacknowledged frames replayed from a
// bounded resend ring and deduplicated by seq on the receiver; and a
// peer whose reconnect budget is exhausted is declared lost — receives
// addressed to it fail with an error matching ErrPeerLost, sends to it
// are dropped, and the pipeline layers above degrade instead of dying.

const (
	// netMagic prefixes every bootstrap message so a stray connection is
	// rejected instead of desynchronizing the rendezvous.
	netMagic = 0x514b5256 // "QKRV"

	hsRegister   = 1 // peer -> coordinator: rank + listen address
	hsHello      = 2 // peer -> lower-ranked peer: rank introduction
	hsTable      = 3 // coordinator -> peer: the full address table
	hsReattach   = 4 // healing peer -> lower-ranked peer: rank + recv cursor
	hsReattachOK = 5 // lower-ranked peer -> healing peer: rank + recv cursor

	// netFrameMeta is the fixed seq+ack+tag+bytes portion of a frame body.
	netFrameMeta = 32

	// goodbyeSeq in a frame's seq field marks a clean-shutdown control
	// frame: the peer is closing deliberately, so the receiver must not
	// burn reconnect attempts or count it as a lost peer. Data seqs
	// count up from 1 and can never reach it.
	goodbyeSeq = ^uint64(0)

	// maxNetFrame bounds a frame's declared length; anything larger is
	// rejected as hostile/corrupt before any allocation happens.
	maxNetFrame = 1 << 30

	// maxNetAddrLen bounds an advertised listen address in bootstrap
	// messages.
	maxNetAddrLen = 1 << 10
)

// Defaults for the zero fields of NetTuning.
const (
	// DefaultNetHeartbeat is the control-frame cadence when
	// NetTuning.Heartbeat is zero.
	DefaultNetHeartbeat = 500 * time.Millisecond
	// DefaultNetReconnectAttempts is the reconnect budget per connection
	// failure when NetTuning.ReconnectAttempts is zero.
	DefaultNetReconnectAttempts = 5
	// DefaultNetResendRing is the per-peer resend-ring depth (maximum
	// unacknowledged frames in flight) when NetTuning.ResendRing is zero.
	DefaultNetResendRing = 64
)

// NetFaultAction is an injected transport fault, returned by a
// NetFaultInjector for one specific frame write.
type NetFaultAction uint8

// The injectable fault classes. They model, in order: a link that dies
// between frames, a link that dies mid-frame (the receiver sees a
// truncated/corrupt stream), added latency, and this rank's process
// dying outright.
const (
	// NetFaultNone writes the frame normally.
	NetFaultNone NetFaultAction = iota
	// NetFaultDropConn severs the connection before the frame leaves;
	// the send path heals and the frame is replayed on the new
	// connection.
	NetFaultDropConn
	// NetFaultPartialWrite writes half the frame and severs the
	// connection, so the peer sees a truncated stream.
	NetFaultPartialWrite
	// NetFaultDelay sleeps the returned duration before writing.
	NetFaultDelay
	// NetFaultKill kills this rank: all its connections close instantly
	// and its communication surfaces fail with ErrRankKilled.
	NetFaultKill
)

// NetFaultInjector decides, per outgoing data frame, whether to inject a
// transport fault. Implementations must be safe for concurrent use and —
// for reproducible chaos suites — pure functions of their seed and the
// frame coordinates: src/dst are world ranks, seq is the per-connection
// frame sequence number (restarting frames are not re-consulted: replays
// after a heal bypass injection), and nsent is the sender's global data-
// frame counter, deterministic under the sender's single-threaded send
// order. internal/faultinject.NetChaos is the standard implementation.
type NetFaultInjector interface {
	SendFault(src, dst int, seq, nsent uint64) (NetFaultAction, time.Duration)
}

// NetTuning configures the self-healing behavior of the network
// transport. The zero value selects the defaults; every rank in a job
// must use the same tuning (the liveness protocol is symmetric: a rank
// that stops heartbeating looks dead to peers whose timeout is shorter).
type NetTuning struct {
	// Heartbeat is the control-frame cadence: a peer link idle longer
	// than this (no data, or delivered frames whose ack has not ridden
	// on any data frame) gets a pure seq-0 frame carrying the cumulative
	// ack. 0 means DefaultNetHeartbeat; negative disables heartbeats and
	// read-deadline liveness entirely (failures are then detected only
	// by write errors).
	Heartbeat time.Duration
	// PeerTimeout is the liveness window: a connection silent for this
	// long is considered failed and enters the heal path. It also bounds
	// reattach dials and handshakes. 0 means 8x Heartbeat (10s when
	// heartbeats are disabled).
	PeerTimeout time.Duration
	// WriteTimeout bounds every frame write; a peer that stops draining
	// its socket fails the send within it. 0 means PeerTimeout.
	WriteTimeout time.Duration
	// ReconnectAttempts is how many re-dials a connection failure is
	// granted before the peer is declared lost. 0 means
	// DefaultNetReconnectAttempts; negative disables reconnection (the
	// first failure declares the peer lost).
	ReconnectAttempts int
	// ReconnectBase is the backoff before the second attempt, doubling
	// per attempt up to ReconnectMax, jittered deterministically from
	// Seed. 0 means 5ms.
	ReconnectBase time.Duration
	// ReconnectMax caps the per-attempt backoff. 0 means 250ms.
	ReconnectMax time.Duration
	// ReconnectWindow is how long the accepting (lower-ranked) side of a
	// failed connection waits for the peer to re-dial before declaring
	// it lost. 0 derives a window generous enough to cover the dialer's
	// full detect+retry budget.
	ReconnectWindow time.Duration
	// ResendRing is the per-peer resend-ring depth: the maximum
	// unacknowledged data frames in flight before senders block. Frames
	// in the ring are replayed after a reconnect. 0 means
	// DefaultNetResendRing.
	ResendRing int
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// Fault, when non-nil, is consulted for every outgoing data frame
	// (fault injection for the chaos suites; nil in production).
	Fault NetFaultInjector
}

// normalized resolves every zero field of t to its default.
func (t NetTuning) normalized() NetTuning {
	if t.Heartbeat == 0 {
		t.Heartbeat = DefaultNetHeartbeat
	}
	if t.Heartbeat < 0 {
		t.Heartbeat = 0 // disabled
	}
	if t.PeerTimeout <= 0 {
		if t.Heartbeat > 0 {
			t.PeerTimeout = 8 * t.Heartbeat
		} else {
			t.PeerTimeout = 10 * time.Second
		}
	}
	if t.WriteTimeout <= 0 {
		t.WriteTimeout = t.PeerTimeout
	}
	if t.ReconnectAttempts == 0 {
		t.ReconnectAttempts = DefaultNetReconnectAttempts
	}
	if t.ReconnectAttempts < 0 {
		t.ReconnectAttempts = 0 // first failure declares the peer lost
	}
	if t.ReconnectBase <= 0 {
		t.ReconnectBase = 5 * time.Millisecond
	}
	if t.ReconnectMax <= 0 {
		t.ReconnectMax = 250 * time.Millisecond
	}
	if t.ReconnectWindow <= 0 {
		// The acceptor must outlast the dialer's whole budget: detection
		// lag plus per-attempt dial timeouts and backoffs.
		t.ReconnectWindow = t.PeerTimeout +
			time.Duration(t.ReconnectAttempts+1)*(t.PeerTimeout+t.ReconnectMax)
	}
	if t.ResendRing <= 0 {
		t.ResendRing = DefaultNetResendRing
	}
	return t
}

// NetConfig describes one rank's attachment to the network transport.
type NetConfig struct {
	// Rank is this process's rank in [0, Size).
	Rank int
	// Size is the total number of ranks in the job.
	Size int
	// Coordinator is the host:port rank 0 listens on for the rendezvous.
	// Every rank must agree on it: rank 0 binds it, the others dial it.
	Coordinator string
	// Listen is the address this rank binds for incoming peer
	// connections (default "127.0.0.1:0"). The resolved address is
	// advertised to peers, so for a multi-machine job it must carry a
	// host reachable from them. Unused by the highest rank, which
	// initiates every one of its connections.
	Listen string
	// DialTimeout bounds the whole bootstrap — dials, retries, and
	// handshake reads (default 10s).
	DialTimeout time.Duration
	// Tuning configures liveness detection, reconnection and fault
	// injection; the zero value selects the defaults.
	Tuning NetTuning

	// listener, when non-nil, is a pre-bound coordinator listener rank 0
	// adopts instead of binding Coordinator itself (RunNet binds :0
	// first so the port is known before the ranks start).
	listener net.Listener
}

// NetStats is a snapshot of one rank's transport-health counters,
// returned by NetWorld.Stats.
type NetStats struct {
	// Reconnects counts replacement connections successfully adopted
	// after a failure (each healed incident counts once per side).
	Reconnects uint64
	// FramesResent counts data frames replayed from the resend ring
	// onto a fresh connection.
	FramesResent uint64
	// HeartbeatsSent counts pure control frames written.
	HeartbeatsSent uint64
	// PeersLost counts peers this rank declared permanently lost.
	PeersLost uint64
	// MessagesDropped counts messages discarded: sends addressed to an
	// already-lost peer plus unconsumed inbound messages drained at
	// Close.
	MessagesDropped uint64
}

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

// NetWorld is one rank's live attachment to the network transport,
// returned by Join. The zero value is not usable.
type NetWorld struct {
	w    *netWorld
	comm *Comm
}

// Comm returns the communicator for this rank. All pipeline code runs
// against it exactly as under RunReal or RunSim.
func (nw *NetWorld) Comm() *Comm { return nw.comm }

// Stats returns a snapshot of the transport-health counters.
func (nw *NetWorld) Stats() NetStats {
	w := nw.w
	return NetStats{
		Reconnects:      w.reconnects.Load(),
		FramesResent:    w.resent.Load(),
		HeartbeatsSent:  w.hbSent.Load(),
		PeersLost:       w.peersLost.Load(),
		MessagesDropped: w.dropped.Load(),
	}
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

// Peer connection states.
const (
	peerOK      = iota // connection live, frames flow
	peerHealing        // connection down, reconnect in progress
	peerLost           // reconnect budget exhausted, permanently gone
)

// ringSlot holds one encoded data frame awaiting acknowledgment. The
// buffer is reused in place when its seq slot comes around again, so the
// warm send path stays allocation-free.
type ringSlot struct {
	seq uint64
	buf []byte
}

// netPeer is one peer link: the current connection, the resend ring of
// unacknowledged frames, and the liveness bookkeeping. The mutex
// serializes senders and state transitions; cond signals window space
// (ack progress) and state changes.
type netPeer struct {
	rank int
	mu   sync.Mutex
	cond *sync.Cond

	state int
	conn  net.Conn // nil while healing

	sendSeq uint64     // last data seq assigned on this link
	acked   uint64     // highest cumulative ack received from the peer
	ring    []ringSlot // unacked frames, slot = seq % len(ring)
	ctl     []byte     // reusable control-frame buffer (heartbeats)
	enc     []byte     // reusable scratch for frames dropped on lost peers

	lastWrite    time.Time // when any frame last left for this peer
	lastAckSent  uint64    // cumulative ack last piggybacked or heartbeat
	healDeadline time.Time // when the acceptor side stops waiting

	// readerDone is closed when the connection's reader goroutine has
	// fully exited. Healing waits on it before adopting a replacement,
	// so at most one reader ever delivers for this peer — per-pair FIFO
	// and the dedup cursor both rely on that.
	readerDone chan struct{}

	// recvSeq is the highest data seq delivered to the mailbox from
	// this peer; frames at or below it are replay duplicates. Written
	// only by the single live reader, read by heartbeat/reattach paths.
	recvSeq atomic.Uint64

	// departed is set when the peer announces a clean shutdown
	// (goodbye frame): the EOF that follows must not trigger healing
	// or count toward PeersLost.
	departed atomic.Bool
}

// netWorld implements world over TCP.
type netWorld struct {
	start time.Time
	rank  int
	size  int
	box   *mailbox
	peers []*netPeer // peers[rank] is nil (self-sends bypass the wire)
	addrs []string   // rendezvous address table (reattach re-dials)
	ln    net.Listener
	tun   NetTuning // normalized

	readers   sync.WaitGroup // one per live connection reader
	aux       sync.WaitGroup // heartbeat, accept loop, healers
	stopc     chan struct{}  // closed at teardown to wake sleepers
	closed    atomic.Bool
	killed    atomic.Bool
	closeOnce sync.Once

	dataSends  atomic.Uint64 // global data-frame counter (injection site)
	reconnects atomic.Uint64
	resent     atomic.Uint64
	hbSent     atomic.Uint64
	peersLost  atomic.Uint64
	dropped    atomic.Uint64
}

// Join attaches this process to the job described by cfg, performing the
// rendezvous and establishing one connection per peer. It returns once
// every pairwise link is up; pipeline code can then use Comm freely.
// After Join, connection failures heal transparently per cfg.Tuning; a
// peer that cannot be recovered is declared lost, failing receives
// addressed to it with an error matching ErrPeerLost (panic from Recv,
// error from RecvErr) while the rest of the job keeps running.
func Join(cfg NetConfig) (*NetWorld, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mpi: Join needs at least one rank, got size %d", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: Join rank %d out of range [0,%d)", cfg.Rank, cfg.Size)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	w := &netWorld{
		start: time.Now(),
		rank:  cfg.Rank,
		size:  cfg.Size,
		box:   newMailbox(),
		peers: make([]*netPeer, cfg.Size),
		addrs: make([]string, cfg.Size),
		tun:   cfg.Tuning.normalized(),
		stopc: make(chan struct{}),
	}
	if cfg.Size > 1 {
		deadline := time.Now().Add(cfg.DialTimeout)
		var err error
		if cfg.Rank == 0 {
			err = w.bootstrapRoot(cfg, deadline)
		} else {
			err = w.bootstrapPeer(cfg, deadline)
		}
		if err != nil {
			w.closeConns()
			return nil, err
		}
		w.addrs[0] = cfg.Coordinator
		for r, p := range w.peers {
			if p == nil {
				continue
			}
			p.rank = r
			p.cond = sync.NewCond(&p.mu)
			p.ring = make([]ringSlot, w.tun.ResendRing)
			p.readerDone = make(chan struct{})
			p.lastWrite = time.Now()
			// Handshake deadlines are done; liveness now comes from the
			// reader's rolling read deadline.
			p.conn.SetDeadline(time.Time{})
			w.readers.Add(1)
			go w.readLoop(r, p, p.conn, p.readerDone)
		}
		if w.ln != nil {
			w.aux.Add(1)
			go w.acceptLoop()
		}
		if w.tun.Heartbeat > 0 {
			w.aux.Add(1)
			go w.heartbeatLoop()
		}
	}
	return &NetWorld{w: w, comm: &Comm{rank: cfg.Rank, size: cfg.Size, w: w}}, nil
}

// bootstrapRoot runs rank 0's side of the rendezvous: accept a
// registration from every peer, then send each the address table.
func (w *netWorld) bootstrapRoot(cfg NetConfig, deadline time.Time) error {
	ln := cfg.listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Coordinator)
		if err != nil {
			return fmt.Errorf("mpi: coordinator listen on %q: %w", cfg.Coordinator, err)
		}
	}
	w.ln = ln
	setListenerDeadline(ln, deadline)
	defer setListenerDeadline(ln, time.Time{})
	for got := 0; got < cfg.Size-1; got++ {
		conn, err := ln.Accept()
		if err != nil {
			// Name the ranks that never registered: "which machine is
			// down" is the first question a stalled bootstrap raises.
			missing := make([]int, 0, cfg.Size-1-got)
			for r := 1; r < cfg.Size; r++ {
				if w.peers[r] == nil {
					missing = append(missing, r)
				}
			}
			return fmt.Errorf("mpi: coordinator accept (have %d/%d registrations, missing ranks %v): %w",
				got, cfg.Size-1, missing, err)
		}
		conn.SetDeadline(deadline)
		kind, r, addr, err := readHandshake(conn)
		if err != nil || kind != hsRegister {
			conn.Close()
			return fmt.Errorf("mpi: bad registration on coordinator: kind %d, %v", kind, err)
		}
		if r < 1 || r >= cfg.Size || w.peers[r] != nil {
			conn.Close()
			return fmt.Errorf("mpi: registration for invalid or duplicate rank %d", r)
		}
		w.peers[r] = &netPeer{conn: conn}
		w.addrs[r] = addr
	}
	for r := 1; r < cfg.Size; r++ {
		if err := writeTable(w.peers[r].conn, w.addrs); err != nil {
			return fmt.Errorf("mpi: sending address table to rank %d: %w", r, err)
		}
	}
	return nil
}

// bootstrapPeer runs rank >0's side: register with the coordinator,
// receive the table, then dial every lower rank while accepting a hello
// from every higher one.
func (w *netWorld) bootstrapPeer(cfg NetConfig, deadline time.Time) error {
	// Bind the peer listener before registering, so any rank that learns
	// our address from the table can connect immediately (the kernel
	// backlog holds early dials until we accept).
	myAddr := ""
	if cfg.Rank < cfg.Size-1 {
		laddr := cfg.Listen
		if laddr == "" {
			laddr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", laddr)
		if err != nil {
			return fmt.Errorf("mpi: rank %d listen on %q: %w", cfg.Rank, laddr, err)
		}
		w.ln = ln
		myAddr = ln.Addr().String()
	}
	conn, err := dialRetry(cfg.Coordinator, deadline)
	if err != nil {
		return fmt.Errorf("mpi: rank %d dialing coordinator %q: %w", cfg.Rank, cfg.Coordinator, err)
	}
	w.peers[0] = &netPeer{conn: conn}
	conn.SetDeadline(deadline)
	if err := writeHandshake(conn, hsRegister, cfg.Rank, myAddr); err != nil {
		return fmt.Errorf("mpi: rank %d registering: %w", cfg.Rank, err)
	}
	addrs, err := readTable(conn, cfg.Size)
	if err != nil {
		return fmt.Errorf("mpi: rank %d reading address table: %w", cfg.Rank, err)
	}
	copy(w.addrs, addrs)

	var acceptErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		acceptErr = w.acceptHellos(deadline, cfg.Size-1-cfg.Rank)
	}()
	for lower := 1; lower < cfg.Rank; lower++ {
		pc, err := dialRetry(addrs[lower], deadline)
		if err != nil {
			<-done
			return fmt.Errorf("mpi: rank %d dialing rank %d at %q: %w", cfg.Rank, lower, addrs[lower], err)
		}
		pc.SetDeadline(deadline)
		if err := writeHandshake(pc, hsHello, cfg.Rank, ""); err != nil {
			pc.Close()
			<-done
			return fmt.Errorf("mpi: rank %d hello to rank %d: %w", cfg.Rank, lower, err)
		}
		w.peers[lower] = &netPeer{conn: pc}
	}
	<-done
	return acceptErr
}

// acceptHellos accepts want hello connections from higher-ranked peers.
func (w *netWorld) acceptHellos(deadline time.Time, want int) error {
	if want == 0 {
		return nil
	}
	setListenerDeadline(w.ln, deadline)
	defer setListenerDeadline(w.ln, time.Time{})
	for got := 0; got < want; got++ {
		conn, err := w.ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: rank %d accept (have %d/%d hellos): %w", w.rank, got, want, err)
		}
		conn.SetDeadline(deadline)
		kind, r, _, err := readHandshake(conn)
		if err != nil || kind != hsHello {
			conn.Close()
			return fmt.Errorf("mpi: rank %d bad hello: kind %d, %v", w.rank, kind, err)
		}
		if r <= w.rank || r >= w.size || w.peers[r] != nil {
			conn.Close()
			return fmt.Errorf("mpi: rank %d hello from invalid or duplicate rank %d", w.rank, r)
		}
		w.peers[r] = &netPeer{conn: conn}
	}
	return nil
}

// appendFrame encodes one frame into buf (reusing its capacity) and
// patches the length prefix. seq 0 with nil data is a pure control
// frame.
//
//repro:allocfree
func appendFrame(buf []byte, seq, ack, tag, nbytes uint64, data any) ([]byte, error) {
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, ack)
	buf = binary.LittleEndian.AppendUint64(buf, tag)
	buf = binary.LittleEndian.AppendUint64(buf, nbytes)
	buf, err := appendValue(buf, data)
	if err != nil {
		return buf, err
	}
	if len(buf)-4 > maxNetFrame {
		return buf, fmt.Errorf("mpi: net frame of %d bytes exceeds limit %d", len(buf)-4, maxNetFrame)
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf, nil
}

// send delivers one message to dst: reference delivery to self, framed
// write on the pooled connection otherwise. The frame buffer and wire
// codec scratch are reused, so the steady-state send allocates nothing.
//
//repro:allocfree
func (w *netWorld) send(c *Comm, dst, tag int, bytes int64, data any) {
	if dst == c.rank {
		// Reference delivery, no serialization: a rank talking to itself
		// keeps the in-process ownership rules.
		w.box.put(Message{Src: c.rank, Tag: tag, Bytes: bytes, Data: data})
		return
	}
	nsent := w.dataSends.Add(1) - 1
	p := w.peers[dst]
	p.mu.Lock()
	defer p.mu.Unlock()
	// Window backpressure: at most len(ring) unacked frames in flight,
	// so every unacked frame is still available for replay. Ack progress
	// (piggybacked on inbound data or heartbeats) broadcasts the cond.
	for p.state != peerLost && !w.closed.Load() && p.sendSeq-p.acked >= uint64(len(p.ring)) {
		p.cond.Wait()
	}
	if p.state == peerLost || w.closed.Load() {
		// The peer can no longer receive. Encoding into scratch still
		// runs the codec, which releases pooled payload ownership the
		// sender already gave up; the frame itself is dropped and the
		// layers above account the loss (degraded frames).
		var err error
		p.enc, err = appendFrame(p.enc[:0], 0, 0, uint64(tag), uint64(bytes), data)
		if err != nil {
			panic(err)
		}
		w.dropped.Add(1)
		return
	}
	p.sendSeq++
	slot := &p.ring[p.sendSeq%uint64(len(p.ring))]
	slot.seq = p.sendSeq
	ack := p.recvSeq.Load()
	var err error
	slot.buf, err = appendFrame(slot.buf[:0], p.sendSeq, ack, uint64(tag), uint64(bytes), data)
	if err != nil {
		panic(err)
	}
	if p.state == peerOK {
		w.writeSlotLocked(p, slot, ack, nsent)
	}
	// If the link is healing, the frame stays ringed; adopt replays it.
}

// writeSlotLocked writes one ringed frame to the live connection,
// consulting the fault injector first. A write failure starts the heal
// path; the frame stays in the ring for replay.
func (w *netWorld) writeSlotLocked(p *netPeer, slot *ringSlot, ack, nsent uint64) {
	if w.tun.Fault != nil && w.injectLocked(p, slot, nsent) {
		return
	}
	p.conn.SetWriteDeadline(time.Now().Add(w.tun.WriteTimeout))
	if _, err := p.conn.Write(slot.buf); err != nil {
		w.startHealLocked(p, fmt.Errorf("mpi: net send to rank %d: %w", p.rank, err))
		return
	}
	p.lastWrite = time.Now()
	p.lastAckSent = ack
}

// injectLocked applies the injector's verdict for this frame. It
// reports whether the write was fully handled (diverted) by the fault.
func (w *netWorld) injectLocked(p *netPeer, slot *ringSlot, nsent uint64) bool {
	act, d := w.tun.Fault.SendFault(w.rank, p.rank, slot.seq, nsent)
	switch act {
	case NetFaultDelay:
		time.Sleep(d)
	case NetFaultDropConn:
		// Sever before the frame leaves: the normal write below fails,
		// heals, and the ring replays this frame on the new connection.
		p.conn.Close()
	case NetFaultPartialWrite:
		p.conn.SetWriteDeadline(time.Now().Add(w.tun.WriteTimeout))
		p.conn.Write(slot.buf[:len(slot.buf)/2])
		p.conn.Close()
		w.startHealLocked(p, fmt.Errorf("mpi: injected partial write to rank %d", p.rank))
		return true
	case NetFaultKill:
		// kill closes every peer connection, which needs every peer's
		// lock — including the one this send holds. Drop it around the
		// kill; the deferred re-lock keeps send's own unlock balanced
		// while the panic unwinds.
		p.mu.Unlock()
		defer p.mu.Lock()
		w.kill()
		panic(fmt.Errorf("mpi: rank %d: %w", w.rank, ErrRankKilled))
	}
	return false
}

func (w *netWorld) recv(c *Comm, src, tagLo, tagHi int) Message {
	return w.box.get(src, tagLo, tagHi)
}

func (w *netWorld) recvErr(c *Comm, src, tagLo, tagHi int) (Message, error) {
	return w.box.getErr(src, tagLo, tagHi)
}

func (w *netWorld) now(c *Comm) float64 { return time.Since(w.start).Seconds() }

func (w *netWorld) compute(c *Comm, seconds float64) {} // real work takes real time

func (w *netWorld) ioRead(c *Comm, bytes int64, seeks int) {} // real reads go through pfs

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
			p.mu.Lock()
			if p.conn != nil {
				switch {
				case killed:
					// A killed rank sends no goodbye — a crash must look
					// like a crash — but it half-closes when it can: FIN
					// after every frame already written, while the read
					// side keeps draining (bounded by a deadline) so the
					// close never RSTs the peer and discards frames this
					// rank sent before dying. readLoop closes the conn
					// when the drain deadline fires.
					if tc, ok := p.conn.(*net.TCPConn); ok {
						tc.CloseWrite()
						tc.SetReadDeadline(time.Now().Add(w.tun.WriteTimeout))
					} else {
						p.conn.Close()
					}
				case p.state == peerOK:
					// Announce the clean shutdown (best effort) so the
					// peer retires this link quietly instead of burning
					// its reconnect budget on a rank that is gone on
					// purpose.
					if buf, err := appendFrame(p.ctl[:0], goodbyeSeq,
						p.recvSeq.Load(), 0, 0, nil); err == nil {
						p.ctl = buf
						p.conn.SetWriteDeadline(time.Now().Add(w.tun.WriteTimeout))
						p.conn.Write(p.ctl)
					}
					p.conn.Close()
				default:
					p.conn.Close()
				}
			}
			if p.cond != nil {
				p.cond.Broadcast()
			}
			p.mu.Unlock()
		}
	})
}

// readLoop drains one peer connection into the mailbox until the
// connection dies: clean teardown exits quietly, anything else enters
// the heal path. The rolling read deadline is the liveness detector —
// a healthy peer's heartbeats keep the stream from ever going silent
// for PeerTimeout.
func (w *netWorld) readLoop(src int, p *netPeer, conn net.Conn, done chan struct{}) {
	defer w.readers.Done()
	defer close(done)
	br := bufio.NewReaderSize(conn, 64<<10)
	var scratch []byte
	for {
		if w.tun.Heartbeat > 0 {
			conn.SetReadDeadline(time.Now().Add(w.tun.PeerTimeout))
		}
		m, seq, ack, err := readFrame(br, &scratch)
		if err != nil {
			w.connFailed(src, p, conn, err)
			return
		}
		if ack > 0 {
			p.mu.Lock()
			// Cumulative ack: frees resend-ring slots and reopens the
			// send window. Bounded by our own sendSeq so a corrupt ack
			// cannot wreck the window arithmetic.
			if ack > p.acked && ack <= p.sendSeq {
				p.acked = ack
				p.cond.Broadcast()
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != conn {
		// Already healing (write path noticed first) or already adopted
		// a replacement; this reader's failure is stale news.
		return
	}
	if p.departed.Load() {
		// The peer said goodbye before the stream ended: a deliberate
		// shutdown, not a failure. No healing, no PeersLost — but the
		// rank is still marked unreachable so a straggling receive
		// addressed to it errors out instead of hanging forever.
		w.declareLostLocked(p, fmt.Errorf("mpi: rank %d shut down", src), false)
		return
	}
	var cause error
	if errors.Is(err, io.EOF) {
		cause = fmt.Errorf("mpi: rank %d closed the connection", src)
	} else {
		cause = fmt.Errorf("mpi: net receive from rank %d: %w", src, err)
	}
	w.startHealLocked(p, cause)
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
	for a := 1; a <= w.tun.ReconnectAttempts; a++ {
		if a > 1 && !w.sleepBackoff(p.rank, a) {
			break // teardown
		}
		if w.closed.Load() || w.killed.Load() {
			break
		}
		conn, peerSeq, err := w.dialReattach(p.rank)
		if err != nil {
			cause = fmt.Errorf("mpi: reattach to rank %d (attempt %d/%d): %w",
				p.rank, a, w.tun.ReconnectAttempts, err)
			continue
		}
		if err := w.adopt(p, conn, peerSeq); err != nil {
			conn.Close()
			cause = err
			continue
		}
		return
	}
	w.declareLost(p, cause)
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
// the delay fixed, half scaled by a hash of (seed, ranks, attempt), so
// retries are reproducible for a fixed seed yet decorrelated across
// links.
func (w *netWorld) sleepBackoff(peer, attempt int) bool {
	shift := attempt - 2
	if shift > 16 {
		shift = 16
	}
	d := w.tun.ReconnectBase << shift
	if d <= 0 || d > w.tun.ReconnectMax {
		d = w.tun.ReconnectMax
	}
	h := netJitterHash(w.tun.Seed, uint64(w.rank), uint64(peer), uint64(attempt))
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

// netJitterHash mixes (seed, a, b, c) into a uniform 64-bit value
// (FNV-1a over the words, splitmix64-style finalizer) — a local copy of
// the pfs.HashSite construction, which cannot be imported from here
// (pfs depends on mpi).
func netJitterHash(seed, a, b, c uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [4]uint64{seed, a, b, c} {
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
	if err := writeReattach(conn, hsReattach, w.rank, w.peers[r].recvSeq.Load()); err != nil {
		conn.Close()
		return nil, 0, err
	}
	kind, rr, seq, err := readReattach(conn)
	if err != nil || kind != hsReattachOK || rr != r {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("mpi: bad reattach reply (kind %d, rank %d) from rank %d", kind, rr, r)
		}
		return nil, 0, err
	}
	conn.SetDeadline(time.Time{})
	return conn, seq, nil
}

// adopt installs a fresh connection for a healing peer: frames the peer
// never delivered (above its receive cursor peerSeq) are replayed from
// the resend ring in order, then the reader restarts and senders
// unblock. Callers must have waited for the previous reader to exit.
func (w *netWorld) adopt(p *netPeer, conn net.Conn, peerSeq uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != peerHealing || w.closed.Load() || w.killed.Load() {
		return fmt.Errorf("mpi: rank %d is not healing", p.rank)
	}
	if peerSeq > p.acked {
		p.acked = peerSeq // the cursor is the strongest ack there is
	}
	if p.sendSeq-p.acked > uint64(len(p.ring)) {
		// Unreachable while the send window holds, but never replay
		// garbage: the ring no longer covers the oldest unacked frame.
		return fmt.Errorf("mpi: resend ring overrun for rank %d", p.rank)
	}
	for s := p.acked + 1; s <= p.sendSeq; s++ {
		slot := &p.ring[s%uint64(len(p.ring))]
		if slot.seq != s {
			return fmt.Errorf("mpi: resend ring slot mismatch for rank %d (have %d, want %d)", p.rank, slot.seq, s)
		}
		conn.SetWriteDeadline(time.Now().Add(w.tun.WriteTimeout))
		if _, err := conn.Write(slot.buf); err != nil {
			return fmt.Errorf("mpi: replaying frame %d to rank %d: %w", s, p.rank, err)
		}
		w.resent.Add(1)
	}
	conn.SetWriteDeadline(time.Time{})
	p.conn = conn
	p.state = peerOK
	p.lastWrite = time.Now()
	p.readerDone = make(chan struct{})
	w.reconnects.Add(1)
	w.readers.Add(1)
	go w.readLoop(p.rank, p, conn, p.readerDone)
	p.cond.Broadcast()
	return nil
}

// declareLost marks the peer permanently gone: pending and future
// receives addressed to it unblock with a *PeerLostError, window-blocked
// senders drop, and reattach attempts are rejected.
func (w *netWorld) declareLost(p *netPeer, cause error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.declareLostLocked(p, cause, true)
}

// declareLostLocked is declareLost with p.mu held. counted is false for
// an announced clean shutdown, which makes the rank unreachable without
// registering as a failure in the PeersLost counter.
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
// and adopt.
func (w *netWorld) handleReattach(conn net.Conn) {
	defer w.aux.Done()
	conn.SetDeadline(time.Now().Add(w.tun.PeerTimeout))
	kind, r, peerSeq, err := readReattach(conn)
	if err != nil || kind != hsReattach || r <= w.rank || r >= w.size {
		conn.Close()
		return
	}
	p := w.peers[r]
	p.mu.Lock()
	if p.state == peerLost || w.closed.Load() || w.killed.Load() {
		p.mu.Unlock()
		conn.Close()
		return
	}
	if p.state == peerOK {
		// The peer saw a failure we have not noticed yet: retire the
		// current connection and adopt the replacement.
		if p.conn != nil {
			p.conn.Close()
		}
		p.conn = nil
		p.state = peerHealing
		p.healDeadline = time.Now().Add(w.tun.ReconnectWindow)
	}
	oldReader := p.readerDone
	p.mu.Unlock()
	<-oldReader
	if err := writeReattach(conn, hsReattachOK, w.rank, p.recvSeq.Load()); err != nil {
		conn.Close()
		w.rearm(p, err)
		return
	}
	conn.SetDeadline(time.Time{})
	if err := w.adopt(p, conn, peerSeq); err != nil {
		conn.Close()
		w.rearm(p, err)
	}
}

// rearm restores loss detection after a failed reattach adoption: if
// the peer is still healing, a bounded waiter (or dialer) takes over
// again so the link cannot linger half-healed forever.
func (w *netWorld) rearm(p *netPeer, cause error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != peerHealing || w.closed.Load() {
		return
	}
	w.aux.Add(1)
	go w.heal(p, p.readerDone, cause)
}

// heartbeatLoop ticks every Heartbeat and beats each quiet peer link.
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
				w.beat(p)
			}
		}
		t.Reset(w.tun.Heartbeat)
	}
}

// beat writes one control frame if the link has been quiet: either
// nothing left for the peer within a heartbeat period (its read
// deadline needs traffic) or frames were delivered whose ack has not
// ridden on any outgoing data frame (one-way flows must not stall the
// sender's resend window). Busy links piggyback acks on data and skip
// the heartbeat entirely.
func (w *netWorld) beat(p *netPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != peerOK {
		return
	}
	ack := p.recvSeq.Load()
	if ack == p.lastAckSent && time.Since(p.lastWrite) < w.tun.Heartbeat {
		return
	}
	var err error
	p.ctl, err = appendFrame(p.ctl[:0], 0, ack, 0, 0, nil)
	if err != nil {
		return
	}
	p.conn.SetWriteDeadline(time.Now().Add(w.tun.WriteTimeout))
	if _, werr := p.conn.Write(p.ctl); werr != nil {
		w.startHealLocked(p, fmt.Errorf("mpi: heartbeat to rank %d: %w", p.rank, werr))
		return
	}
	p.lastWrite = time.Now()
	p.lastAckSent = ack
	w.hbSent.Add(1)
}

// readFrame reads and decodes one frame, returning its seq and ack
// alongside the message. The scratch buffer is reused across frames;
// decoded payloads never alias it (codec contract). All malformed input
// — hostile lengths, truncated frames, unknown codecs — returns an
// error, never panics.
//
//repro:allocfree
func readFrame(br *bufio.Reader, scratch *[]byte) (Message, uint64, uint64, error) {
	// The length prefix is read into the reused body scratch (a local
	// [4]byte would escape through the io.Reader interface and put one
	// heap object on every frame).
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 4) //repro:allow allocfree: one-time scratch init
	}
	hdr := (*scratch)[:4]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return Message{}, 0, 0, err // io.EOF here is a clean end of stream
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < netFrameMeta+valueHdrLen || n > maxNetFrame {
		return Message{}, 0, 0, fmt.Errorf("mpi: invalid net frame length %d", n)
	}
	body, err := readFrameBody(br, scratch, n)
	if err != nil {
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame truncated: %w", err)
	}
	seq := binary.LittleEndian.Uint64(body)
	ack := binary.LittleEndian.Uint64(body[8:])
	tag := binary.LittleEndian.Uint64(body[16:])
	nbytes := binary.LittleEndian.Uint64(body[24:])
	if tag > uint64(maxTag) {
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame tag %#x out of range", tag)
	}
	if nbytes > 1<<62 {
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame byte count %#x out of range", nbytes)
	}
	v, rest, err := readValue(body[netFrameMeta:])
	if err != nil {
		return Message{}, 0, 0, err
	}
	if len(rest) != 0 {
		return Message{}, 0, 0, fmt.Errorf("mpi: net frame has %d trailing bytes", len(rest))
	}
	return Message{Tag: int(tag), Bytes: int64(nbytes), Data: v}, seq, ack, nil
}

// readFrameBody reads the n-byte frame body into the reused scratch
// buffer. When the scratch is already big enough (the steady state) this
// is a single zero-allocation ReadFull; otherwise it grows in bounded
// chunks as bytes actually arrive, so a hostile length prefix on a
// truncated stream cannot force a huge up-front allocation.
//
//repro:allocfree
func readFrameBody(br *bufio.Reader, scratch *[]byte, n int) ([]byte, error) {
	buf := *scratch
	if cap(buf) >= n {
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return buf, nil
	}
	buf = buf[:0]
	for got := 0; got < n; {
		c := min(n-got, 1<<20)
		if cap(buf) < got+c {
			nbuf := make([]byte, got+c) //repro:allow allocfree: bounded-chunk growth of the reused scratch
			copy(nbuf, buf[:got])
			buf = nbuf
		} else {
			buf = buf[:got+c]
		}
		*scratch = buf
		if _, err := io.ReadFull(br, buf[got:got+c]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		got += c
	}
	*scratch = buf
	return buf, nil
}

// --- Bootstrap wire helpers ------------------------------------------------

func setListenerDeadline(ln net.Listener, t time.Time) {
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(t)
	}
}

// dialRetry dials addr until it succeeds or the deadline passes. The
// coordinator may simply not be up yet; retrying is the rendezvous.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	for {
		d := time.Until(deadline)
		if d <= 0 {
			return nil, fmt.Errorf("mpi: dial %q: rendezvous deadline exceeded", addr)
		}
		conn, err := net.DialTimeout("tcp", addr, d)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeHandshake sends one bootstrap message:
// [magic u32][kind u8][rank u32][addr len u16][addr].
func writeHandshake(conn net.Conn, kind byte, rank int, addr string) error {
	if len(addr) > maxNetAddrLen {
		return fmt.Errorf("mpi: advertised address of %d bytes too long", len(addr))
	}
	b := binary.LittleEndian.AppendUint32(nil, netMagic)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(rank))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(addr)))
	b = append(b, addr...)
	_, err := conn.Write(b)
	return err
}

func readHandshake(conn net.Conn) (kind byte, rank int, addr string, err error) {
	var hdr [11]byte
	if _, err = io.ReadFull(conn, hdr[:]); err != nil {
		return 0, 0, "", err
	}
	if binary.LittleEndian.Uint32(hdr[:]) != netMagic {
		return 0, 0, "", errors.New("mpi: bad bootstrap magic")
	}
	kind = hdr[4]
	rank = int(int32(binary.LittleEndian.Uint32(hdr[5:])))
	alen := int(binary.LittleEndian.Uint16(hdr[9:]))
	if alen > maxNetAddrLen {
		return 0, 0, "", fmt.Errorf("mpi: bootstrap address length %d too long", alen)
	}
	ab := make([]byte, alen)
	if _, err = io.ReadFull(conn, ab); err != nil {
		return 0, 0, "", err
	}
	return kind, rank, string(ab), nil
}

// writeReattach sends one reattach handshake message:
// [magic u32][kind u8][rank u32][seq u64], where seq is the sender's
// receive cursor for the link being healed.
func writeReattach(conn net.Conn, kind byte, rank int, seq uint64) error {
	var b [17]byte
	binary.LittleEndian.PutUint32(b[:], netMagic)
	b[4] = kind
	binary.LittleEndian.PutUint32(b[5:], uint32(rank))
	binary.LittleEndian.PutUint64(b[9:], seq)
	_, err := conn.Write(b[:])
	return err
}

func readReattach(conn net.Conn) (kind byte, rank int, seq uint64, err error) {
	var b [17]byte
	if _, err = io.ReadFull(conn, b[:]); err != nil {
		return 0, 0, 0, err
	}
	if binary.LittleEndian.Uint32(b[:]) != netMagic {
		return 0, 0, 0, errors.New("mpi: bad reattach magic")
	}
	return b[4], int(int32(binary.LittleEndian.Uint32(b[5:]))), binary.LittleEndian.Uint64(b[9:]), nil
}

// writeTable sends the coordinator's address table:
// [magic u32][kind u8][count u32]([len u16][addr])*.
func writeTable(conn net.Conn, addrs []string) error {
	b := binary.LittleEndian.AppendUint32(nil, netMagic)
	b = append(b, hsTable)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(addrs)))
	for _, a := range addrs {
		if len(a) > maxNetAddrLen {
			return fmt.Errorf("mpi: table address of %d bytes too long", len(a))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(a)))
		b = append(b, a...)
	}
	_, err := conn.Write(b)
	return err
}

func readTable(conn net.Conn, size int) ([]string, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[:]) != netMagic || hdr[4] != hsTable {
		return nil, errors.New("mpi: bad address table header")
	}
	if n := int(binary.LittleEndian.Uint32(hdr[5:])); n != size {
		return nil, fmt.Errorf("mpi: address table for %d ranks, want %d", n, size)
	}
	addrs := make([]string, size)
	for i := range addrs {
		var lb [2]byte
		if _, err := io.ReadFull(conn, lb[:]); err != nil {
			return nil, err
		}
		alen := int(binary.LittleEndian.Uint16(lb[:]))
		if alen > maxNetAddrLen {
			return nil, fmt.Errorf("mpi: table address length %d too long", alen)
		}
		ab := make([]byte, alen)
		if _, err := io.ReadFull(conn, ab); err != nil {
			return nil, err
		}
		addrs[i] = string(ab)
	}
	return addrs, nil
}

// --- Loopback harness ------------------------------------------------------

// RunNet executes body on n ranks connected over loopback TCP — one
// in-process goroutine per rank, each with its own transport state,
// exchanging serialized frames through real kernel sockets exactly as
// separate processes would — and blocks until all ranks return. It
// returns the elapsed wall time and the first rank failure (bootstrap
// error or recovered panic), tearing the remaining ranks down on error.
// Default tuning; use RunNetErrs to tune liveness or inject faults.
//
//repro:allow deadexport: bench
func RunNet(n int, body func(c *Comm)) (float64, error) {
	rep, err := runNet(n, NetTuning{}, true, body)
	if err != nil {
		return rep.Seconds, err
	}
	for _, rerr := range rep.Errs {
		if rerr != nil {
			return rep.Seconds, rerr
		}
	}
	return rep.Seconds, nil
}

// NetReport is RunNetErrs's per-rank outcome.
type NetReport struct {
	// Errs[r] is rank r's recovered failure (join error, panic from
	// body, ErrRankKilled, or a DroppedMessagesError from Close); nil
	// for a clean rank.
	Errs []error
	// Stats[r] is rank r's final transport counters.
	Stats []NetStats
	// Seconds is the elapsed wall time.
	Seconds float64
}

// RunNetErrs is RunNet with tuning and per-rank outcomes: every rank
// runs under tun (heartbeats, reconnect budget, fault injection), and
// one rank's failure does not tear the others down — peers of a dead
// rank heal or degrade per the self-healing rules, which is exactly
// what the chaos suites assert. The error return is reserved for
// harness-level failures (listener setup); per-rank failures are in the
// report.
//
//repro:allow deadexport: bench
func RunNetErrs(n int, tun NetTuning, body func(c *Comm)) (NetReport, error) {
	return runNet(n, tun, false, body)
}

func runNet(n int, tun NetTuning, abortive bool, body func(c *Comm)) (NetReport, error) {
	if n <= 0 {
		panic("mpi: RunNet needs at least one rank")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return NetReport{}, fmt.Errorf("mpi: RunNet coordinator listen: %w", err)
	}
	start := time.Now()
	coord := ln.Addr().String()
	rep := NetReport{Errs: make([]error, n), Stats: make([]NetStats, n)}
	var (
		mu       sync.Mutex
		firstErr error
		worlds   = make([]*NetWorld, n)
	)
	abort := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		ws := append([]*NetWorld(nil), worlds...)
		mu.Unlock()
		ln.Close()
		for _, nw := range ws {
			if nw != nil {
				nw.w.fail(err)
			}
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					err, ok := rec.(error)
					if !ok {
						err = fmt.Errorf("%v", rec)
					}
					mu.Lock()
					rep.Errs[rank] = err
					mu.Unlock()
					if abortive {
						abort(fmt.Errorf("mpi: RunNet rank %d: %w", rank, err))
					}
				}
			}()
			cfg := NetConfig{Rank: rank, Size: n, Coordinator: coord,
				DialTimeout: 30 * time.Second, Tuning: tun}
			if rank == 0 {
				cfg.listener = ln
			}
			nw, err := Join(cfg)
			if err != nil {
				// A failed bootstrap strands every rank; always abort.
				abort(fmt.Errorf("mpi: RunNet rank %d join: %w", rank, err))
				panic(err)
			}
			mu.Lock()
			worlds[rank] = nw
			aborted := firstErr != nil
			mu.Unlock()
			if aborted {
				nw.w.fail(firstErr)
				return
			}
			body(nw.Comm())
		}(r)
	}
	wg.Wait()
	for r, nw := range worlds {
		if nw == nil {
			continue
		}
		if err := nw.Close(); err != nil && rep.Errs[r] == nil {
			rep.Errs[r] = err
		}
		rep.Stats[r] = nw.Stats()
	}
	ln.Close()
	mu.Lock()
	defer mu.Unlock()
	rep.Seconds = time.Since(start).Seconds()
	if abortive && firstErr != nil {
		return rep, firstErr
	}
	return rep, nil
}

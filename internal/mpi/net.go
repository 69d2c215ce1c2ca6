package mpi

import (
	"errors"
	"fmt"
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
// The frame and handshake formats, and their readers, are in netwire.go.
// Self-sends never touch the wire: they deliver by reference, exactly like
// RunReal, preserving the in-process ownership rules for a rank talking
// to itself.
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
	// fault and delay are the injector's verdict for the frame's first
	// write; flush clears them as it takes the frame, so a replay is
	// never faulted.
	fault NetFaultAction
	delay time.Duration
}

// netPeer is one peer link: the current connection, the resend ring of
// unacknowledged frames, and the liveness bookkeeping. mu guards the
// state, the connection and the cursors, and is never held across a
// socket read or write: the reader takes it for every ack. wmu is the
// link's write side, held by flush alone, so frames leave in seq order
// through one writer at a time. cond signals window space (ack and write
// progress) and state changes.
type netPeer struct {
	rank int
	mu   sync.Mutex
	wmu  sync.Mutex
	cond *sync.Cond

	state int
	conn  net.Conn // nil while healing

	sendSeq uint64     // last data seq assigned on this link
	written uint64     // last data seq written to conn; flush writes the frames above it
	acked   uint64     // highest cumulative ack received from the peer
	ring    []ringSlot // unacked frames, slot = seq % len(ring)
	ctl     []byte     // flush's control-frame buffer (heartbeat, goodbye)
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
		h, err := readHandshake(conn, cfg.Size)
		if err != nil || h.kind != hsRegister {
			conn.Close()
			return fmt.Errorf("mpi: bad registration on coordinator: kind %d, %v", h.kind, err)
		}
		r := h.rank
		if r < 1 || w.peers[r] != nil {
			conn.Close()
			return fmt.Errorf("mpi: registration for invalid or duplicate rank %d", r)
		}
		w.peers[r] = &netPeer{conn: conn}
		w.addrs[r] = h.addrs[0]
	}
	for r := 1; r < cfg.Size; r++ {
		if err := writeHandshake(w.peers[r].conn, handshake{kind: hsTable, addrs: w.addrs}); err != nil {
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
	if err := writeHandshake(conn, handshake{kind: hsRegister, rank: cfg.Rank, addrs: []string{myAddr}}); err != nil {
		return fmt.Errorf("mpi: rank %d registering: %w", cfg.Rank, err)
	}
	table, err := readHandshake(conn, cfg.Size)
	if err == nil && table.kind != hsTable {
		err = fmt.Errorf("mpi: bootstrap message kind %d where the address table belongs", table.kind)
	}
	if err != nil {
		return fmt.Errorf("mpi: rank %d reading address table: %w", cfg.Rank, err)
	}
	addrs := table.addrs
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
		if err := writeHandshake(pc, handshake{kind: hsHello, rank: cfg.Rank}); err != nil {
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
		h, err := readHandshake(conn, w.size)
		if err != nil || h.kind != hsHello {
			conn.Close()
			return fmt.Errorf("mpi: rank %d bad hello: kind %d, %v", w.rank, h.kind, err)
		}
		r := h.rank
		if r <= w.rank || w.peers[r] != nil {
			conn.Close()
			return fmt.Errorf("mpi: rank %d hello from invalid or duplicate rank %d", w.rank, r)
		}
		w.peers[r] = &netPeer{conn: conn}
	}
	return nil
}

// send delivers one message to dst: reference delivery to self, framed
// write on the peer's connection otherwise. Under the peer's lock it
// waits for window space, numbers the frame, encodes it into its resend
// ring slot and records the fault injector's verdict there; flush then
// writes it with the lock released, so the reader's acks never wait on
// this write. The frame buffer and wire codec scratch are reused, so the
// steady-state send allocates nothing.
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
	var err error
	p.mu.Lock()
	// Window backpressure: at most len(ring) unacked frames in flight,
	// so every unacked frame is still available for replay, and a slot
	// is reused only once flush is done writing it. Ack and write
	// progress broadcast the cond.
	for p.state != peerLost && !w.closed.Load() && p.sendSeq-min(p.acked, p.written) >= uint64(len(p.ring)) {
		p.cond.Wait()
	}
	if p.state == peerLost || w.closed.Load() {
		// The peer can no longer receive. Encoding into scratch still
		// runs the codec, which releases pooled payload ownership the
		// sender already gave up; the frame itself is dropped and the
		// layers above account the loss (degraded frames).
		p.enc, err = appendFrame(p.enc[:0], 0, uint64(tag), uint64(bytes), data)
		p.mu.Unlock()
		if err != nil {
			panic(err)
		}
		w.dropped.Add(1)
		return
	}
	seq := p.sendSeq + 1
	slot := &p.ring[seq%uint64(len(p.ring))]
	slot.buf, err = appendFrame(slot.buf[:0], seq, uint64(tag), uint64(bytes), data)
	slot.seq, slot.fault, slot.delay = seq, NetFaultNone, 0
	if err == nil && p.state == peerOK && w.tun.Fault != nil {
		slot.fault, slot.delay = w.tun.Fault.SendFault(w.rank, dst, seq, nsent)
	}
	kill := slot.fault == NetFaultKill
	if err == nil && !kill {
		p.sendSeq = seq // ringed: flush writes it, or a heal's replay does
	}
	p.mu.Unlock()
	if err != nil {
		panic(err)
	}
	if kill {
		// The frame is never ringed, so no writer can pick it up: the
		// kill lands between this rank's frames, like a crash.
		w.kill()
		panic(fmt.Errorf("mpi: rank %d: %w", w.rank, ErrRankKilled))
	}
	w.flush(p, flushData)
}

// What flush writes once no data frame is pending.
const (
	flushData    = iota // nothing
	flushBeat           // a heartbeat, if the link is quiet and no other writer holds it
	flushGoodbye        // the clean-shutdown frame
)

// flush is the link's one write path. Holding the write side (wmu), it
// writes every ringed frame above p.written to the live connection in
// seq order, then the control frame ctl asks for. It takes p.mu only
// between frames, to pick the next frame, stamp the cumulative ack into
// it and read the connection, and afterwards to advance the cursor. A
// failed write starts the heal path; the frame stays ringed and the new
// connection's flush replays it. A link that is healing, lost or swapped
// for a new connection mid-write ends the call: adopt flushes again.
//
//repro:allocfree
func (w *netWorld) flush(p *netPeer, ctl int) {
	if ctl != flushBeat {
		p.wmu.Lock()
	} else if !p.wmu.TryLock() {
		return // a link mid-write is not quiet
	}
	defer p.wmu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.state == peerOK && !w.killed.Load() {
		conn, seq := p.conn, p.written+1
		data := seq <= p.sendSeq
		var buf []byte
		var act NetFaultAction
		var delay time.Duration
		switch {
		case data && ctl != flushBeat:
			slot := &p.ring[seq%uint64(len(p.ring))]
			buf, act, delay = slot.buf, slot.fault, slot.delay
			slot.fault = NetFaultNone
		case ctl == flushGoodbye,
			// A heartbeat goes when no frame is pending (its sender is
			// about to flush it) and nothing left within a period (the
			// peer's read deadline needs traffic) or a delivered frame's
			// ack has ridden on nothing (one-way flows must not stall
			// the sender's window).
			ctl == flushBeat && !data && (p.recvSeq.Load() != p.lastAckSent || time.Since(p.lastWrite) >= w.tun.Heartbeat):
			seq = 0
			if ctl == flushGoodbye {
				seq = goodbyeSeq
			}
			p.ctl, _ = appendFrame(p.ctl[:0], seq, 0, 0, nil) // a nil value cannot fail to encode
			buf, ctl = p.ctl, flushData
		default:
			return
		}
		ack := p.recvSeq.Load()
		putFrameAck(buf, ack)
		p.mu.Unlock()
		n := len(buf)
		var err error
		switch act {
		case NetFaultDelay:
			time.Sleep(delay)
		case NetFaultDropConn:
			n, err = 0, errors.New("injected connection drop") // severed before the frame leaves
		case NetFaultPartialWrite:
			n, err = n/2, errors.New("injected partial write") // the peer sees a truncated frame
		}
		if n > 0 {
			conn.SetWriteDeadline(time.Now().Add(w.tun.WriteTimeout))
			if _, werr := conn.Write(buf[:n]); err == nil {
				err = werr
			}
		}
		p.mu.Lock()
		if p.conn != conn {
			return // healed or lost meanwhile; whatever holds the link now flushes
		}
		if err != nil {
			if !w.closed.Load() && !w.killed.Load() {
				w.startHealLocked(p, fmt.Errorf("mpi: net send to rank %d: frame %d (%d B): %w", p.rank, seq, len(buf), err))
			}
			return
		}
		p.lastWrite, p.lastAckSent = time.Now(), ack
		switch {
		case data:
			p.written = seq
			p.cond.Broadcast()
		case seq == 0:
			w.hbSent.Add(1)
		}
	}
}

func (w *netWorld) recv(c *Comm, src, tagLo, tagHi int) (Message, error) {
	return w.box.get(src, tagLo, tagHi)
}

func (w *netWorld) now(c *Comm) float64 { return time.Since(w.start).Seconds() }

func (w *netWorld) compute(c *Comm, seconds float64) {} // real work takes real time

func (w *netWorld) ioRead(c *Comm, bytes int64, seeks int) {} // real reads go through pfs

// --- Bootstrap helpers ---------------------------------------------------

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

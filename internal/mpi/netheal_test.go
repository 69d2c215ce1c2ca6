package mpi

// Self-healing transport tests: liveness detection via heartbeats,
// transparent reconnect with ring replay, peer-loss declaration, close
// accounting, and the alloc gate for the warm heartbeat+reconnect path.

import (
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testTuning is an aggressive liveness profile so heal scenarios resolve
// in milliseconds instead of the production-friendly defaults.
func testTuning() NetTuning {
	return NetTuning{
		Heartbeat:         10 * time.Millisecond,
		PeerTimeout:       300 * time.Millisecond,
		ReconnectAttempts: 5,
		ReconnectBase:     2 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
		ReconnectWindow:   2 * time.Second,
		Seed:              1,
	}
}

// siteInjector injects explicit faults at (src, dst, seq) sites — the
// deterministic schedule shape the chaos suites pin against (each pair
// gets at most one fault, so the link is guaranteed healthy when the
// faulted seq is first written and the injection always fires).
type siteInjector struct {
	act   NetFaultAction
	sites map[[3]uint64]bool
	fired atomic.Int64
}

func newSiteInjector(act NetFaultAction, sites ...[3]uint64) *siteInjector {
	m := make(map[[3]uint64]bool, len(sites))
	for _, s := range sites {
		m[s] = true
	}
	return &siteInjector{act: act, sites: m}
}

func (si *siteInjector) SendFault(src, dst int, seq, nsent uint64) (NetFaultAction, time.Duration) {
	if si.sites[[3]uint64{uint64(src), uint64(dst), seq}] {
		si.fired.Add(1)
		return si.act, 0
	}
	return NetFaultNone, 0
}

// killInjector kills rank at its nth data send.
type killInjector struct {
	rank   int
	atSend uint64
}

func (ki *killInjector) SendFault(src, dst int, seq, nsent uint64) (NetFaultAction, time.Duration) {
	if src == ki.rank && nsent >= ki.atSend {
		return NetFaultKill, 0
	}
	return NetFaultNone, 0
}

// TestNetReconnectHealsDrops: injected connection drops mid-stream heal
// transparently — every message still arrives exactly once, in order,
// and the reconnect count is pinned (each incident is adopted once per
// side: the dialer's adopt plus the acceptor's reattach adopt).
func TestNetReconnectHealsDrops(t *testing.T) {
	const rounds = 40
	inj := newSiteInjector(NetFaultDropConn,
		[3]uint64{0, 1, 7},  // rank 0's 7th frame to rank 1
		[3]uint64{1, 0, 13}, // rank 1's 13th frame back
	)
	tun := testTuning()
	tun.Fault = inj
	rep, err := RunNetErrs(2, tun, func(c *Comm) {
		const tag = 9
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				c.Send(1, tag, 8, int64(i))
				m := c.Recv(1, tag)
				if got := m.Data.(int64); got != int64(i*3) {
					t.Errorf("round %d: echoed %d, want %d", i, got, i*3)
				}
			}
		} else {
			for i := 0; i < rounds; i++ {
				m := c.Recv(0, tag)
				got := m.Data.(int64)
				if got != int64(i) {
					t.Errorf("round %d: received %d, want %d", i, got, i)
				}
				c.Send(0, tag, 8, got*3)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rerr := range rep.Errs {
		if rerr != nil {
			t.Fatalf("rank %d: %v", r, rerr)
		}
	}
	if got := inj.fired.Load(); got != 2 {
		t.Errorf("injector fired %d times, want 2", got)
	}
	total := rep.Stats[0].Reconnects + rep.Stats[1].Reconnects
	if total != 4 {
		t.Errorf("aggregate reconnects = %d, want 4 (2 incidents x 2 sides)", total)
	}
	if resent := rep.Stats[0].FramesResent + rep.Stats[1].FramesResent; resent < 2 {
		t.Errorf("frames resent = %d, want >= 2 (each dropped frame replays)", resent)
	}
	if lost := rep.Stats[0].PeersLost + rep.Stats[1].PeersLost; lost != 0 {
		t.Errorf("peers lost = %d, want 0", lost)
	}
}

// TestNetPartialWriteHeals: a connection severed mid-frame (the peer
// sees a truncated stream) heals exactly like a clean drop, with the
// half-written frame replayed whole on the new connection.
func TestNetPartialWriteHeals(t *testing.T) {
	const rounds = 20
	inj := newSiteInjector(NetFaultPartialWrite, [3]uint64{0, 1, 5})
	tun := testTuning()
	tun.Fault = inj
	rep, err := RunNetErrs(2, tun, func(c *Comm) {
		const tag = 4
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				c.Send(1, tag, 8, int64(i))
				c.Recv(1, tag)
			}
		} else {
			for i := 0; i < rounds; i++ {
				m := c.Recv(0, tag)
				if got := m.Data.(int64); got != int64(i) {
					t.Errorf("round %d: received %d, want %d", i, got, i)
				}
				c.Send(0, tag, 0, nil)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rerr := range rep.Errs {
		if rerr != nil {
			t.Fatalf("rank %d: %v", r, rerr)
		}
	}
	if got := inj.fired.Load(); got != 1 {
		t.Errorf("injector fired %d times, want 1", got)
	}
	if total := rep.Stats[0].Reconnects + rep.Stats[1].Reconnects; total != 2 {
		t.Errorf("aggregate reconnects = %d, want 2", total)
	}
}

// TestNetPeerKillDeclaresLost: a killed rank's peers declare it lost
// once the reconnect window lapses — receives addressed to it surface a
// typed *PeerLostError (matching ErrPeerLost), PeerLost flips, frames
// written before the kill still arrive (a crashed process's kernel
// buffer drains), and sends to the lost rank drop silently.
func TestNetPeerKillDeclaresLost(t *testing.T) {
	tun := testTuning()
	tun.Heartbeat = -1 // detection via EOF only; no reverse traffic at kill time
	tun.ReconnectWindow = 150 * time.Millisecond
	tun.Fault = &killInjector{rank: 2, atSend: 3}
	rep, err := RunNetErrs(3, tun, func(c *Comm) {
		const tag = 6
		switch c.Rank() {
		case 2:
			for i := 0; i < 10; i++ {
				c.Send(0, tag, 8, int64(i)) // the 4th send (nsent 3) kills us
			}
			t.Error("rank 2 survived its kill schedule")
		case 0:
			for i := 0; i < 3; i++ {
				m, err := c.RecvErr(2, tag)
				if err != nil {
					t.Errorf("pre-kill recv %d: %v", i, err)
					return
				}
				if got := m.Data.(int64); got != int64(i) {
					t.Errorf("pre-kill recv %d: got %d", i, got)
				}
			}
			_, err := c.RecvErr(2, tag)
			var ple *PeerLostError
			if !errors.As(err, &ple) || !errors.Is(err, ErrPeerLost) {
				t.Errorf("post-kill recv: err = %v, want *PeerLostError", err)
			} else if ple.Rank != 2 {
				t.Errorf("PeerLostError.Rank = %d, want 2", ple.Rank)
			}
			c.Send(2, tag, 8, int64(99)) // must drop silently, not panic
		case 1:
			_, err := c.RecvErr(2, tag) // rank 2 never sends to us: loss unblocks it
			if !errors.Is(err, ErrPeerLost) {
				t.Errorf("rank 1 recv from killed rank: err = %v, want ErrPeerLost", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errs[2] == nil || !errors.Is(rep.Errs[2], ErrRankKilled) {
		t.Errorf("rank 2 err = %v, want ErrRankKilled", rep.Errs[2])
	}
	for _, r := range []int{0, 1} {
		if rep.Errs[r] != nil {
			t.Errorf("rank %d err = %v, want nil", r, rep.Errs[r])
		}
		if rep.Stats[r].PeersLost != 1 {
			t.Errorf("rank %d PeersLost = %d, want 1", r, rep.Stats[r].PeersLost)
		}
	}
	if rep.Stats[0].MessagesDropped == 0 {
		t.Error("rank 0 MessagesDropped = 0, want the post-loss send counted")
	}
}

// TestNetCloseReportsDroppedMessages: Close must not silently discard
// in-flight messages no Recv ever matched — the drained count surfaces
// as a typed *DroppedMessagesError.
func TestNetCloseReportsDroppedMessages(t *testing.T) {
	rep, err := RunNetErrs(2, NetTuning{}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, 8, int64(7)) // never received
			c.Send(1, 2, 8, int64(8))
		} else {
			// Per-pair FIFO: once the tag-2 message is here, the tag-1
			// message is already queued ahead of it.
			c.Recv(0, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errs[0] != nil {
		t.Errorf("rank 0 close err = %v, want nil", rep.Errs[0])
	}
	var dme *DroppedMessagesError
	if !errors.As(rep.Errs[1], &dme) {
		t.Fatalf("rank 1 close err = %v, want *DroppedMessagesError", rep.Errs[1])
	}
	if dme.Rank != 1 || dme.Count != 1 {
		t.Errorf("dropped = rank %d count %d, want rank 1 count 1", dme.Rank, dme.Count)
	}
	if rep.Stats[1].MessagesDropped != 1 {
		t.Errorf("rank 1 MessagesDropped = %d, want 1", rep.Stats[1].MessagesDropped)
	}
}

// TestNetBootstrapReportsMissingRanks: when the rendezvous times out,
// the coordinator's error must name the ranks that never registered.
func TestNetBootstrapReportsMissingRanks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	go func() {
		// Rank 1 joins; rank 2 never does, so this join fails too
		// (table never arrives) — only the coordinator's error matters.
		nw, err := Join(NetConfig{Rank: 1, Size: 3, Coordinator: coord,
			DialTimeout: 2 * time.Second})
		if err == nil {
			nw.Close()
		}
	}()
	_, err = Join(NetConfig{Rank: 0, Size: 3, Coordinator: coord,
		DialTimeout: 300 * time.Millisecond, listener: ln})
	if err == nil {
		t.Fatal("coordinator join succeeded with a missing rank")
	}
	if !strings.Contains(err.Error(), "missing ranks [2]") {
		t.Errorf("bootstrap error %q does not name the missing ranks", err)
	}
}

// TestNetHeartbeatKeepsIdleAlive: an idle link several PeerTimeouts long
// must not be declared dead — heartbeats carry the liveness signal.
func TestNetHeartbeatKeepsIdleAlive(t *testing.T) {
	tun := NetTuning{
		Heartbeat:   10 * time.Millisecond,
		PeerTimeout: 60 * time.Millisecond,
	}
	rep, err := RunNetErrs(2, tun, func(c *Comm) {
		const tag = 2
		if c.Rank() == 0 {
			c.Send(1, tag, 0, nil)
			time.Sleep(300 * time.Millisecond) // 5x PeerTimeout of silence
			c.Send(1, tag, 0, nil)
			c.Recv(1, tag)
		} else {
			c.Recv(0, tag)
			time.Sleep(300 * time.Millisecond)
			c.Recv(0, tag)
			c.Send(0, tag, 0, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rerr := range rep.Errs {
		if rerr != nil {
			t.Fatalf("rank %d: %v", r, rerr)
		}
	}
	hb := rep.Stats[0].HeartbeatsSent + rep.Stats[1].HeartbeatsSent
	if hb == 0 {
		t.Error("no heartbeats sent across a 300ms idle window")
	}
	if rc := rep.Stats[0].Reconnects + rep.Stats[1].Reconnects; rc != 0 {
		t.Errorf("idle link reconnected %d times, want 0", rc)
	}
}

// TestNetHeartbeatReconnectAllocFree: with heartbeats enabled and a
// healed reconnect behind it, the warm framing path (send, socket,
// reader, mailbox — nil payload, so no codec in the way) must stay at
// ~0 allocs/round, the same steady-state gate the pooled-payload data
// path pins in internal/core.
func TestNetHeartbeatReconnectAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warmup, rounds = 64, 256
	inj := newSiteInjector(NetFaultDropConn, [3]uint64{0, 1, 5})
	tun := testTuning()
	tun.Heartbeat = 5 * time.Millisecond
	tun.Fault = inj
	var perRound float64
	rep, err := RunNetErrs(2, tun, func(c *Comm) {
		const tag = 3
		if c.Rank() == 1 {
			for i := 0; i < warmup+rounds; i++ {
				c.Recv(0, tag)
				c.Send(0, tag, 0, nil)
			}
			return
		}
		round := func() {
			c.Send(1, tag, 8, nil)
			c.Recv(1, tag)
		}
		for i := 0; i < warmup; i++ {
			round()
		}
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		perRound = float64(after.Mallocs-before.Mallocs) / rounds
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rerr := range rep.Errs {
		if rerr != nil {
			t.Fatalf("rank %d: %v", r, rerr)
		}
	}
	if inj.fired.Load() != 1 {
		t.Fatalf("warmup drop fired %d times, want 1", inj.fired.Load())
	}
	if total := rep.Stats[0].Reconnects + rep.Stats[1].Reconnects; total != 2 {
		t.Fatalf("reconnects = %d, want 2 — the measured window must be post-heal", total)
	}
	if perRound > 0.2 {
		t.Errorf("healed+heartbeat round trip allocates %.2f allocs/round, want ~0", perRound)
	}
}

// TestNetReconnectStressRace: many concurrent links healing under a
// probabilistic drop schedule, meant for -race — per-pair FIFO and
// exactly-once delivery must survive arbitrary heal interleavings.
func TestNetReconnectStressRace(t *testing.T) {
	const rounds = 30
	// Seeded probabilistic drops: ~4% of data frames sever their
	// connection. Pure function of (src, dst, seq), so every run of a
	// given seed sees the same schedule.
	inj := &hashDropInjector{seed: 0xbeef, permille: 40}
	tun := testTuning()
	tun.Fault = inj
	rep, err := RunNetErrs(3, tun, func(c *Comm) {
		const tag = 5
		n := c.Size()
		for i := 0; i < rounds; i++ {
			for dst := 0; dst < n; dst++ {
				if dst != c.Rank() {
					c.Send(dst, tag, 8, int64(c.Rank()*1000+i))
				}
			}
			for src := 0; src < n; src++ {
				if src == c.Rank() {
					continue
				}
				m := c.Recv(src, tag)
				if got := m.Data.(int64); got != int64(src*1000+i) {
					t.Errorf("rank %d round %d: from %d got %d", c.Rank(), i, src, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rerr := range rep.Errs {
		if rerr != nil {
			t.Fatalf("rank %d: %v", r, rerr)
		}
	}
	var drops, reconnects, lost uint64
	for _, s := range rep.Stats {
		reconnects += s.Reconnects
		lost += s.PeersLost
	}
	drops = uint64(inj.fired.Load())
	if lost != 0 {
		t.Fatalf("%d peers lost under a heal-only schedule", lost)
	}
	if drops == 0 {
		t.Fatal("drop schedule never fired; the stress test exercised nothing")
	}
	// Every incident is adopted on both sides; concurrent drops on the
	// same pair can coalesce into one heal, so <= rather than ==.
	if reconnects > 2*drops {
		t.Errorf("reconnects = %d for %d drops, want <= 2x", reconnects, drops)
	}
	t.Logf("drops=%d reconnects=%d", drops, reconnects)
}

// hashDropInjector drops connections on a seeded hash of the frame
// coordinates: deterministic per seed, uniform over links and seqs.
type hashDropInjector struct {
	seed     uint64
	permille uint64
	fired    atomic.Int64
}

func (hi *hashDropInjector) SendFault(src, dst int, seq, nsent uint64) (NetFaultAction, time.Duration) {
	h := netJitterHash(hi.seed, uint64(src), uint64(dst), seq)
	if h%1000 < hi.permille {
		hi.fired.Add(1)
		return NetFaultDropConn, 0
	}
	return NetFaultNone, 0
}

// BenchmarkNetReconnect measures a full heal cycle: detect (write
// failure), re-dial, reattach handshake, ring replay, resume. Every
// round drops rank 0's next frame, so rounds/sec is heals/sec.
func BenchmarkNetReconnect(b *testing.B) {
	tun := testTuning()
	tun.Heartbeat = -1 // isolate the heal cost from heartbeat traffic
	tun.Fault = &everyFrameDropInjector{}
	rep, err := RunNetErrs(2, tun, func(c *Comm) {
		const tag = 8
		if c.Rank() == 0 {
			// One untimed exchange warms codec scratch and the heal
			// path itself, then every timed round heals exactly once.
			c.Send(1, tag, 8, int64(0))
			c.Recv(1, tag)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Send(1, tag, 8, int64(i))
				c.Recv(1, tag)
			}
			b.StopTimer()
		} else {
			for i := 0; i < b.N+1; i++ {
				c.Recv(0, tag)
				c.Send(0, tag, 0, nil)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	for r, rerr := range rep.Errs {
		if rerr != nil {
			b.Fatalf("rank %d: %v", r, rerr)
		}
	}
}

// everyFrameDropInjector severs rank 0's connection on every data frame
// it writes: each benchmark round is forced through a full heal.
type everyFrameDropInjector struct{}

func (everyFrameDropInjector) SendFault(src, dst int, seq, nsent uint64) (NetFaultAction, time.Duration) {
	if src == 0 {
		return NetFaultDropConn, 0
	}
	return NetFaultNone, 0
}

// BenchmarkNetRoundTripHeartbeat is BenchmarkNetRoundTrip with an
// aggressive heartbeat cadence, pinning the liveness machinery's
// overhead on the hot data path (quakebench counts the heartbeats of a
// real run as mpi.net_heartbeats; bench/README.md).
func BenchmarkNetRoundTripHeartbeat(b *testing.B) {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.SetBytes(int64(len(payload)) * 2)
	tun := NetTuning{Heartbeat: time.Millisecond}
	rep, err := RunNetErrs(2, tun, func(c *Comm) {
		const tag = 11
		n := int64(len(payload))
		if c.Rank() == 0 {
			c.Send(1, tag, n, payload)
			c.Recv(1, tag)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Send(1, tag, n, payload)
				c.Recv(1, tag)
			}
			b.StopTimer()
		} else {
			for i := 0; i < b.N+1; i++ {
				m := c.Recv(0, tag)
				c.Send(0, tag, m.Bytes, m.Data)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	for r, rerr := range rep.Errs {
		if rerr != nil {
			b.Fatalf("rank %d: %v", r, rerr)
		}
	}
}

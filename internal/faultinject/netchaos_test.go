package faultinject

// Net chaos schedule tests: determinism per seed, explicit-site firing,
// kill gating — plus the end-to-end fuzz target that drives seeded drop
// schedules through a live two-rank loopback transport and requires
// every message to arrive exactly once, in order, regardless of seed.

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestNetChaosDeterministic: equal seeds give identical per-frame
// verdicts; different seeds give a different schedule.
func TestNetChaosDeterministic(t *testing.T) {
	cfg := NetChaosConfig{Seed: 7, PDrop: 0.1, PPartial: 0.05, PDelay: 0.1}
	a, b := NewNetChaos(cfg), NewNetChaos(cfg)
	cfg.Seed = 8
	c := NewNetChaos(cfg)
	same, diff := 0, 0
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			for seq := uint64(1); seq <= 200; seq++ {
				av, _ := a.SendFault(src, dst, seq, 0)
				bv, _ := b.SendFault(src, dst, seq, 0)
				cv, _ := c.SendFault(src, dst, seq, 0)
				if av != bv {
					t.Fatalf("seed 7 disagrees with itself at (%d,%d,%d): %d vs %d", src, dst, seq, av, bv)
				}
				if av == cv {
					same++
				} else {
					diff++
				}
			}
		}
	}
	if diff == 0 {
		t.Error("seeds 7 and 8 produced identical schedules")
	}
	st := a.Stats()
	if st.Drops == 0 || st.Partials == 0 || st.Delays == 0 {
		t.Errorf("schedule fired drops=%d partials=%d delays=%d, want all > 0", st.Drops, st.Partials, st.Delays)
	}
}

// TestNetChaosExplicitSites: DropAt/PartialAt fire exactly at their
// sites and nowhere else, and the kill schedule only fires when armed.
func TestNetChaosExplicitSites(t *testing.T) {
	nc := NewNetChaos(NetChaosConfig{
		DropAt:    []NetFaultSite{{Src: 0, Dst: 1, Seq: 7}},
		PartialAt: []NetFaultSite{{Src: 1, Dst: 0, Seq: 3}},
	})
	for seq := uint64(1); seq <= 20; seq++ {
		act, _ := nc.SendFault(0, 1, seq, seq-1)
		want := mpi.NetFaultNone
		if seq == 7 {
			want = mpi.NetFaultDropConn
		}
		if act != want {
			t.Errorf("(0,1,%d): action %d, want %d", seq, act, want)
		}
		act, _ = nc.SendFault(1, 0, seq, seq-1)
		want = mpi.NetFaultNone
		if seq == 3 {
			want = mpi.NetFaultPartialWrite
		}
		if act != want {
			t.Errorf("(1,0,%d): action %d, want %d", seq, act, want)
		}
	}
	st := nc.Stats()
	if st.Drops != 1 || st.Partials != 1 || st.Kills != 0 {
		t.Errorf("stats = %+v, want 1 drop, 1 partial, 0 kills", st)
	}

	// The zero-value kill schedule must be inert even for rank 0.
	if act, _ := NewNetChaos(NetChaosConfig{}).SendFault(0, 1, 1, 0); act != mpi.NetFaultNone {
		t.Errorf("unarmed kill schedule fired action %d", act)
	}
	armed := NewNetChaos(NetChaosConfig{Kill: true, KillRank: 0, KillAtSend: 2})
	if act, _ := armed.SendFault(0, 1, 1, 1); act != mpi.NetFaultNone {
		t.Error("kill fired below KillAtSend")
	}
	if act, _ := armed.SendFault(0, 1, 2, 2); act != mpi.NetFaultKill {
		t.Error("kill did not fire at KillAtSend")
	}
}

// TestNetChaosMaxFaults: the incident budget caps drops+partials.
func TestNetChaosMaxFaults(t *testing.T) {
	nc := NewNetChaos(NetChaosConfig{Seed: 3, PDrop: 1, MaxFaults: 2})
	fired := 0
	for seq := uint64(1); seq <= 10; seq++ {
		if act, _ := nc.SendFault(0, 1, seq, 0); act == mpi.NetFaultDropConn {
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("fired %d drops under MaxFaults=2, want 2", fired)
	}
}

// word is an int64 as the transport can carry it: []byte is the one builtin
// wire codec, so a round number crosses as its eight little-endian bytes.
func word(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

// wordOf is the int64 a word payload carries.
func wordOf(m mpi.Message) int64 { return int64(binary.LittleEndian.Uint64(m.Data.([]byte))) }

// runChaosPingPong drives rounds of a two-rank ordered ping-pong under
// the given schedule and fails the test on any lost, duplicated or
// reordered message. Returns the per-rank transport stats.
func runChaosPingPong(t testing.TB, nc *NetChaos, rounds int) mpi.NetReport {
	t.Helper()
	tun := mpi.NetTuning{
		Heartbeat:         10 * time.Millisecond,
		PeerTimeout:       300 * time.Millisecond,
		ReconnectAttempts: 5,
		ReconnectBase:     2 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
		ReconnectWindow:   2 * time.Second,
		Fault:             nc,
	}
	rep, err := mpi.RunNetErrs(2, tun, func(c *mpi.Comm) {
		const tag = 12
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				c.Send(1, tag, 8, word(int64(i)))
				m := c.Recv(1, tag)
				if got := wordOf(m); got != int64(i) {
					t.Errorf("round %d: echo %d", i, got)
				}
			}
		} else {
			for i := 0; i < rounds; i++ {
				m := c.Recv(0, tag)
				if got := wordOf(m); got != int64(i) {
					t.Errorf("round %d: received %d", i, got)
				}
				c.Send(0, tag, 8, m.Data)
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
	return rep
}

// TestNetChaosOverTransport: a seeded drop schedule against the live
// transport — deterministic incident count, every incident healed, no
// peers lost, traffic intact.
func TestNetChaosOverTransport(t *testing.T) {
	nc := NewNetChaos(NetChaosConfig{Seed: 42, PDrop: 0.05, MaxFaults: 6})
	rep := runChaosPingPong(t, nc, 60)
	st := nc.Stats()
	if st.Drops == 0 {
		t.Fatal("seed 42 fired no drops; pick a livelier seed")
	}
	if lost := rep.Stats[0].PeersLost + rep.Stats[1].PeersLost; lost != 0 {
		t.Errorf("peers lost = %d, want 0", lost)
	}
	if rc := rep.Stats[0].Reconnects + rep.Stats[1].Reconnects; rc == 0 || rc > 2*uint64(st.Drops) {
		t.Errorf("reconnects = %d for %d drops, want in (0, 2x]", rc, st.Drops)
	}
}

// FuzzNetChaos: arbitrary (seed, drop/partial rates, rounds) schedules
// against the live transport must never lose, duplicate or reorder a
// message — heal-only schedules always converge to a clean run. The
// committed seeds cover drop-heavy, partial-heavy, mixed and quiet
// schedules.
func FuzzNetChaos(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(0), uint8(20))
	f.Add(uint64(42), uint16(50), uint16(25), uint8(30))
	f.Add(uint64(0xbeef), uint16(0), uint16(60), uint8(15))
	f.Add(uint64(7), uint16(0), uint16(0), uint8(10))
	f.Add(uint64(0xdead), uint16(120), uint16(80), uint8(25))
	f.Fuzz(func(t *testing.T, seed uint64, dropPM, partialPM uint16, rounds uint8) {
		if rounds == 0 || rounds > 40 {
			t.Skip("round count out of the useful range")
		}
		// Cap rates so the budgeted reconnect attempts always win:
		// the fuzz property is "heals converge", not "loss degrades".
		nc := NewNetChaos(NetChaosConfig{
			Seed:     seed,
			PDrop:    float64(dropPM%200) / 1000,
			PPartial: float64(partialPM%200) / 1000,
			// At most a handful of incidents per run: enough to stress
			// replay and dedup, bounded enough to stay fast.
			MaxFaults: 5,
		})
		runChaosPingPong(t, nc, int(rounds))
	})
}

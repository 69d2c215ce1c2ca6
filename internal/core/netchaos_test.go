package core

// Chaos-over-net suite for the self-healing transport (docs/faults.md
// "Network failure domain"): the full pipeline distributed over loopback
// TCP under seeded connection-level faults. Healable schedules (explicit
// drop sites, each firing exactly once) must converge to frames
// bit-identical to a clean wall-clock run with exactly 2 reconnects per
// incident and nothing degraded; a renderer rank killed mid-run must
// degrade — not abort — with pinned frame/loss accounting.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// runNetChaosPipeline runs a fresh workload+pipeline over the tuned TCP
// transport and returns the workload, pipeline, transport report and the
// per-rank Run errors (panics — e.g. an injected rank kill — land in the
// report's Errs instead).
func runNetChaosPipeline(t *testing.T, store pfs.Store, l Layout, opts Options, tun mpi.NetTuning) (*RealWorkload, *Pipeline, mpi.NetReport, []error, []commStats) {
	t.Helper()
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	p, err := NewPipeline(l, w)
	if err != nil {
		t.Fatal(err)
	}
	runErrs := make([]error, l.WorldSize())
	stats := make([]commStats, l.WorldSize())
	var mu sync.Mutex
	rep, err := mpi.RunNetErrs(l.WorldSize(), tun, func(c *mpi.Comm) {
		rerr := p.Run(c)
		mu.Lock()
		runErrs[c.Rank()] = rerr
		stats[c.Rank()] = commStats{c.MsgsSent, c.MsgsRecv, c.BytesSent, c.BytesRecv}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, p, rep, runErrs, stats
}

// TestChaosNetDropsHealBitIdentical: three scheduled connection drops —
// one per traffic class (pieces input->renderer for both groups, strips
// renderer->output) — each heal transparently: exactly two adoptions per
// incident, the dropped frames replayed from the resend ring, no rank
// lost, no frame degraded, and the output bit-identical to a clean
// wall-clock run with identical per-rank message accounting.
func TestChaosNetDropsHealBitIdentical(t *testing.T) {
	const steps = 3
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	opts := tolerant(48, 48)
	ref, refRes, refStats := runPipelineOver(t, store, l, opts, overReal, nil)

	// World ranks: inputs 0-1, renderers 2-4, output 5. Group 0's input
	// (rank 0) serves steps 0 and 2, so (0,2) carries data seqs 1-2;
	// group 1's input serves step 1 only; rank 4 sends one strip per step.
	nc := faultinject.NewNetChaos(faultinject.NetChaosConfig{
		DropAt: []faultinject.NetFaultSite{
			{Src: 0, Dst: 2, Seq: 2},
			{Src: 1, Dst: 3, Seq: 1},
			{Src: 4, Dst: 5, Seq: 2},
		},
	})
	tun := mpi.NetTuning{
		Heartbeat:         20 * time.Millisecond,
		PeerTimeout:       300 * time.Millisecond,
		ReconnectAttempts: 5,
		ReconnectBase:     2 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
		ReconnectWindow:   2 * time.Second,
		Fault:             nc,
	}
	w, p, rep, runErrs, stats := runNetChaosPipeline(t, store, l, opts, tun)
	for r, err := range rep.Errs {
		if err == nil {
			err = runErrs[r]
		}
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if st := nc.Stats(); st.Drops != 3 {
		t.Fatalf("drops fired = %d, want exactly 3 (sites mis-aimed?)", st.Drops)
	}
	var reconnects, resent, lost uint64
	for _, s := range rep.Stats {
		reconnects += s.Reconnects
		resent += s.FramesResent
		lost += s.PeersLost
	}
	if reconnects != 6 {
		t.Errorf("reconnects = %d, want 6 (2 per incident)", reconnects)
	}
	if resent < 3 {
		t.Errorf("frames resent = %d, want >= 3 (each dropped frame replayed)", resent)
	}
	if lost != 0 {
		t.Errorf("peers lost = %d, want 0", lost)
	}
	if p.Res.Frames != refRes.Frames {
		t.Fatalf("frames = %d, want %d", p.Res.Frames, refRes.Frames)
	}
	if p.Res.DegradedFrames != 0 || p.Res.FaultEvents != 0 {
		t.Errorf("healed schedule degraded the run: degraded=%d events=%d",
			p.Res.DegradedFrames, p.Res.FaultEvents)
	}
	requireFramesEqual(t, ref, w, steps)
	// Retransmission is below the Comm layer: per-rank accounting must
	// match the clean wall-clock run exactly.
	requireSameTraffic(t, "netchaos", refStats, stats)
}

// TestChaosNetPeerKillDegrades: renderer rank 3 dies mid-run (seeded
// kill at its 6th data send, no goodbye). With the fault policy armed
// the run completes every step: the survivors declare exactly one peer
// lost each, frames the dead renderer contributed to degrade instead of
// aborting, and frames assembled before the kill stay bit-identical to
// the clean reference.
func TestChaosNetPeerKillDegrades(t *testing.T) {
	const steps = 3
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	opts := tolerant(48, 48)
	ref, _, _ := runPipelineOver(t, store, l, opts, overReal, nil)

	const killRank = 3
	nc := faultinject.NewNetChaos(faultinject.NetChaosConfig{
		Kill:       true,
		KillRank:   killRank,
		KillAtSend: 6,
	})
	tun := mpi.NetTuning{
		Heartbeat:         -1, // EOF-based detection: pre-kill frames all arrive
		PeerTimeout:       2 * time.Second,
		WriteTimeout:      250 * time.Millisecond,
		ReconnectAttempts: 2,
		ReconnectBase:     2 * time.Millisecond,
		ReconnectMax:      10 * time.Millisecond,
		ReconnectWindow:   300 * time.Millisecond,
		Fault:             nc,
	}
	w, p, rep, runErrs, _ := runNetChaosPipeline(t, store, l, opts, tun)
	if !errors.Is(rep.Errs[killRank], mpi.ErrRankKilled) {
		t.Fatalf("rank %d error = %v, want ErrRankKilled", killRank, rep.Errs[killRank])
	}
	for r := range rep.Errs {
		if r == killRank {
			continue
		}
		if rep.Errs[r] != nil || runErrs[r] != nil {
			t.Errorf("survivor rank %d: %v / %v", r, rep.Errs[r], runErrs[r])
		}
	}
	if st := nc.Stats(); st.Kills == 0 {
		t.Fatal("kill schedule never fired")
	}
	var lost uint64
	for r, s := range rep.Stats {
		if r == killRank {
			continue
		}
		if s.PeersLost != 1 {
			t.Errorf("rank %d peers lost = %d, want 1 (the killed renderer)", r, s.PeersLost)
		}
		lost += s.PeersLost
	}
	if lost != 5 {
		t.Errorf("total peers lost = %d, want 5", lost)
	}
	if p.Res.Frames != steps {
		t.Fatalf("frames = %d, want %d (degrade must not abort)", p.Res.Frames, steps)
	}
	// Pinned degrade accounting: the kill lands at a fixed point in rank
	// 3's deterministic send order, every frame it sent before dying
	// arrives (FIN after data, no goodbye), and everything after is a
	// tolerated peer-loss gap.
	if p.Res.DegradedFrames != 2 {
		t.Errorf("degraded frames = %d, want 2", p.Res.DegradedFrames)
	}
	if p.Res.FaultEvents != 0 || p.Res.Retries != 0 || p.Res.StaleSteps != 0 {
		t.Errorf("store-fault counters moved on a network kill: events=%d retries=%d stale=%d",
			p.Res.FaultEvents, p.Res.Retries, p.Res.StaleSteps)
	}
	for step := 0; step < steps; step++ {
		a, b := ref.Frame(step), w.Frame(step)
		if a == nil || b == nil {
			t.Fatalf("missing frame %d (ref %v, got %v)", step, a != nil, b != nil)
		}
		if w.FrameDegraded(step) {
			continue // the dead renderer's pixels are absent by design
		}
		if d := img.MaxAbsDiff(a, b); d != 0 {
			t.Errorf("pre-kill step %d differs from reference (max abs %g)", step, d)
		}
	}
	if w.FrameDegraded(0) {
		t.Error("step 0 degraded: the kill fired before the first frame completed")
	}
}

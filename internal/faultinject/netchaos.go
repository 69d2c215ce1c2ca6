package faultinject

// Net chaos: the transport-layer counterpart of the store fault schedule.
// NetChaos implements mpi.NetFaultInjector, deciding per outgoing data
// frame — as a pure function of (seed, src, dst, frame seq), exactly like
// the read-site schedules — whether the connection drops, the frame is
// written partially, the frame is delayed, or the sending rank dies.
// Determinism per seed is what lets the chaos-over-net suites pin exact
// outcomes: N scheduled drops heal into exactly 2N adoptions and frames
// bit-identical to a clean run.

import (
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// NetFaultSite names one frame write: the seq-th data frame src sends to
// dst on their shared connection. Explicit site lists are the
// deterministic schedule shape — a site fires exactly once, when that
// frame is first written on a healthy connection (post-heal replays are
// not re-consulted).
type NetFaultSite struct {
	// Src is the sending world rank.
	Src int
	// Dst is the receiving world rank.
	Dst int
	// Seq is the 1-based per-connection data frame sequence number.
	Seq uint64
}

// NetChaosConfig is a seeded network fault schedule. Explicit DropAt /
// PartialAt site lists give exactly-pinnable incidents; the P*
// probabilities add a seeded per-frame schedule on top for stress and
// fuzz runs. The kill schedule is keyed on the sender's global data-send
// counter, which is deterministic under a rank's own send order.
type NetChaosConfig struct {
	// Seed selects the probabilistic schedule; equal seeds give equal
	// schedules.
	Seed uint64

	// PDrop is the per-frame probability the connection is severed
	// before the frame leaves (the transport heals and replays).
	PDrop float64
	// PPartial is the per-frame probability of a partial write followed
	// by a severed connection (the receiver sees a truncated stream).
	PPartial float64
	// PDelay is the per-frame probability the write sleeps Delay first.
	PDelay float64
	// Delay is the injected latency for delayed frames.
	Delay time.Duration

	// DropAt severs the connection at exactly these frame sites.
	DropAt []NetFaultSite
	// PartialAt partially writes exactly these frame sites.
	PartialAt []NetFaultSite

	// Kill enables the rank-kill schedule (off in the zero value, so a
	// drops-only config cannot kill rank 0 by accident).
	Kill bool
	// KillRank names the rank that dies mid-run when Kill is set.
	KillRank int
	// KillAtSend is the global data-send count at which KillRank dies:
	// its KillAtSend-th send (0-based) never completes.
	KillAtSend uint64

	// MaxFaults, when > 0, caps the total drop+partial incidents the
	// schedule fires (kills are not counted), so probabilistic runs
	// cannot degenerate into a peer-loss storm.
	MaxFaults int64
}

// NetChaosStats counts fired injections by class.
type NetChaosStats struct {
	// Frames is every injection decision taken (one per first write of a
	// data frame).
	Frames int64
	// Drops is fired connection drops.
	Drops int64
	// Partials is fired partial writes.
	Partials int64
	// Delays is fired frame delays.
	Delays int64
	// Kills is fired rank kills (0 or 1 per schedule).
	Kills int64
}

// NetChaos is a seeded mpi.NetFaultInjector. Safe for concurrent use by
// every sender goroutine of a rank; share one instance across the ranks
// of an in-process RunNetErrs harness to aggregate its counters.
type NetChaos struct {
	cfg      NetChaosConfig
	dropAt   map[NetFaultSite]bool
	partial  map[NetFaultSite]bool
	frames   atomic.Int64
	drops    atomic.Int64
	partials atomic.Int64
	delays   atomic.Int64
	kills    atomic.Int64
}

// NewNetChaos builds the injector for one schedule.
//
//repro:allow deadexport: test injector
func NewNetChaos(cfg NetChaosConfig) *NetChaos {
	nc := &NetChaos{cfg: cfg}
	if len(cfg.DropAt) > 0 {
		nc.dropAt = make(map[NetFaultSite]bool, len(cfg.DropAt))
		for _, s := range cfg.DropAt {
			nc.dropAt[s] = true
		}
	}
	if len(cfg.PartialAt) > 0 {
		nc.partial = make(map[NetFaultSite]bool, len(cfg.PartialAt))
		for _, s := range cfg.PartialAt {
			nc.partial[s] = true
		}
	}
	return nc
}

// Stats returns a snapshot of the fired-injection counters.
//
//repro:allow deadexport: test injector
func (nc *NetChaos) Stats() NetChaosStats {
	return NetChaosStats{
		Frames:   nc.frames.Load(),
		Drops:    nc.drops.Load(),
		Partials: nc.partials.Load(),
		Delays:   nc.delays.Load(),
		Kills:    nc.kills.Load(),
	}
}

// SendFault implements mpi.NetFaultInjector: the verdict for the seq-th
// frame src sends to dst, with nsent the sender's global data-send
// counter. Kill is checked first (a dead rank drops nothing), then the
// explicit site lists, then the seeded probabilistic schedule.
func (nc *NetChaos) SendFault(src, dst int, seq, nsent uint64) (mpi.NetFaultAction, time.Duration) {
	nc.frames.Add(1)
	if nc.cfg.Kill && src == nc.cfg.KillRank && nsent >= nc.cfg.KillAtSend {
		nc.kills.Add(1)
		return mpi.NetFaultKill, 0
	}
	site := NetFaultSite{Src: src, Dst: dst, Seq: seq}
	if nc.dropAt[site] {
		if nc.budgetOK() {
			nc.drops.Add(1)
			return mpi.NetFaultDropConn, 0
		}
		return mpi.NetFaultNone, 0
	}
	if nc.partial[site] {
		if nc.budgetOK() {
			nc.partials.Add(1)
			return mpi.NetFaultPartialWrite, 0
		}
		return mpi.NetFaultNone, 0
	}
	if nc.cfg.PDrop == 0 && nc.cfg.PPartial == 0 && nc.cfg.PDelay == 0 {
		return mpi.NetFaultNone, 0
	}
	// 53 uniform bits -> [0, 1), the same construction as the store
	// schedule, hashed over the frame coordinates.
	h := netChaosHash(nc.cfg.Seed, uint64(src), uint64(dst), seq)
	u := float64(h>>11) / (1 << 53)
	if u < nc.cfg.PDrop {
		if nc.budgetOK() {
			nc.drops.Add(1)
			return mpi.NetFaultDropConn, 0
		}
		return mpi.NetFaultNone, 0
	}
	u -= nc.cfg.PDrop
	if u < nc.cfg.PPartial {
		if nc.budgetOK() {
			nc.partials.Add(1)
			return mpi.NetFaultPartialWrite, 0
		}
		return mpi.NetFaultNone, 0
	}
	u -= nc.cfg.PPartial
	if u < nc.cfg.PDelay {
		nc.delays.Add(1)
		return mpi.NetFaultDelay, nc.cfg.Delay
	}
	return mpi.NetFaultNone, 0
}

// budgetOK consumes one unit of the MaxFaults budget (unlimited when the
// cap is zero or negative).
func (nc *NetChaos) budgetOK() bool {
	if nc.cfg.MaxFaults <= 0 {
		return true
	}
	if nc.drops.Load()+nc.partials.Load() >= nc.cfg.MaxFaults {
		return false
	}
	return true
}

// netChaosHash mixes (seed, src, dst, seq) into a uniform 64-bit value:
// FNV-1a over the words with a splitmix64-style finalizer, the same
// construction pfs.HashSite uses for read sites.
func netChaosHash(seed, a, b, c uint64) uint64 {
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

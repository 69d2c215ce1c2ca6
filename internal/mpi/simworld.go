package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// SimConfig describes the modeled machine for RunSim. All bandwidths are in
// bytes/second, times in seconds. The defaults in Calibrated* constructors
// live with the experiments; this struct is mechanism only.
type SimConfig struct {
	OutBW   float64 // per-rank NIC send bandwidth
	InBW    float64 // per-rank NIC receive bandwidth
	Latency float64 // per-message latency

	DiskClientBW float64 // per-rank parallel-FS client bandwidth
	DiskAggBW    float64 // aggregate parallel-FS bandwidth across all ranks
	SeekTime     float64 // per noncontiguous segment (request overhead)

	// MsgDelay, when non-nil, returns extra virtual seconds to charge the
	// sender before a message departs — the simulated transport's
	// fault-injection hook (slow links, congested routes, chaos schedules).
	// It is called once per point-to-point send (including self-sends) and
	// must be deterministic in its arguments to keep simulated runs
	// reproducible. A negative or zero return adds nothing.
	MsgDelay func(src, dst, tag int, bytes int64) float64
}

// Validate fills harmless defaults and rejects nonsensical values.
func (c *SimConfig) Validate() error {
	if c.OutBW <= 0 || c.InBW <= 0 {
		return fmt.Errorf("mpi: SimConfig NIC bandwidths must be positive (out=%v in=%v)", c.OutBW, c.InBW)
	}
	if c.DiskClientBW <= 0 || c.DiskAggBW <= 0 {
		return fmt.Errorf("mpi: SimConfig disk bandwidths must be positive (client=%v agg=%v)", c.DiskClientBW, c.DiskAggBW)
	}
	if c.Latency < 0 || c.SeekTime < 0 {
		return fmt.Errorf("mpi: SimConfig latencies must be non-negative")
	}
	return nil
}

type simRank struct {
	proc *sim.Proc
	out  *sim.Bucket
	in   *sim.Bucket
	disk *sim.Bucket
	msgs []Message
}

type simWorld struct {
	cfg    SimConfig
	k      *sim.Kernel
	net    *sim.Network
	pfsAgg *sim.Bucket
	ranks  []*simRank
}

func (w *simWorld) deliver(dst int, m Message) {
	r := w.ranks[dst]
	r.msgs = append(r.msgs, m)
	w.k.Unpark(r.proc) // no-op unless parked; recv and Transfer both re-check
}

// injectDelay returns the MsgDelay hook's extra latency for one send, or 0.
func (w *simWorld) injectDelay(src, dst, tag int, bytes int64) float64 {
	if w.cfg.MsgDelay == nil {
		return 0
	}
	if d := w.cfg.MsgDelay(src, dst, tag, bytes); d > 0 {
		return d
	}
	return 0
}

func (w *simWorld) send(c *Comm, dst, tag int, bytes int64, data any) {
	r := w.ranks[c.rank]
	if d := w.cfg.Latency + w.injectDelay(c.rank, dst, tag, bytes); d > 0 {
		r.proc.Sleep(d)
	}
	if dst == c.rank {
		w.deliver(dst, Message{Src: c.rank, Tag: tag, Bytes: bytes, Data: data})
		return
	}
	w.net.Transfer(r.proc, float64(bytes), r.out, w.ranks[dst].in)
	w.deliver(dst, Message{Src: c.rank, Tag: tag, Bytes: bytes, Data: data})
}

func (w *simWorld) recv(c *Comm, src, tagLo, tagHi int) Message {
	r := w.ranks[c.rank]
	for {
		for i, m := range r.msgs {
			if matches(m, src, tagLo, tagHi) {
				return takeMsg(&r.msgs, i)
			}
		}
		r.proc.Park()
	}
}

func (w *simWorld) now(c *Comm) float64 { return w.k.Now() }

func (w *simWorld) compute(c *Comm, seconds float64) {
	w.ranks[c.rank].proc.Sleep(seconds)
}

func (w *simWorld) ioRead(c *Comm, bytes int64, seeks int) {
	r := w.ranks[c.rank]
	if w.cfg.SeekTime > 0 && seeks > 0 {
		r.proc.Sleep(w.cfg.SeekTime * float64(seeks))
	}
	w.net.Transfer(r.proc, float64(bytes), w.pfsAgg, r.disk)
}

// RunSim executes body on n simulated ranks over the discrete-event
// transport and returns the final virtual time in seconds. The comms slice
// passed to inspect (if non-nil) exposes per-rank statistics after the run.
func RunSim(n int, cfg SimConfig, body func(c *Comm)) float64 {
	t, _ := RunSimStats(n, cfg, body)
	return t
}

// RunSimStats is RunSim but also returns the per-rank communicators so
// callers can read the accumulated traffic statistics.
func RunSimStats(n int, cfg SimConfig, body func(c *Comm)) (float64, []*Comm) {
	if n <= 0 {
		panic("mpi: RunSim needs at least one rank")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := sim.NewKernel()
	net := sim.NewNetwork(k)
	w := &simWorld{cfg: cfg, k: k, net: net}
	w.pfsAgg = net.NewBucket("pfs", cfg.DiskAggBW)
	w.ranks = make([]*simRank, n)
	comms := make([]*Comm, n)
	for i := 0; i < n; i++ {
		w.ranks[i] = &simRank{
			out:  net.NewBucket(fmt.Sprintf("out%d", i), cfg.OutBW),
			in:   net.NewBucket(fmt.Sprintf("in%d", i), cfg.InBW),
			disk: net.NewBucket(fmt.Sprintf("disk%d", i), cfg.DiskClientBW),
		}
		comms[i] = &Comm{rank: i, size: n, w: w}
	}
	for i := 0; i < n; i++ {
		c := comms[i]
		rank := w.ranks[i]
		rank.proc = k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			body(c)
		})
	}
	return k.Run(), comms
}

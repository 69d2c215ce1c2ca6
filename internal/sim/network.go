package sim

import (
	"fmt"
	"math"
)

// Network models a set of shared-bandwidth capacity buckets (NIC links,
// file-system channels, aggregate storage bandwidth) and the data flows that
// traverse them. Concurrent flows share bandwidth max-min fairly: rates are
// recomputed by progressive filling every time the flow set changes, which
// is the standard fluid approximation for fair-shared links.
//
// A flow consumes one or more buckets simultaneously (e.g. the sender's
// out-link and the receiver's in-link); its rate is bounded by its fair
// share on every bucket it crosses. Flows are kept in start order so that
// completion wakeups are deterministic.
type Network struct {
	k        *Kernel
	buckets  []*Bucket
	flows    []*Flow // active flows in start order
	lastUpd  Time
	timerGen int64
	eps      float64
}

// Bucket is a capacity constraint shared by flows, in bytes/second.
type Bucket struct {
	Name string
	Cap  float64 // bytes per second; must be > 0
	idx  int
}

// Flow is an in-flight transfer.
type Flow struct {
	buckets   []*Bucket
	remaining float64 // bytes left
	rate      float64 // current bytes/sec
	done      bool
	owner     *Proc // parked process to wake on completion
}

// NewNetwork returns an empty network attached to k.
func NewNetwork(k *Kernel) *Network {
	return &Network{k: k, eps: 1e-9}
}

// NewBucket registers a capacity bucket with the given bandwidth in
// bytes/second.
func (n *Network) NewBucket(name string, bytesPerSec float64) *Bucket {
	if bytesPerSec <= 0 || math.IsNaN(bytesPerSec) {
		panic(fmt.Sprintf("sim: bucket %q must have positive capacity, got %v", name, bytesPerSec))
	}
	b := &Bucket{Name: name, Cap: bytesPerSec, idx: len(n.buckets)}
	n.buckets = append(n.buckets, b)
	return b
}

// advance applies the current rates over the elapsed interval.
func (n *Network) advance() {
	dt := n.k.now - n.lastUpd
	if dt > 0 {
		for _, f := range n.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	n.lastUpd = n.k.now
}

// recompute runs progressive filling to assign max-min fair rates, then
// schedules a timer for the next flow completion.
func (n *Network) recompute() {
	resid := make([]float64, len(n.buckets))
	count := make([]int, len(n.buckets))
	for _, b := range n.buckets {
		resid[b.idx] = b.Cap
	}
	unfrozen := make([]*Flow, 0, len(n.flows))
	for _, f := range n.flows {
		f.rate = 0
		unfrozen = append(unfrozen, f)
		for _, b := range f.buckets {
			count[b.idx]++
		}
	}
	for len(unfrozen) > 0 {
		// Smallest uniform rate increment that saturates some bucket.
		delta := math.Inf(1)
		for _, b := range n.buckets {
			if count[b.idx] > 0 {
				if d := resid[b.idx] / float64(count[b.idx]); d < delta {
					delta = d
				}
			}
		}
		if math.IsInf(delta, 1) {
			break // no flow crosses any bucket (shouldn't happen)
		}
		for _, f := range unfrozen {
			f.rate += delta
		}
		for _, b := range n.buckets {
			if count[b.idx] > 0 {
				resid[b.idx] -= delta * float64(count[b.idx])
			}
		}
		// Freeze flows crossing saturated buckets.
		next := unfrozen[:0]
		for _, f := range unfrozen {
			frozen := false
			for _, b := range f.buckets {
				if resid[b.idx] <= n.eps*b.Cap {
					frozen = true
					break
				}
			}
			if frozen {
				for _, b := range f.buckets {
					count[b.idx]--
				}
			} else {
				next = append(next, f)
			}
		}
		if len(next) == len(unfrozen) {
			break // numerical stall; everyone has a rate, stop
		}
		unfrozen = next
	}
	n.scheduleTimer()
}

// minTick is the network's time resolution. Completion timers never fire
// closer than this to "now"; together with doneSlack it prevents the
// floating-point livelock where now+dt == now for a vanishing remainder.
const minTick = 1e-9

// doneSlack: a flow with less than this much transfer time left is complete.
const doneSlack = 1e-9

func (n *Network) finished(f *Flow) bool {
	return f.remaining <= n.eps+f.rate*doneSlack
}

// scheduleTimer arms a (logically cancellable) timer for the earliest flow
// completion. Stale timers are detected via a generation counter.
func (n *Network) scheduleTimer() {
	n.timerGen++
	gen := n.timerGen
	tmin := math.Inf(1)
	for _, f := range n.flows {
		if f.rate > 0 {
			if t := f.remaining / f.rate; t < tmin {
				tmin = t
			}
		}
	}
	if math.IsInf(tmin, 1) {
		return
	}
	if tmin < minTick {
		tmin = minTick
	}
	n.k.After(tmin, func() {
		if gen != n.timerGen {
			return // superseded by a later recompute
		}
		n.advance()
		n.completeFinished()
	})
}

// completeFinished removes flows with no remaining bytes (in start order),
// fires their completion actions, then recomputes rates.
func (n *Network) completeFinished() {
	var finished []*Flow
	active := n.flows[:0]
	for _, f := range n.flows {
		if n.finished(f) {
			finished = append(finished, f)
		} else {
			active = append(active, f)
		}
	}
	for i := len(active); i < len(n.flows); i++ {
		n.flows[i] = nil
	}
	n.flows = active
	for _, f := range finished {
		f.done = true
		f.rate = 0
	}
	n.recompute()
	// Fire completions after rates are consistent.
	for _, f := range finished {
		n.k.Unpark(f.owner)
	}
}

// add registers a new flow and rebalances rates.
func (n *Network) add(f *Flow) {
	n.advance()
	n.flows = append(n.flows, f)
	n.recompute()
}

// Transfer moves bytes across the buckets, blocking the calling process
// until the transfer completes.
func (n *Network) Transfer(p *Proc, bytes float64, buckets ...*Bucket) {
	if bytes <= n.eps || len(buckets) == 0 {
		return
	}
	f := &Flow{buckets: buckets, remaining: bytes, owner: p}
	n.add(f)
	for !f.done {
		p.Park()
	}
}

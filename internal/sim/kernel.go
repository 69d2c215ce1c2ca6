// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel used to model the parallel machine (LeMieux-class MPP),
// its interconnect, and its parallel file system at paper scale.
//
// Processes are goroutines that run cooperatively: the kernel executes
// exactly one process (or event callback) at a time and advances a virtual
// clock between events. Ties are broken by event sequence number, so a given
// program produces bit-identical schedules on every run.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual time in seconds.
type Time = float64

// event is a scheduled occurrence: either waking a parked process or running
// a callback in kernel context.
type event struct {
	t   Time
	seq int64
	p   *Proc  // non-nil: wake this process
	fn  func() // non-nil: run this callback in kernel context
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel is a discrete-event simulation engine. The zero value is not ready
// to use; call NewKernel.
type Kernel struct {
	now    Time
	seq    int64
	events eventHeap
	yield  chan struct{}
	nlive  int // processes spawned and not yet finished
	nproc  int // total processes ever spawned (for ids)
	run    bool
}

// NewKernel returns an empty kernel at virtual time 0.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() Time { return k.now }

// schedule enqueues an event at absolute time t.
func (k *Kernel) schedule(t Time, p *Proc, fn func()) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule in the past: t=%v now=%v", t, k.now))
	}
	k.seq++
	e := &event{t: t, seq: k.seq, p: p, fn: fn}
	heap.Push(&k.events, e)
	return e
}

// After schedules fn to run in kernel context d seconds from now.
func (k *Kernel) After(d Time, fn func()) { k.schedule(k.now+d, nil, fn) }

// Proc is a simulation process. Each process runs in its own goroutine but
// only one process executes at a time; all blocking operations suspend the
// process and return control to the kernel.
type Proc struct {
	k      *Kernel
	ID     int
	Name   string
	resume chan struct{}
	parked bool
	dead   bool
}

// Spawn creates a process that will begin executing fn at the current
// virtual time (after already-scheduled events at this time).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.nproc++
	p := &Proc{k: k, ID: k.nproc, Name: name, resume: make(chan struct{})}
	k.nlive++
	go func() {
		<-p.resume // wait to be scheduled for the first time
		fn(p)
		p.dead = true
		p.k.nlive--
		p.k.yield <- struct{}{}
	}()
	k.schedule(k.now, p, nil)
	return p
}

// yieldToKernel suspends the calling process until it is resumed.
func (p *Proc) yieldToKernel() {
	p.k.yield <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d seconds of virtual time.
// Negative durations sleep zero seconds.
func (p *Proc) Sleep(d Time) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.k.schedule(p.k.now+d, p, nil)
	p.yieldToKernel()
}

// Park suspends the process indefinitely; some other agent must call
// Kernel.Unpark (or have registered the process with a waking structure such
// as Network) to resume it. Spurious wakeups are possible; callers
// must re-check their condition in a loop.
func (p *Proc) Park() {
	p.parked = true
	p.yieldToKernel()
	p.parked = false
}

// Unpark schedules p to resume at the current virtual time. It is a no-op
// if p is not parked. Safe to call from kernel context or another process.
func (k *Kernel) Unpark(p *Proc) {
	if p == nil || p.dead || !p.parked {
		return
	}
	p.parked = false // prevent double-wake; resume event is already queued
	k.schedule(k.now, p, nil)
}

// Run executes events until none remain, then returns the final virtual
// time. It panics if processes remain blocked with no pending events
// (deadlock), naming the parked processes.
func (k *Kernel) Run() Time {
	if k.run {
		panic("sim: Kernel.Run called twice")
	}
	k.run = true
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(*event)
		k.now = e.t
		switch {
		case e.p != nil:
			if e.p.dead {
				continue
			}
			e.p.resume <- struct{}{}
			<-k.yield
		case e.fn != nil:
			e.fn()
		}
	}
	if k.nlive > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) still blocked at t=%v", k.nlive, k.now))
	}
	return k.now
}

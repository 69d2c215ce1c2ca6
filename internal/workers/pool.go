// Package workers provides the persistent per-rank worker pool the
// steady-state pipeline dispatches its shared-memory fan-outs on (block
// projection, tile ray casting, strip compositing, LIC row bands). The pre-PR-4 fan-outs spawned fresh goroutines every frame;
// a Pool spawns its goroutines once, so a steady-state dispatch costs two
// channel operations per woken worker and zero allocations.
package workers

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// state is the shared dispatch state. It is split from Pool so the worker
// goroutines hold no reference to the Pool itself: when the owner drops the
// Pool without calling Close, the runtime cleanup can still fire and shut
// the workers down instead of leaking them.
type state struct {
	fn     func(int)
	n      int64
	next   atomic.Int64
	active atomic.Int64
	done   chan struct{}
	wake   []chan struct{}
	closed atomic.Bool
}

// Pool is a persistent pool of worker goroutines executing indexed task
// fan-outs. A Pool is owned by one rank: Run must not be called
// concurrently with itself or with Close, and fn must not call Run on the
// same pool (no nested dispatch). Distinct ranks use distinct pools.
//
// A nil *Pool is usable: its Run hands the same indices out the same way
// on goroutines spawned for that call, which is what every fan-out in the
// tree does when its caller supplied no pool.
type Pool struct {
	st *state
}

// Width is the one rule every fan-out's automatic width comes from: an
// equal split of runtime.GOMAXPROCS(0) between the share ranks of one role
// that run in the process (share >= 1), and at least 1. GOMAXPROCS is therefore the
// setting for every width in the tree; GOMAXPROCS=1 runs every fan-out
// inline on its rank's goroutine.
func Width(share int) int {
	return max(runtime.GOMAXPROCS(0)/share, 1)
}

// New spawns a pool of size worker goroutines (size <= 0 uses Width(1)).
// The goroutines park on unbuffered channels between dispatches; they exit
// on Close, or — as a leak backstop — when the Pool becomes unreachable and
// the garbage collector runs its cleanup.
func New(size int) *Pool {
	if size <= 0 {
		size = Width(1)
	}
	st := &state{done: make(chan struct{}), wake: make([]chan struct{}, size)}
	for i := range st.wake {
		st.wake[i] = make(chan struct{})
		go worker(st, i)
	}
	p := &Pool{st: st}
	runtime.AddCleanup(p, func(s *state) { s.close() }, st)
	return p
}

// Run executes fn(0..n-1) across min(workers, pool size, n) goroutines, handing
// indices out through an atomic counter (cheap dynamic load balancing) and
// returning when every index has completed. workers <= 0 uses the whole
// pool; workers == 1 (or n <= 1) runs inline without touching the pool. The
// caller participates as one of the workers, so Run(2, ...) wakes a single
// pool goroutine. Dispatch allocates nothing; every write fn makes is
// visible to the caller when Run returns.
//
// On a nil pool the workers-1 helpers are goroutines spawned for this call
// (workers <= 0 means Width(1), and there is no pool size to cap at);
// everything else above holds except that the spawns allocate.
func (p *Pool) Run(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 || (p != nil && workers > len(p.st.wake)) {
		workers = p.Size()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if p == nil {
		spawn(workers, n, fn)
		return
	}
	s := p.st
	s.fn, s.n = fn, int64(n)
	s.next.Store(0)
	s.active.Store(int64(workers))
	for i := 0; i < workers-1; i++ {
		s.wake[i] <- struct{}{}
	}
	for {
		j := s.next.Add(1) - 1
		if j >= int64(n) {
			break
		}
		fn(int(j))
	}
	// Exactly one participant decrements active to zero; if it is a pool
	// worker it signals done, and if it is the caller nobody needs to.
	if s.active.Add(-1) != 0 {
		<-s.done
	}
	s.fn = nil
	// The GC cleanup closes the wake channels; keep the Pool reachable for
	// the whole dispatch so a caller whose last reference is this very Run
	// cannot have the pool shut down underneath it.
	runtime.KeepAlive(p)
}

// Size is the width Run(0, n, fn) dispatches at: the pool's goroutine
// count, or on a nil pool the automatic width Width(1).
func (p *Pool) Size() int {
	if p == nil {
		return Width(1)
	}
	return len(p.st.wake)
}

// spawn is the nil pool's dispatch: the caller and workers-1 fresh
// goroutines drain one atomic index counter.
func spawn(workers, n int, fn func(int)) {
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}

// Close shuts the worker goroutines down. Run must not be in flight or
// called afterwards. Closing an already-closed pool is a no-op (the GC
// cleanup and an explicit Close may both fire).
func (p *Pool) Close() {
	p.st.close()
	runtime.KeepAlive(p)
}

func (s *state) close() {
	if s.closed.CompareAndSwap(false, true) {
		for _, ch := range s.wake {
			close(ch)
		}
	}
}

func worker(s *state, i int) {
	for range s.wake[i] {
		n := s.n
		fn := s.fn
		for {
			j := s.next.Add(1) - 1
			if j >= n {
				break
			}
			fn(int(j))
		}
		if s.active.Add(-1) == 0 {
			s.done <- struct{}{}
		}
	}
}

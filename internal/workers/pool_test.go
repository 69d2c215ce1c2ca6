package workers

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// bothPools returns a persistent pool and the nil pool, which must behave
// alike through Run.
func bothPools(t *testing.T) map[string]*Pool {
	p := New(4)
	t.Cleanup(p.Close)
	return map[string]*Pool{"pool": p, "nil": nil}
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for name, p := range bothPools(t) {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			for _, w := range []int{-1, 0, 1, 2, 3, 4, 9, n + 5} {
				hits := make([]int32, n)
				p.Run(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s: workers=%d n=%d: index %d executed %d times", name, w, n, i, h)
					}
				}
			}
		}
	}
}

// TestNilPoolMatchesPool: the same fn through a nil pool and a persistent
// one leaves the same result, and every write is visible when Run returns.
func TestNilPoolMatchesPool(t *testing.T) {
	const n = 777
	fill := func(p *Pool, w int) []int {
		out := make([]int, n)
		p.Run(w, n, func(i int) { out[i] = i*i + w })
		return out
	}
	pools := bothPools(t)
	for _, w := range []int{0, 1, 3, n + 1} {
		want := fill(pools["pool"], w)
		got := fill(pools["nil"], w)
		for i := range want {
			if got[i] != want[i] || want[i] != i*i+w {
				t.Fatalf("workers=%d: out[%d] = %d (nil pool) vs %d (pool), want %d", w, i, got[i], want[i], i*i+w)
			}
		}
	}
}

func TestRunResultsVisibleToCaller(t *testing.T) {
	p := New(3)
	defer p.Close()
	out := make([]int, 512)
	for round := 0; round < 50; round++ {
		p.Run(3, len(out), func(i int) { out[i] = round + i })
		for i := range out {
			if out[i] != round+i {
				t.Fatalf("round %d: out[%d] = %d, fn writes not visible after Run", round, i, out[i])
			}
		}
	}
}

func TestRunSerialInline(t *testing.T) {
	// workers == 1 must not touch the pool goroutines (or spawn any): the
	// tasks run on the calling goroutine in index order.
	for name, p := range bothPools(t) {
		var order []int
		p.Run(1, 5, func(i int) { order = append(order, i) })
		for i, v := range order {
			if v != i {
				t.Fatalf("%s: serial order = %v", name, order)
			}
		}
	}
}

func TestPoolSize(t *testing.T) {
	p := New(3)
	defer p.Close()
	if n := len(p.st.wake); n != 3 {
		t.Errorf("size = %d, want 3", n)
	}
	if n := p.Size(); n != 3 {
		t.Errorf("Size = %d, want 3", n)
	}
	// The default size follows GOMAXPROCS, not the machine's CPU count.
	setGOMAXPROCS(t, 5)
	d := New(0)
	defer d.Close()
	if n := len(d.st.wake); n != 5 {
		t.Errorf("default size = %d, want GOMAXPROCS 5", n)
	}
	if n := (*Pool)(nil).Size(); n != 5 {
		t.Errorf("nil pool Size = %d, want GOMAXPROCS 5", n)
	}
}

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test and restores it on
// cleanup.
func setGOMAXPROCS(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestWidth pins the rule: GOMAXPROCS split evenly between the ranks of a
// role, rounded down, never below 1.
func TestWidth(t *testing.T) {
	for _, tc := range []struct{ procs, share, want int }{
		{1, 1, 1}, {1, 4, 1},
		{2, 1, 2}, {2, 2, 1}, {2, 3, 1},
		{3, 1, 3}, {3, 2, 1},
		{8, 1, 8}, {8, 3, 2}, {8, 4, 2}, {8, 9, 1},
	} {
		setGOMAXPROCS(t, tc.procs)
		if got := Width(tc.share); got != tc.want {
			t.Errorf("GOMAXPROCS %d: Width(%d) = %d, want %d", tc.procs, tc.share, got, tc.want)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(2)
	p.Run(2, 8, func(int) {})
	p.Close()
	p.Close() // second close (or GC cleanup after Close) must not panic
}

func TestDistinctPoolsRunConcurrently(t *testing.T) {
	// One pool per rank is the usage contract; distinct pools must be able
	// to dispatch at the same time (the renderer ranks do every frame).
	const ranks = 4
	var wg sync.WaitGroup
	var total atomic.Int64
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := New(3)
			defer p.Close()
			for round := 0; round < 20; round++ {
				p.Run(3, 100, func(int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != ranks*20*100 {
		t.Errorf("total executions = %d, want %d", got, ranks*20*100)
	}
}

// TestWorkerPoolDispatchAllocFree is the PR 4 gate on the dispatch path: a
// steady-state fan-out over a persistent pool allocates nothing (the
// nil pool pays workers-1 goroutine spawns per call).
func TestWorkerPoolDispatchAllocFree(t *testing.T) {
	p := New(4)
	defer p.Close()
	sink := make([]int64, 256)
	fn := func(i int) { sink[i]++ }
	dispatch := func() { p.Run(4, len(sink), fn) }
	dispatch() // warm up
	if avg := testing.AllocsPerRun(50, dispatch); avg != 0 {
		t.Errorf("pool dispatch allocates %v per run, want 0", avg)
	}
}

// BenchmarkPoolDispatch compares a steady-state pool dispatch against the
// nil pool's spawn-per-call fan-out (identical atomic-counter load
// balancing, fresh goroutines every call).
func BenchmarkPoolDispatch(b *testing.B) {
	const n, w = 256, 4
	sink := make([]int64, n)
	fn := func(i int) { sink[i]++ }
	p := New(w)
	defer p.Close()
	for _, tc := range []struct {
		name string
		p    *Pool
	}{{"pool", p}, {"spawn", nil}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.p.Run(w, n, fn)
			}
		})
	}
}

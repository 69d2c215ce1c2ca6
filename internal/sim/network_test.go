package sim

import (
	"math"
	"testing"
)

func TestSingleFlowRate(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k)
	link := n.NewBucket("link", 100) // 100 B/s
	var done Time
	k.Spawn("xfer", func(p *Proc) {
		n.Transfer(p, 500, link)
		done = k.Now()
	})
	k.Run()
	if !almostEq(done, 5) {
		t.Errorf("500 B over 100 B/s finished at %v, want 5", done)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k)
	link := n.NewBucket("link", 100)
	var t1, t2 Time
	k.Spawn("a", func(p *Proc) {
		n.Transfer(p, 100, link)
		t1 = k.Now()
	})
	k.Spawn("b", func(p *Proc) {
		n.Transfer(p, 100, link)
		t2 = k.Now()
	})
	k.Run()
	// Both share 100 B/s -> 50 B/s each -> both finish at t=2.
	if !almostEq(t1, 2) || !almostEq(t2, 2) {
		t.Errorf("finish times %v,%v, want 2,2", t1, t2)
	}
}

func TestProcessorSharingSpeedupAfterCompletion(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k)
	link := n.NewBucket("link", 100)
	var tShort, tLong Time
	k.Spawn("short", func(p *Proc) {
		n.Transfer(p, 100, link)
		tShort = k.Now()
	})
	k.Spawn("long", func(p *Proc) {
		n.Transfer(p, 300, link)
		tLong = k.Now()
	})
	k.Run()
	// Shared at 50 B/s until t=2 (short done, long has 200 left);
	// then long gets 100 B/s -> finishes at t=4.
	if !almostEq(tShort, 2) {
		t.Errorf("short finished at %v, want 2", tShort)
	}
	if !almostEq(tLong, 4) {
		t.Errorf("long finished at %v, want 4", tLong)
	}
}

func TestMultiBucketFlowBottleneck(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k)
	out := n.NewBucket("out", 1000)
	in := n.NewBucket("in", 10) // bottleneck
	var done Time
	k.Spawn("x", func(p *Proc) {
		n.Transfer(p, 100, out, in)
		done = k.Now()
	})
	k.Run()
	if !almostEq(done, 10) {
		t.Errorf("finished at %v, want 10 (limited by 10 B/s in-link)", done)
	}
}

func TestMaxMinFairness(t *testing.T) {
	// Flow A crosses bucket X (cap 10); flows B and C cross bucket Y (cap 30).
	// Max-min: B=C=15, A=10.
	k := NewKernel()
	n := NewNetwork(k)
	x := n.NewBucket("x", 10)
	y := n.NewBucket("y", 30)
	var tA, tB Time
	k.Spawn("A", func(p *Proc) {
		n.Transfer(p, 100, x)
		tA = k.Now()
	})
	k.Spawn("B", func(p *Proc) {
		n.Transfer(p, 150, y)
		tB = k.Now()
	})
	k.Spawn("C", func(p *Proc) {
		n.Transfer(p, 150, y)
	})
	k.Run()
	if !almostEq(tA, 10) {
		t.Errorf("A finished at %v, want 10", tA)
	}
	if !almostEq(tB, 10) {
		t.Errorf("B finished at %v, want 10", tB)
	}
}

func TestSharedCrossBucket(t *testing.T) {
	// Two flows share bucket S (cap 40); each also crosses a private bucket
	// (caps 100, 10). Max-min: slow flow pinned at 10, fast flow gets 30.
	k := NewKernel()
	n := NewNetwork(k)
	s := n.NewBucket("s", 40)
	fast := n.NewBucket("fast", 100)
	slow := n.NewBucket("slow", 10)
	var tFast, tSlow Time
	k.Spawn("fast", func(p *Proc) {
		n.Transfer(p, 300, s, fast)
		tFast = k.Now()
	})
	k.Spawn("slow", func(p *Proc) {
		n.Transfer(p, 100, s, slow)
		tSlow = k.Now()
	})
	k.Run()
	if !almostEq(tFast, 10) {
		t.Errorf("fast finished at %v, want 10 (rate 30)", tFast)
	}
	if !almostEq(tSlow, 10) {
		t.Errorf("slow finished at %v, want 10 (rate 10)", tSlow)
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k)
	link := n.NewBucket("l", 100)
	returned := false
	k.Spawn("p", func(p *Proc) {
		n.Transfer(p, 0, link)
		returned = true
	})
	end := k.Run()
	if !returned {
		t.Error("zero-byte flow never completed")
	}
	if end != 0 {
		t.Errorf("zero-byte flow advanced clock to %v", end)
	}
}

func TestLateArrivalSlowsExisting(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k)
	link := n.NewBucket("l", 100)
	var tA Time
	k.Spawn("A", func(p *Proc) {
		n.Transfer(p, 200, link)
		tA = k.Now()
	})
	k.Spawn("B", func(p *Proc) {
		p.Sleep(1)
		n.Transfer(p, 1000, link)
	})
	k.Run()
	// A runs alone 0..1 (100 B done), then shares 50 B/s: 100 more takes 2s.
	if !almostEq(tA, 3) {
		t.Errorf("A finished at %v, want 3", tA)
	}
}

func TestAggregatePlusPerClientModel(t *testing.T) {
	// PFS-style: aggregate bucket 100 B/s, per-client buckets 30 B/s each.
	// 2 clients: each min(30, 50)=30. 5 clients: each 100/5=20.
	for _, tc := range []struct {
		clients int
		each    float64
	}{
		{2, 30}, {5, 20},
	} {
		k := NewKernel()
		n := NewNetwork(k)
		agg := n.NewBucket("agg", 100)
		var finish []Time
		for i := 0; i < tc.clients; i++ {
			cl := n.NewBucket("c", 30)
			k.Spawn("r", func(p *Proc) {
				n.Transfer(p, 60, agg, cl)
				finish = append(finish, k.Now())
			})
		}
		k.Run()
		want := 60 / tc.each
		for _, f := range finish {
			if math.Abs(f-want) > 1e-6 {
				t.Errorf("clients=%d: finish=%v, want %v", tc.clients, f, want)
			}
		}
	}
}

func TestBadBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity bucket did not panic")
		}
	}()
	k := NewKernel()
	n := NewNetwork(k)
	n.NewBucket("bad", 0)
}

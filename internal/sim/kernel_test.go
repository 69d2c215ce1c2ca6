package sim

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		woke = k.Now()
	})
	end := k.Run()
	if !almostEq(woke, 2.5) {
		t.Errorf("woke at %v, want 2.5", woke)
	}
	if !almostEq(end, 2.5) {
		t.Errorf("final time %v, want 2.5", end)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-1)
		if k.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", k.Now())
		}
	})
	k.Run()
}

func TestEventOrderingByTimeThenSeq(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(1.0, func() { order = append(order, 1) })
	k.After(0.5, func() { order = append(order, 0) })
	k.After(1.0, func() { order = append(order, 2) }) // same time, later seq
	k.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.After(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.After(-4, func() {})
	})
	k.Run()
}

func TestMultipleProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for i, d := range []Time{3, 1, 2} {
			name := string(rune('a' + i))
			dd := d
			k.Spawn(name, func(p *Proc) {
				p.Sleep(dd)
				log = append(log, p.Name)
			})
		}
		k.Run()
		return log
	}
	a := run()
	for trial := 0; trial < 10; trial++ {
		b := run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("nondeterministic schedule: %v vs %v", a, b)
			}
		}
	}
	if a[0] != "b" || a[1] != "c" || a[2] != "a" {
		t.Errorf("wake order = %v, want [b c a]", a)
	}
}

func TestParkUnpark(t *testing.T) {
	k := NewKernel()
	var p1 *Proc
	done := false
	p1 = k.Spawn("waiter", func(p *Proc) {
		p.Park()
		done = true
		if !almostEq(k.Now(), 4) {
			t.Errorf("unparked at %v, want 4", k.Now())
		}
	})
	k.After(4, func() { k.Unpark(p1) })
	k.Run()
	if !done {
		t.Error("parked process never resumed")
	}
}

func TestUnparkNonParkedIsNoop(t *testing.T) {
	k := NewKernel()
	p1 := k.Spawn("p", func(p *Proc) { p.Sleep(1) })
	k.After(0.5, func() { k.Unpark(p1) }) // p is sleeping, not parked
	end := k.Run()
	if !almostEq(end, 1) {
		t.Errorf("end=%v, want 1 (sleep must not be cut short)", end)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("deadlocked kernel did not panic")
		}
	}()
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	k.Run()
}

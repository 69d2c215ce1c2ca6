package core

import (
	"runtime"
	"testing"

	"repro/internal/workers"
)

// setGOMAXPROCS sets GOMAXPROCS, which every fan-out width follows
// (workers.Width), for the rest of t and restores it on cleanup.
func setGOMAXPROCS(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// poolWidth is the width a fan-out dispatching on p runs at: its size, or
// 1 without a pool (the fan-out runs inline).
func poolWidth(p *workers.Pool) int {
	if p == nil {
		return 1
	}
	return p.Size()
}

// TestRoleWidthsFollowGOMAXPROCS pins the one rule on the layouts of the
// bench workloads: a renderer gets GOMAXPROCS/Renderers and the LIC rank
// all of GOMAXPROCS, each at least 1 — read from the pools a workload
// builds. At GOMAXPROCS 2 a renderer gets 1 on the batch layouts and 2 on
// serve's, and LIC 2; at 1 every width is 1 and no pool exists.
func TestRoleWidthsFollowGOMAXPROCS(t *testing.T) {
	layouts := []struct {
		name string
		l    Layout
	}{
		{"batch_render", Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}},
		{"batch_io", Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}},
		{"net_composite", Layout{Groups: 2, IPsPerGroup: 1, Renderers: 4, Outputs: 1}},
		{"serve", Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}}, // the engine default
	}
	// want[procs][layout] = {renderer, LIC}.
	want := map[int][4][2]int{
		1: {{1, 1}, {1, 1}, {1, 1}, {1, 1}},
		2: {{1, 2}, {1, 2}, {1, 2}, {2, 2}},
		3: {{1, 3}, {1, 3}, {1, 3}, {3, 3}},
		8: {{4, 8}, {4, 8}, {2, 8}, {8, 8}},
	}
	store := buildDataset(t, 1)
	opts := smallOpts(32, 32)
	opts.LIC = true
	for li, lc := range layouts {
		ds, err := NewDataset(lc.l, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 3, 8} {
			setGOMAXPROCS(t, procs)
			w := ds.NewWorkload(opts.Width, opts.Height, opts.View, opts.TFName)
			var pools []*workers.Pool
			for _, rs := range w.rendScr {
				if rs.width != poolWidth(rs.rscr.Pool) {
					t.Errorf("%s at GOMAXPROCS %d: renderer renders at %d on a pool of %d", lc.name, procs, rs.width, poolWidth(rs.rscr.Pool))
				}
				pools = append(pools, rs.rscr.Pool)
			}
			licPool := w.ipScr[0].lic.scr.Pool
			pools = append(pools, licPool)
			got := [2]int{poolWidth(w.rendScr[0].rscr.Pool), poolWidth(licPool)}
			if got != want[procs][li] {
				t.Errorf("%s at GOMAXPROCS %d: renderer, LIC widths %v, want %v", lc.name, procs, got, want[procs][li])
			}
			if procs == 1 {
				for _, p := range pools {
					if p != nil {
						t.Errorf("%s at GOMAXPROCS 1: a pool of %d exists", lc.name, p.Size())
					}
				}
			}
			w.Close()
		}
	}
}

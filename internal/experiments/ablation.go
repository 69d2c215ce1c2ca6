package experiments

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// PrefetchAblation studies the renderer buffer depth that the pipeline's
// credit protocol enforces. The paper's design double-buffers (depth 1):
// step t+1 streams in while t renders — this is why 1DIP cannot beat the
// per-step sending time Ts (Figure 9). Depth 0 serializes delivery and
// rendering; deeper buffers let 1DIP overlap deliveries of several steps
// from different input processors, trading renderer memory (a full step
// copy per slot) for interframe delay.
func PrefetchAblation(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tb := trace.NewTable("Ablation — renderer prefetch depth (1DIP, 128 renderers, Tr~1s, Ts~2s)",
		"depth", "interframe_s", "note")
	groups := 16
	n := steps(groups, quick)
	depths := []struct {
		cfg  int
		name string
		note string
	}{
		{-1, "0", "no overlap: delivery serializes with rendering"},
		{0, "1", "paper's double buffering: floor = Ts"},
		{2, "2", "deeper buffer: deliveries overlap across steps"},
		{4, "4", "approaches the render-time floor"},
	}
	for _, d := range depths {
		l := core.Layout{Groups: groups, IPsPerGroup: 1, Renderers: 128, Outputs: 1}
		res, err := core.RunModel(l, core.ModelConfig{
			Scale: scale, Steps: n, Width: 512, Height: 512, Prefetch: d.cfg,
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(d.name, res.Interframe(groups+2), d.note)
	}
	return tb, nil
}

// LoadBalanceAblation compares the paper's workload-estimated greedy block
// assignment against a naive contiguous (Morton-order spatial) partition on
// the real dataset, reporting the per-renderer cell-count imbalance
// (max/mean). The wavelength-adapted mesh concentrates cells in the basin,
// so a spatial partition hands some renderers the dense basin region and
// others nearly empty halfspace — exactly why the paper estimates workload
// before distributing blocks.
func LoadBalanceAblation(quick bool) (*trace.Table, error) {
	size := Medium
	if quick {
		size = Small
	}
	_, m, err := MakeDataset(size, 1)
	if err != nil {
		return nil, err
	}
	// Fine-grained blocks expose the grading: basin blocks hold many more
	// cells than halfspace blocks, and Morton order clusters them.
	blocks := m.Tree.Blocks(3)
	weights := make([]int, len(blocks))
	for i, b := range blocks {
		weights[i] = len(b.Leaves)
	}
	tb := trace.NewTable("Ablation — block assignment strategy (per-renderer cell imbalance)",
		"renderers", "greedy_max/mean", "contiguous_max/mean")
	for _, r := range []int{4, 8, 16} {
		_, greedy := core.BalanceBlocks(weights, r)
		cont := assignContiguous(weights, r)
		tb.AddRow(r, imbalance(greedy), imbalance(cont))
	}
	return tb, nil
}

// assignContiguous splits the Morton-ordered block list into equal-count
// consecutive chunks (a naive spatial partition).
func assignContiguous(weights []int, renderers int) []int {
	load := make([]int, renderers)
	n := len(weights)
	for i, w := range weights {
		r := i * renderers / n
		load[r] += w
	}
	return load
}

// imbalance returns max/mean of the loads.
func imbalance(load []int) float64 {
	var sum, max int
	for _, l := range load {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(load))
	return float64(max) / mean
}

// CompressionAblation measures the modeled effect of compositing
// compression at paper scale (the conclusions report a 50% reduction in
// compositing time).
func CompressionAblation(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tb := trace.NewTable("Ablation — compositing compression (model, 64 renderers)",
		"compress", "avg_composite_s", "interframe_s")
	groups := 12
	n := steps(groups, quick)
	for _, comp := range []bool{false, true} {
		l := core.Layout{Groups: groups, IPsPerGroup: 1, Renderers: 64, Outputs: 1}
		res, err := core.RunModel(l, core.ModelConfig{
			Scale: scale, Steps: n, Width: 512, Height: 512, Compress: comp,
		})
		if err != nil {
			return nil, err
		}
		avgComp := 0.0
		if res.RenderOps > 0 {
			avgComp = res.CompSec / float64(res.RenderOps)
		}
		tb.AddRow(comp, avgComp, res.Interframe(groups+2))
	}
	return tb, nil
}

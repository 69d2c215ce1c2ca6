// Package experiments reproduces every figure of the paper's evaluation
// (Section 6). The timing figures (8, 9, 10, 12) run the pipeline at paper
// scale on the discrete-event machine model; the image figures (3, 4, 11,
// 13/14) run the real pipeline (core.Dataset on RunReal) over a generated
// dataset; the Section 5.3 I/O
// comparison and the SLIC compositing study run the real code paths.
// cmd/paperbench prints the tables; bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// modelInterframe runs one paper-scale configuration and returns the
// steady-state interframe delay plus the average render time.
func modelInterframe(l core.Layout, cfg core.ModelConfig) (interframe, render float64, err error) {
	res, err := core.RunModel(l, cfg)
	if err != nil {
		return 0, 0, err
	}
	return res.Interframe(l.Groups + 2), res.AvgRender(), nil
}

// steps returns enough timesteps for a steady-state measurement.
func steps(groups int, quick bool) int {
	s := 3*groups + 8
	if !quick {
		s = 4*groups + 16
	}
	return s
}

// Fig8 reproduces Figure 8: 64 rendering processors, 512x512 images, 1DIP,
// total time vs. number of input processors. The paper reports ~22 s of
// unhidden I/O+preprocessing at one input processor falling to the ~2 s
// rendering time at twelve.
func Fig8(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tb := trace.NewTable("Figure 8 — 1DIP, 64 renderers, 512x512",
		"input_procs", "total_time_s", "render_time_s")
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if quick {
		counts = []int{1, 2, 4, 8, 12, 16}
	}
	for _, ips := range counts {
		l := core.Layout{Groups: ips, IPsPerGroup: 1, Renderers: 64, Outputs: 1}
		d, r, err := modelInterframe(l, core.ModelConfig{
			Scale: scale, Steps: steps(ips, quick), Width: 512, Height: 512,
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(ips, d, r)
	}
	return tb, nil
}

// Fig9 reproduces Figure 9: 128 rendering processors (Tr ~ 1 s), comparing
// 1DIP against 2DIP (groups of two input processors) as the group count
// grows. Only 2DIP reaches the rendering time; 1DIP plateaus at Ts ~ 2 s.
func Fig9(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tb := trace.NewTable("Figure 9 — 1DIP vs 2DIP, 128 renderers, 512x512",
		"groups", "total_1dip_s", "total_2dip_s", "render_time_s")
	counts := []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}
	if quick {
		counts = []int{1, 4, 8, 12, 16, 22}
	}
	for _, g := range counts {
		l1 := core.Layout{Groups: g, IPsPerGroup: 1, Renderers: 128, Outputs: 1}
		d1, r1, err := modelInterframe(l1, core.ModelConfig{
			Scale: scale, Steps: steps(g, quick), Width: 512, Height: 512,
		})
		if err != nil {
			return nil, err
		}
		l2 := core.Layout{Groups: g, IPsPerGroup: 2, Renderers: 128, Outputs: 1}
		d2, _, err := modelInterframe(l2, core.ModelConfig{
			Scale: scale, Steps: steps(g, quick), Width: 512, Height: 512,
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(g, d1, d2, r1)
	}
	return tb, nil
}

// Fig10 reproduces Figure 10: 256x256 rendering with gradient lighting and
// adaptive fetching at level 8, for 64 and 128 rendering processors. With
// the reduced data volume, a handful of input processors suffices.
func Fig10(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tb := trace.NewTable("Figure 10 — lighting + adaptive fetching, 256x256",
		"input_procs", "total_64PE_s", "render_64PE_s", "total_128PE_s", "render_128PE_s")
	counts := []int{1, 2, 3, 4, 5, 6}
	if quick {
		counts = []int{1, 2, 4, 6}
	}
	for _, ips := range counts {
		cfg := core.ModelConfig{
			Scale: scale, Steps: steps(ips, quick), Width: 256, Height: 256,
			Level: 8, Adaptive: true, Light: true,
		}
		d64, r64, err := modelInterframe(core.Layout{Groups: ips, IPsPerGroup: 1, Renderers: 64, Outputs: 1}, cfg)
		if err != nil {
			return nil, err
		}
		d128, r128, err := modelInterframe(core.Layout{Groups: ips, IPsPerGroup: 1, Renderers: 128, Outputs: 1}, cfg)
		if err != nil {
			return nil, err
		}
		tb.AddRow(ips, d64, r64, d128, r128)
	}
	return tb, nil
}

// Fig12 reproduces Figure 12: simultaneous volume rendering and surface
// LIC with 64 renderers under 1DIP; with 16 input processors the LIC and
// I/O costs are fully hidden behind rendering.
func Fig12(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tb := trace.NewTable("Figure 12 — volume rendering + LIC, 64 renderers, 512x512",
		"input_procs", "total_time_s", "render_time_s")
	counts := []int{2, 4, 6, 8, 10, 12, 14, 16, 18}
	if quick {
		counts = []int{2, 6, 10, 16, 18}
	}
	for _, ips := range counts {
		l := core.Layout{Groups: ips, IPsPerGroup: 1, Renderers: 64, Outputs: 1}
		d, r, err := modelInterframe(l, core.ModelConfig{
			Scale: scale, Steps: steps(ips, quick), Width: 512, Height: 512, LIC: true,
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(ips, d, r)
	}
	return tb, nil
}

// AdaptiveFetch reproduces the Section 6 adaptive-fetching observation:
// rendering 512x512 at level 8 with 64 renderers needs only ~4 input
// processors instead of 12.
func AdaptiveFetch(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tb := trace.NewTable("Adaptive fetching — level 8 vs full, 64 renderers, 1DIP, 512x512",
		"input_procs", "total_full_s", "total_level8_s")
	counts := []int{1, 2, 4, 8, 12}
	if quick {
		counts = []int{1, 4, 12}
	}
	for _, ips := range counts {
		l := core.Layout{Groups: ips, IPsPerGroup: 1, Renderers: 64, Outputs: 1}
		dFull, _, err := modelInterframe(l, core.ModelConfig{
			Scale: scale, Steps: steps(ips, quick), Width: 512, Height: 512,
		})
		if err != nil {
			return nil, err
		}
		dAd, _, err := modelInterframe(l, core.ModelConfig{
			Scale: scale, Steps: steps(ips, quick), Width: 512, Height: 512,
			Level: 8, Adaptive: true,
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(ips, dFull, dAd)
	}
	return tb, nil
}

// ModelValidation compares the discrete-event pipeline against the
// closed-form model of Section 5 over a grid of configurations.
func ModelValidation(quick bool) (*trace.Table, error) {
	scale := core.LeMieuxScale()
	tf := scale.StepBytes / scale.DiskClientBW
	tp := scale.PreSeconds
	ts := scale.StepBytes * scale.QuantFactor / scale.NICOut
	tb := trace.NewTable("Section 5 analytic model vs discrete-event simulation",
		"groups", "ips_per_group", "renderers", "analytic_s", "measured_s", "ratio")
	cases := []core.Layout{
		{Groups: 1, IPsPerGroup: 1, Renderers: 64, Outputs: 1},
		{Groups: 4, IPsPerGroup: 1, Renderers: 64, Outputs: 1},
		{Groups: 12, IPsPerGroup: 1, Renderers: 64, Outputs: 1},
		{Groups: 6, IPsPerGroup: 1, Renderers: 128, Outputs: 1},
		{Groups: 8, IPsPerGroup: 2, Renderers: 128, Outputs: 1},
		{Groups: 12, IPsPerGroup: 2, Renderers: 128, Outputs: 1},
	}
	if quick {
		cases = cases[:4]
	}
	for _, l := range cases {
		tr := float64(scale.Cells) / float64(l.Renderers) / scale.RenderRate
		want := core.PredictInterframe(tf, tp, ts, tr, l.Groups, l.IPsPerGroup)
		got, _, err := modelInterframe(l, core.ModelConfig{
			Scale: scale, Steps: steps(l.Groups, quick), Width: 512, Height: 512,
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(l.Groups, l.IPsPerGroup, l.Renderers, want, got, fmt.Sprintf("%.2f", got/want))
	}
	return tb, nil
}

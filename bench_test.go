// Package repro's top-level benchmarks regenerate every figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// BenchmarkFigN wraps the corresponding experiment from
// internal/experiments; micro-benchmarks of the hot kernels follow.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/img"
	"repro/internal/lic"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/octree"
	"repro/internal/quadtree"
	"repro/internal/quake"
	"repro/internal/render"
	"repro/internal/trace"
)

// benchTable runs a table-producing experiment b.N times, reporting the
// last table through b.Log at verbosity.
func benchTable(b *testing.B, run func(quick bool) (*trace.Table, error)) {
	b.Helper()
	var tb *trace.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = run(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() && tb != nil {
		b.Log("\n" + tb.String())
	}
}

// BenchmarkFig8OneDIP regenerates Figure 8: 1DIP total time vs input
// processors, 64 renderers, 512x512, at paper scale on the DES model.
func BenchmarkFig8OneDIP(b *testing.B) { benchTable(b, experiments.Fig8) }

// BenchmarkFig9TwoDIP regenerates Figure 9: 1DIP vs 2DIP at 128 renderers.
func BenchmarkFig9TwoDIP(b *testing.B) { benchTable(b, experiments.Fig9) }

// BenchmarkFig10Lighting regenerates Figure 10: lighting + adaptive
// fetching at 256x256 with 64 and 128 renderers.
func BenchmarkFig10Lighting(b *testing.B) { benchTable(b, experiments.Fig10) }

// BenchmarkFig12LIC regenerates Figure 12: volume + surface LIC, 64
// renderers, 1DIP.
func BenchmarkFig12LIC(b *testing.B) { benchTable(b, experiments.Fig12) }

// BenchmarkFig3AdaptiveRendering regenerates Figure 3: full vs adaptive
// level rendering time and image difference, on real data.
func BenchmarkFig3AdaptiveRendering(b *testing.B) {
	benchTable(b, func(q bool) (*trace.Table, error) { return experiments.Fig3(q, "") })
}

// BenchmarkFig4Enhancement regenerates Figure 4: temporal-domain
// enhancement on a late timestep, on real data.
func BenchmarkFig4Enhancement(b *testing.B) {
	benchTable(b, func(q bool) (*trace.Table, error) { return experiments.Fig4(q, "") })
}

// BenchmarkFig11LightingImages regenerates Figure 11: lighting on/off.
func BenchmarkFig11LightingImages(b *testing.B) {
	benchTable(b, func(q bool) (*trace.Table, error) { return experiments.Fig11(q, "") })
}

// BenchmarkFig13VolumePlusLIC regenerates Figures 13/14: simultaneous
// scalar and vector field visualization.
func BenchmarkFig13VolumePlusLIC(b *testing.B) {
	benchTable(b, func(q bool) (*trace.Table, error) { return experiments.Fig13(q, "") })
}

// BenchmarkReadStrategies regenerates the Section 5.3 comparison:
// collective noncontiguous vs independent contiguous reads.
func BenchmarkReadStrategies(b *testing.B) { benchTable(b, experiments.IOStrategies) }

// BenchmarkCompositing regenerates the SLIC study: SLIC vs direct send vs
// binary swap, with and without RLE compression.
func BenchmarkCompositing(b *testing.B) { benchTable(b, experiments.Compositing) }

// BenchmarkAdaptiveFetch regenerates the Section 6 adaptive-fetching
// observation (12 -> 4 input processors at level 8).
func BenchmarkAdaptiveFetch(b *testing.B) { benchTable(b, experiments.AdaptiveFetch) }

// BenchmarkModelValidation compares the Section 5 closed-form model with
// the discrete-event pipeline.
func BenchmarkModelValidation(b *testing.B) { benchTable(b, experiments.ModelValidation) }

// --- Micro-benchmarks of the hot kernels -----------------------------------

// benchFrameInput builds the small basin dataset and returns its mesh and
// step 1's scalar field, quantized as the pipeline would.
func benchFrameInput(b *testing.B) (*mesh.Mesh, []float32) {
	st, m, err := experiments.MakeDataset(experiments.Small, 2)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, m.NumNodes()*quake.BytesPerNode)
	if err := st.ReadAt(nil, quake.StepObject(1), 0, buf); err != nil {
		b.Fatal(err)
	}
	vec, err := quake.DecodeStepInto(nil, buf)
	if err != nil {
		b.Fatal(err)
	}
	mag := render.MagnitudeInto(nil, vec)
	lo, hi := render.MinMax(mag)
	return m, render.DequantizeInto(nil, render.QuantizeInto(nil, mag, lo, hi))
}

// BenchmarkRenderSerial measures the software ray-caster on a small basin
// dataset (per full 128x128 frame).
func BenchmarkRenderSerial(b *testing.B) {
	m, scalar := benchFrameInput(b)
	rr := render.NewRenderer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := render.DefaultView(128, 128)
		if _, err := render.RenderSerial(rr, m, scalar, 2, m.Tree.MaxDepth(), &view); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderParallel measures the worker-pool renderer on the same
// frame as BenchmarkRenderSerial at 1, 2, 4 and NumCPU workers; the
// workers-1 case casts every block on the calling goroutine, so the
// sub-benchmark ratios are the parallel speedup.
func BenchmarkRenderParallel(b *testing.B) {
	m, scalar := benchFrameInput(b)
	rr := render.NewRenderer()
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				view := render.DefaultView(128, 128)
				if _, err := render.RenderParallelWith(rr, m, scalar, 2, m.Tree.MaxDepth(), &view, w, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The animation-loop path: block extraction reuses a scratch, so the
	// steady-state frame does no per-block allocation.
	b.Run("workers-2-scratch", func(b *testing.B) {
		var scratch render.ExtractScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view := render.DefaultView(128, 128)
			if _, err := render.RenderParallelWith(rr, m, scalar, 2, m.Tree.MaxDepth(), &view, 2, &scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolverStep measures one explicit elastodynamic timestep.
func BenchmarkSolverStep(b *testing.B) {
	_, m, err := experiments.MakeDataset(experiments.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		b.Fatal(err)
	}
	s.AddSource(quake.PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}),
		Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkLIC measures a 128x128 Line Integral Convolution.
func BenchmarkLIC(b *testing.B) {
	g := &quadtree.Grid{W: 64, H: 64, VX: make([]float64, 64*64), VY: make([]float64, 64*64)}
	for j := 0; j < 64; j++ {
		for i := 0; i < 64; i++ {
			g.VX[j*64+i] = float64(i-32) / 32
			g.VY[j*64+i] = -float64(j-32) / 32
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lic.ComputeWith(g, 128, 128, lic.Config{L: 12, Seed: 1, Phase: -1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMorton measures the Morton encode.
func BenchmarkMorton(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += octree.Morton(uint32(i)&0xffff, uint32(i>>4)&0xffff, uint32(i>>8)&0xffff)
	}
	_ = acc
}

// BenchmarkOverComposite measures the image over-operator on 512x512.
func BenchmarkOverComposite(b *testing.B) {
	dst := img.New(512, 512)
	src := img.New(512, 512)
	for i := range src.Pix {
		src.Pix[i] = 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Over(src)
	}
}

// BenchmarkSimPipelineStep measures the discrete-event simulator running a
// full paper-scale pipeline configuration (per simulated run).
func BenchmarkSimPipelineStep(b *testing.B) {
	scale := core.LeMieuxScale()
	l := core.Layout{Groups: 12, IPsPerGroup: 1, Renderers: 64, Outputs: 1}
	for i := 0; i < b.N; i++ {
		if _, err := core.RunModel(l, core.ModelConfig{
			Scale: scale, Steps: 24, Width: 512, Height: 512,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveRead measures the two-phase collective read over four
// goroutine ranks.
func BenchmarkCollectiveRead(b *testing.B) {
	st, _, err := experiments.MakeDataset(experiments.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	size, err := st.Size(quake.StepObject(0))
	if err != nil {
		b.Fatal(err)
	}
	nrec := size / 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.RunReal(4, func(c *mpi.Comm) {
			var displs []int64
			for e := int64(c.Rank()); e < nrec; e += 4 {
				displs = append(displs, e)
			}
			f, err := mpiioOpen(c, st)
			if err != nil {
				b.Error(err)
				return
			}
			f.SetView(0, mpiioIndexed(displs))
			if _, err := f.ReadAllInto(i+1, make([]byte, 12*len(displs))); err != nil {
				b.Error(err)
			}
		})
	}
}

// mpiioOpen/mpiioIndexed are small aliases keeping the benchmark body
// readable.
func mpiioOpen(c *mpi.Comm, st interface {
	Size(string) (int64, error)
	ReadAt(*mpi.Comm, string, int64, []byte) error
	Write(string, []byte) error
}) (*mpiio.File, error) {
	return mpiio.Open(c, st, quake.StepObject(0))
}

func mpiioIndexed(displs []int64) mpiio.IndexedBlock {
	return mpiio.IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: 12}
}

// BenchmarkPrefetchAblation measures the renderer buffer-depth ablation.
func BenchmarkPrefetchAblation(b *testing.B) { benchTable(b, experiments.PrefetchAblation) }

// BenchmarkLoadBalanceAblation measures the block-assignment ablation.
func BenchmarkLoadBalanceAblation(b *testing.B) { benchTable(b, experiments.LoadBalanceAblation) }

// BenchmarkCompressionAblation measures the modeled compositing
// compression effect at paper scale.
func BenchmarkCompressionAblation(b *testing.B) { benchTable(b, experiments.CompressionAblation) }

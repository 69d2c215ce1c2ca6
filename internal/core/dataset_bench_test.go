package core

import (
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
)

// benchBasin is quakebench's basinish material (bench/dataset.go): Vs
// rising with depth and a slow hemisphere under the centre of the surface.
type benchBasin struct{}

func (benchBasin) At(p [3]float64) mesh.Material {
	vs := 900 + 2000*p[2]
	if d := (p[0]-0.5)*(p[0]-0.5) + (p[1]-0.5)*(p[1]-0.5) + p[2]*p[2]; d < 0.09 {
		vs = 400
	}
	return mesh.Material{Rho: 2200, Vs: vs, Vp: 1.8 * vs}
}

// basinMeshStore holds quakebench's basin-l mesh and a meta object naming
// no steps: NewDataset's whole cold path but the range scan, which
// FixedVMax skips.
var basinMeshStore = sync.OnceValues(func() (pfs.Store, error) {
	m, err := mesh.Generate(mesh.Config{Domain: 2000, FMax: 4, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}, benchBasin{})
	if err != nil {
		return nil, err
	}
	st := pfs.NewMemStore()
	if err := quake.WriteMesh(st, m); err != nil {
		return nil, err
	}
	return st, quake.WriteMeta(st, quake.Meta{NumNodes: m.NumNodes(), OutDT: 1})
})

// BenchmarkNewDataset times the view-independent set-up every cold start
// pays, on batch_render's layout and options: mesh read and table decode,
// block partition, per-block tables, balance and read plan.
func BenchmarkNewDataset(b *testing.B) {
	st, err := basinMeshStore()
	if err != nil {
		b.Fatal(err)
	}
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	opts := DefaultOptions(512, 512)
	opts.Lighting = true
	opts.FixedVMax = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDataset(l, opts, st); err != nil {
			b.Fatal(err)
		}
	}
}

// basinStepStore holds quakebench's basin-l dataset, steps and all, as its
// generator writes it: the input of the range scan.
var basinStepStore = sync.OnceValues(func() (pfs.Store, error) {
	m, err := mesh.Generate(mesh.Config{Domain: 2000, FMax: 4, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}, benchBasin{})
	if err != nil {
		return nil, err
	}
	s, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		return nil, err
	}
	s.AddSource(quake.PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.3}), Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 2})
	st := pfs.NewMemStore()
	_, err = quake.ProduceDataset(s, st, quake.RunConfig{Steps: 96, OutEvery: 4})
	return st, err
})

// BenchmarkNewDatasetScan times NewDataset on batch_io's layout and
// options with the range scan on: BenchmarkNewDataset's cold path plus the
// scan of 24 steps, the occupancy index and every step's read plans.
func BenchmarkNewDatasetScan(b *testing.B) {
	st, err := basinStepStore()
	if err != nil {
		b.Fatal(err)
	}
	l := Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := DefaultOptions(64, 64)
	opts.Level, opts.Enhancement, opts.AdaptiveFetch, opts.ReadStrategy = 5, true, true, ReadCollective
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDataset(l, opts, st); err != nil {
			b.Fatal(err)
		}
	}
}

// Northridge scenario: the paper's motivating workload at laptop scale. A
// 40 km heterogeneous basin (soft sedimentary ellipsoid in a layered
// halfspace) is meshed to the local seismic wavelength, shaken by a
// double-couple source under the basin edge — a 1994-Northridge-like
// geometry — and visualized with the full pipeline: 2DIP input processor
// groups, temporal-domain enhancement, and adaptive rendering.
//
//	go run ./examples/northridge
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
)

func main() {
	log.SetFlags(0)

	// The basin model: surface Vs 800 m/s halfspace with a 250 m/s
	// sedimentary ellipsoid — the velocity contrast that traps and
	// amplifies waves in the real Northridge simulations.
	basin := quake.DefaultBasin()
	m, err := mesh.Generate(mesh.Config{
		Domain: 40000, FMax: 0.5, PointsPerWave: 6, MaxLevel: 5, MinLevel: 3,
	}, basin)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[uint8]int{}
	for _, leaf := range m.Tree.Leaves {
		counts[leaf.Level]++
	}
	fmt.Printf("wavelength-adapted mesh: %d elements, %d nodes\n", m.NumElems(), m.NumNodes())
	for lvl := uint8(0); lvl <= m.Tree.MaxDepth(); lvl++ {
		if counts[lvl] > 0 {
			h := 40000.0 / float64(uint32(1)<<lvl)
			fmt.Printf("  level %d: %6d elements (h = %.0f m)\n", lvl, counts[lvl], h)
		}
	}

	solver, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Hypocenter at ~30% depth under the basin's southern edge.
	solver.AddSource(quake.NewDoubleCouple(solver, [3]float64{0.5, 0.62, 0.28}, 0.04, 3e13, 0.35))
	fmt.Printf("solver: dt = %.4f s, simulating %.1f s of shaking...\n", solver.DT, solver.DT*600)

	store := pfs.NewMemStore()
	meta, err := quake.ProduceDataset(solver, store, quake.RunConfig{Steps: 600, OutEvery: 50})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d stored steps\n", meta.NumSteps)

	// Visualization: 2 groups x 2 input processors (2DIP), 6 renderers,
	// temporal enhancement to keep late wavefronts visible.
	layout := core.Layout{Groups: 2, IPsPerGroup: 2, Renderers: 6, Outputs: 1}
	opts := core.DefaultOptions(384, 384)
	opts.Enhancement = true
	opts.EnhanceGain = 4
	opts.ReadStrategy = core.ReadIndependent
	w, err := core.NewRealWorkload(layout, opts, store)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := core.NewPipeline(layout, w)
	if err != nil {
		log.Fatal(err)
	}
	elapsed, err := pipe.RunReal()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	for t := 0; t < w.Steps(); t++ {
		f, err := os.Create(fmt.Sprintf("out/northridge_%02d.png", t))
		if err != nil {
			log.Fatal(err)
		}
		if err := w.Frame(t).WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	res := pipe.Res
	fmt.Printf("pipeline: %d frames in %.2fs wall\n", res.Frames, elapsed)
	fmt.Printf("  fetch %.2fs  preprocess %.2fs  send %.2fs  render %.2fs  composite %.2fs\n",
		res.FetchSec, res.PrepSec, res.SendSec, res.RenderSec, res.CompSec)
	fmt.Println("frames -> out/northridge_*.png")
}

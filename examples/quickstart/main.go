// Quickstart: generate a tiny earthquake dataset in memory, run the
// parallel visualization pipeline (2 input processors, 4 renderers,
// 1 output), and write the frames as PNG files.
//
//	go run ./examples/quickstart
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

	// 1. A small basin mesh: ~10 km domain resolved to ~0.7 Hz.
	m, err := mesh.Generate(mesh.Config{
		Domain: 10000, FMax: 0.7, PointsPerWave: 5, MaxLevel: 4, MinLevel: 2,
	}, quake.DefaultBasin())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d hex elements, %d nodes (%d hanging)\n",
		m.NumElems(), m.NumNodes(), len(m.Hanging))

	// 2. Simulate 8 stored timesteps of shaking from a double couple.
	solver, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		log.Fatal(err)
	}
	solver.AddSource(quake.NewDoubleCouple(solver, [3]float64{0.45, 0.55, 0.3}, 0.06, 1e13, 0.4))
	store := pfs.NewMemStore()
	meta, err := quake.ProduceDataset(solver, store, quake.RunConfig{Steps: 48, OutEvery: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d steps, %.1f MB/step\n",
		meta.NumSteps, float64(meta.NumNodes*quake.BytesPerNode)/1e6)

	// 3. Run the parallel pipeline: 2 input processor groups (1DIP),
	// 4 rendering processors, 1 output processor.
	layout := core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 4, Outputs: 1}
	opts := core.DefaultOptions(256, 256)
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

	// 4. Save the frames.
	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	for t := 0; t < w.Steps(); t++ {
		f, err := os.Create(fmt.Sprintf("out/quickstart_%02d.png", t))
		if err != nil {
			log.Fatal(err)
		}
		if err := w.Frame(t).WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	fmt.Printf("rendered %d frames in %.2fs -> out/quickstart_*.png\n", w.Steps(), elapsed)
	fmt.Printf("steady-state interframe delay: %.3fs\n", pipe.Res.Interframe(layout.Groups))
}

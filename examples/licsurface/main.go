// LIC surface visualization (paper Figures 13/14): simultaneous volume
// rendering of the 3D velocity magnitude and Line Integral Convolution of
// the 2D ground-surface velocity field, composited at the output
// processor. Also writes a pure LIC image and a close-up, plus an animated
// phase sequence demonstrating the periodic-kernel flow cue.
//
//	go run ./examples/licsurface
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/lic"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quadtree"
	"repro/internal/quake"
)

func main() {
	log.SetFlags(0)

	m, err := mesh.Generate(mesh.Config{
		Domain: 20000, FMax: 0.8, PointsPerWave: 5, MaxLevel: 5, MinLevel: 3,
	}, quake.DefaultBasin())
	if err != nil {
		log.Fatal(err)
	}
	solver, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		log.Fatal(err)
	}
	solver.AddSource(quake.NewDoubleCouple(solver, [3]float64{0.45, 0.55, 0.3}, 0.05, 2e13, 0.5))
	store := pfs.NewMemStore()
	meta, err := quake.ProduceDataset(solver, store, quake.RunConfig{Steps: 240, OutEvery: 40})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d steps, %d surface nodes of %d total\n",
		meta.NumSteps, len(m.SurfaceNodes()), m.NumNodes())

	// Pipeline with the LIC underlay enabled: the input processors extract
	// the surface field, resample it through the quadtree, compute LIC and
	// ship the image to the output processor alongside the volume strips.
	layout := core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 4, Outputs: 1}
	opts := core.DefaultOptions(320, 320)
	opts.LIC = true
	opts.LICSize = 160
	w, err := core.NewRealWorkload(layout, opts, store)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := core.NewPipeline(layout, w)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pipe.RunReal(); err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	for t := 0; t < w.Steps(); t++ {
		writePNG(fmt.Sprintf("out/licsurface_%02d.png", t), w.Frame(t))
	}
	fmt.Printf("combined volume+LIC frames -> out/licsurface_*.png\n")

	// Figure 14-style standalone LIC with a close-up, plus animated phase.
	t := w.Steps() - 1
	buf := make([]byte, meta.NumNodes*quake.BytesPerNode)
	if err := store.ReadAt(nil, quake.StepObject(t), 0, buf); err != nil {
		log.Fatal(err)
	}
	vec, err := quake.DecodeStepInto(nil, buf)
	if err != nil {
		log.Fatal(err)
	}
	surf := m.SurfaceNodes()
	samples := make([]quadtree.Sample, len(surf))
	for i, id := range surf {
		p := m.Nodes[id].Pos()
		samples[i] = quadtree.Sample{X: p[0], Y: p[1], VX: float64(vec[3*id]), VY: float64(vec[3*id+1])}
	}
	qt, err := quadtree.Build(samples, 8)
	if err != nil {
		log.Fatal(err)
	}
	grid, err := qt.Resample(256, 256)
	if err != nil {
		log.Fatal(err)
	}
	full, err := lic.ComputeWith(grid, 256, 256, lic.Config{L: 20, Seed: 7, Phase: -1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	writePNG("out/lic_full.png", full.ColorizeInto(nil, grid))

	// Close-up: resample the central quarter at the same pixel count.
	closeup := &quadtree.Grid{W: 128, H: 128, VX: make([]float64, 128*128), VY: make([]float64, 128*128)}
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			u := 0.375 + 0.25*float64(x)/127
			v := 0.375 + 0.25*float64(y)/127
			closeup.VX[y*128+x], closeup.VY[y*128+x] = grid.At(u, v)
		}
	}
	cu, err := lic.ComputeWith(closeup, 256, 256, lic.Config{L: 20, Seed: 7, Phase: -1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	writePNG("out/lic_closeup.png", cu.ColorizeInto(nil, nil))

	// Animated periodic kernel: phase sweep conveys flow direction.
	for k := 0; k < 4; k++ {
		ph, err := lic.ComputeWith(grid, 128, 128, lic.Config{L: 16, Seed: 7, Phase: float64(k) / 4}, nil)
		if err != nil {
			log.Fatal(err)
		}
		writePNG(fmt.Sprintf("out/lic_phase%d.png", k), ph.ColorizeInto(nil, nil))
	}
	fmt.Println("LIC images -> out/lic_full.png, out/lic_closeup.png, out/lic_phase*.png")
}

func writePNG(path string, im *img.Image) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := im.WritePNG(f); err != nil {
		log.Fatal(err)
	}
}

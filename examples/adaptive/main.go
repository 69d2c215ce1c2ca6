// Adaptive rendering comparison (paper Figure 3): render the same timestep
// at the full octree resolution and at progressively coarser adaptive
// levels, reporting the render time, speedup, and image difference. The
// paper observes a 3-4x speedup with "almost the same details".
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

func main() {
	log.SetFlags(0)

	m, err := mesh.Generate(mesh.Config{
		Domain: 20000, FMax: 1.4, PointsPerWave: 5, MaxLevel: 5, MinLevel: 3,
	}, quake.DefaultBasin())
	if err != nil {
		log.Fatal(err)
	}
	solver, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		log.Fatal(err)
	}
	solver.AddSource(quake.NewDoubleCouple(solver, [3]float64{0.45, 0.55, 0.3}, 0.05, 2e13, 0.6))
	store := pfs.NewMemStore()
	meta, err := quake.ProduceDataset(solver, store, quake.RunConfig{Steps: 160, OutEvery: 40})
	if err != nil {
		log.Fatal(err)
	}

	// Load a mid-shaking step and normalize it the way the pipeline does.
	buf := make([]byte, meta.NumNodes*quake.BytesPerNode)
	if err := store.ReadAt(nil, quake.StepObject(meta.NumSteps-1), 0, buf); err != nil {
		log.Fatal(err)
	}
	vec, err := quake.DecodeStepInto(nil, buf)
	if err != nil {
		log.Fatal(err)
	}
	mag := render.MagnitudeInto(nil, vec)
	lo, hi := render.MinMax(mag)
	scalar := render.DequantizeInto(nil, render.QuantizeInto(nil, mag, lo, hi))

	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	depth := m.Tree.MaxDepth()
	rr := render.NewRenderer()
	fmt.Printf("%-6s %10s %12s %10s %10s\n", "level", "cells", "render_time", "speedup", "rmse")
	var ref *img.Image
	var refTime float64
	for lvl := depth; ; lvl-- {
		cells := 0
		for _, b := range m.Tree.Blocks(2) {
			bd, err := render.ExtractBlockData(m, scalar, b, lvl)
			if err != nil {
				log.Fatal(err)
			}
			cells += bd.NumCells()
		}
		view := render.DefaultView(384, 384)
		start := time.Now()
		im, err := render.RenderSerial(rr, m, scalar, 2, lvl, &view)
		if err != nil {
			log.Fatal(err)
		}
		dt := time.Since(start).Seconds()
		f, err := os.Create(fmt.Sprintf("out/adaptive_level%d.png", lvl))
		if err != nil {
			log.Fatal(err)
		}
		if err := im.WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		if ref == nil {
			ref, refTime = im, dt
			fmt.Printf("%-6d %10d %11.3fs %10s %10s\n", lvl, cells, dt, "1.0x", "-")
		} else {
			fmt.Printf("%-6d %10d %11.3fs %9.1fx %10.4f\n",
				lvl, cells, dt, refTime/dt, img.RMSE(ref, im))
		}
		if lvl <= 2 || lvl <= depth-3 {
			break
		}
	}
	fmt.Println("images -> out/adaptive_level*.png")
}

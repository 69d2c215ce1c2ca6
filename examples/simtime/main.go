// Simulation-time visualization — the paper's Section 7 goal: "our
// ultimate goal is to perform simulation-time visualization allowing
// scientists to monitor the simulation". The elastodynamic solver and the
// visualization pipeline run CONCURRENTLY: the solver publishes each
// timestep into a WaitStore as it is computed, while the pipeline's input
// processors block on the next step and render it the moment it lands.
//
//	go run ./examples/simtime
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
)

func main() {
	log.SetFlags(0)

	m, err := mesh.Generate(mesh.Config{
		Domain: 15000, FMax: 0.7, PointsPerWave: 5, MaxLevel: 4, MinLevel: 3,
	}, quake.DefaultBasin())
	if err != nil {
		log.Fatal(err)
	}
	solver, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		log.Fatal(err)
	}
	solver.AddSource(quake.NewDoubleCouple(solver, [3]float64{0.45, 0.55, 0.3}, 0.06, 2e13, 0.5))

	const storedSteps = 8
	const solveEvery = 8

	// The WaitStore makes pipeline reads block until the solver publishes.
	inner := pfs.NewMemStore()
	store := pfs.NewWaitStore(inner)

	// Static data must exist before the pipeline constructs its workload.
	if err := quake.WriteMesh(store, m); err != nil {
		log.Fatal(err)
	}
	if err := quake.WriteMeta(store, quake.Meta{
		NumSteps: storedSteps, NumNodes: m.NumNodes(), OutDT: solver.DT * solveEvery,
	}); err != nil {
		log.Fatal(err)
	}

	// Solver goroutine: computes and publishes steps with a visible cadence.
	go func() {
		// Once the solver is done nothing more will be published: a read
		// of a step it never wrote must fail, not wait forever.
		defer store.Close()
		vel := make([]float32, 3*m.NumNodes())
		for out := 0; out < storedSteps; out++ {
			for k := 0; k < solveEvery; k++ {
				solver.Step()
			}
			solver.Velocity(vel)
			if err := store.Write(quake.StepObject(out), quake.EncodeStep(vel)); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("solver: published step %d at t=%.2fs (sim time %.2fs)\n",
				out, time.Since(start).Seconds(), solver.Time())
		}
	}()

	// Pipeline consumes steps as they appear. The quantization range is
	// pinned up front — a monitoring run cannot scan steps that have not
	// been simulated yet.
	layout := core.Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	opts := core.DefaultOptions(224, 224)
	opts.FixedVMax = 0.05 // m/s; typical peak ground velocity for this source
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
	for t := 0; t < storedSteps; t++ {
		f, err := os.Create(fmt.Sprintf("out/simtime_%02d.png", t))
		if err != nil {
			log.Fatal(err)
		}
		if err := w.Frame(t).WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}
	fmt.Printf("monitored %d in-flight timesteps -> out/simtime_*.png\n", storedSteps)
}

var start = time.Now()

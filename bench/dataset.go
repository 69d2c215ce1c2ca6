package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
)

// basinish is the material model of the repository's own pipeline tests
// (internal/core/core_test.go), restated here because test helpers cannot
// be imported: a velocity gradient with depth and a slow sedimentary basin
// under the surface centre, which is what makes the wavelength-adapted
// mesh refine unevenly. It is symmetric under quarter turns about the
// vertical axis through the centre; seedAzimuth relies on that.
type basinish struct{}

func (basinish) At(p [3]float64) mesh.Material {
	vs := 900 + 2000*p[2]
	if d := (p[0]-0.5)*(p[0]-0.5) + (p[1]-0.5)*(p[1]-0.5) + p[2]*p[2]; d < 0.09 {
		vs = 400
	}
	return mesh.Material{Rho: 2200, Vs: vs, Vp: 1.8 * vs}
}

// datasetDef is a generated dataset: the mesh and how many steps are
// stored (every fourth solver step, as quakesim's examples do).
type datasetDef struct {
	mesh  mesh.Config
	steps int
}

// datasets are the full-scale inputs. Sizes were chosen so that one
// generation costs about two seconds in the 2-core container the bounds
// were measured in: set-up is repeated within a run and the whole run
// has to fit the driver's time cap. smokeDataset replaces both under
// -scale smoke.
var datasets = map[string]datasetDef{
	"basin-l": {mesh.Config{Domain: 2000, FMax: 4, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}, 24},
	"basin-m": {mesh.Config{Domain: 2000, FMax: 3, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}, 24},
}

var smokeDataset = datasetDef{mesh.Config{Domain: 2000, FMax: 1.2, PointsPerWave: 4, MaxLevel: 4, MinLevel: 2}, 8}

// datasetInfo is what the environment header reports about a dataset.
type datasetInfo struct {
	Name         string `json:"name"`
	Elements     int    `json:"elements"`
	Nodes        int    `json:"nodes"`
	Steps        int    `json:"steps"`
	BytesPerStep int    `json:"bytes_per_step"`
}

// newSolver builds the mesh and a solver carrying the benchmark's point
// source (the one the pipeline tests use).
func newSolver(def datasetDef) (*quake.Solver, error) {
	msh, err := mesh.Generate(def.mesh, basinish{})
	if err != nil {
		return nil, err
	}
	s, err := quake.NewSolver(msh, quake.DefaultSolverConfig())
	if err != nil {
		return nil, err
	}
	s.AddSource(quake.PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.3}),
		Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 2})
	return s, nil
}

// generateDataset runs mesh generation and the solver and writes the
// dataset into a DirStore (the store the production binaries read) under
// dir, returning the store, its description and the seconds it took.
func generateDataset(name string, def datasetDef, dir string) (*pfs.DirStore, datasetInfo, float64, error) {
	t0 := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, datasetInfo{}, 0, err
	}
	st, err := pfs.NewDirStore(dir)
	if err != nil {
		return nil, datasetInfo{}, 0, err
	}
	s, err := newSolver(def)
	if err != nil {
		return nil, datasetInfo{}, 0, fmt.Errorf("dataset %s: %w", name, err)
	}
	meta, err := quake.ProduceDataset(s, st, quake.RunConfig{Steps: def.steps * 4, OutEvery: 4})
	if err != nil {
		return nil, datasetInfo{}, 0, fmt.Errorf("dataset %s: %w", name, err)
	}
	info := datasetInfo{Name: name, Elements: s.M.NumElems(), Nodes: meta.NumNodes,
		Steps: meta.NumSteps, BytesPerStep: meta.NumNodes * quake.BytesPerNode}
	return st, info, time.Since(t0).Seconds(), nil
}

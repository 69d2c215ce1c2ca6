package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/serve"
)

// halfspace is a uniform material: the smallest model that meshes.
type halfspace struct{}

func (halfspace) At([3]float64) mesh.Material { return mesh.Material{Rho: 2000, Vp: 2000, Vs: 1000} }

// dataset produces a small in-memory dataset of the shape quakesim writes.
func dataset(t *testing.T, steps int) pfs.Store {
	t.Helper()
	msh, err := mesh.Generate(mesh.Config{Domain: 2000, FMax: 1.2, PointsPerWave: 4, MaxLevel: 3, MinLevel: 2}, halfspace{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := quake.NewSolver(msh, quake.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.AddSource(quake.PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.3}),
		Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 2})
	st := pfs.NewMemStore()
	if _, err := quake.ProduceDataset(s, st, quake.RunConfig{Steps: steps * 4, OutEvery: 4}); err != nil {
		t.Fatal(err)
	}
	return st
}

// serveAll builds an engine over st (what retryStore returned, as in main)
// and renders every step once, returning owned copies of the frames and
// the degraded count.
func serveAll(st pfs.Store, tolerate bool, steps int) (frames []*img.Image, degraded int, err error) {
	eng, err := serve.NewEngine(st, serve.EngineConfig{Tolerate: tolerate})
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	var scratch img.Image
	err = eng.Render(serve.RenderConfig{Width: 32, Height: 32}, 0, steps, &scratch,
		func(step int, frame *img.Image, deg, cached bool) error {
			frames = append(frames, frame.Clone())
			if deg {
				degraded++
			}
			return nil
		})
	return frames, degraded, err
}

// TestTolerateWiresRetryStore pins where -tolerate reaches storage: with
// the flag, a transient fault injected beneath the store the server opens
// heals in the retry layer — frames bit-identical to a clean engine's,
// none degraded; without it the same fault surfaces (in the startup scan,
// before a session's ranks can block on a failed peer).
func TestTolerateWiresRetryStore(t *testing.T) {
	const steps = 2
	base := dataset(t, steps)
	faulty := func() *faultinject.Store {
		return faultinject.Wrap(base, faultinject.Config{
			Seed: 11, PTransient: 1,
			Match: func(name string) bool { return strings.HasPrefix(name, "step_") },
		})
	}
	ref, _, err := serveAll(base, false, steps)
	if err != nil {
		t.Fatal(err)
	}

	inj := faulty()
	retry, ok := retryStore(inj, true).(*pfs.RetryStore)
	if !ok {
		t.Fatal("-tolerate did not install the retry layer")
	}
	got, degraded, err := serveAll(retry, true, steps)
	if err != nil {
		t.Fatalf("-tolerate: %v", err)
	}
	injected := inj.Stats().Transients
	if injected == 0 {
		t.Fatal("the schedule injected nothing")
	}
	if retry.Retries() != injected || degraded != 0 {
		t.Errorf("%d retries and %d degraded frame(s) for %d injected faults, want one retry each and none degraded",
			retry.Retries(), degraded, injected)
	}
	for step := range ref {
		if d := img.MaxAbsDiff(ref[step], got[step]); d != 0 {
			t.Errorf("step %d differs from the clean engine (max abs %g)", step, d)
		}
	}

	bare := faulty()
	if st := retryStore(bare, false); st != pfs.Store(bare) {
		t.Error("retry layer installed without -tolerate")
	}
	if _, _, err := serveAll(bare, false, steps); !errors.Is(err, pfs.ErrTransient) {
		t.Errorf("without -tolerate: err = %v, want the injected transient fault", err)
	}
}

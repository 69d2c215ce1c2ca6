package serve

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/quake"
)

type uniform struct{}

func (uniform) At([3]float64) mesh.Material { return mesh.Material{Rho: 2200, Vs: 900, Vp: 1600} }

// TestEngineDiscardNeverParks pins the failed-run path at the session
// seam: now that any idle session is re-aimed at any view, a session
// whose run aborted (workload state undefined) must be closed by discard
// and never reach the idle pool — the next request builds a fresh one.
// (Driven white-box: a non-tolerated mid-run read failure leaves the
// other in-process ranks waiting, so it cannot be provoked over HTTP.)
func TestEngineDiscardNeverParks(t *testing.T) {
	msh, err := mesh.Generate(mesh.Config{Domain: 2000, FMax: 0.6, PointsPerWave: 4, MaxLevel: 3, MinLevel: 2}, uniform{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := quake.NewSolver(msh, quake.DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := pfs.NewMemStore()
	if _, err := quake.ProduceDataset(sol, store, quake.RunConfig{Steps: 2, OutEvery: 1}); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(store, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := RenderConfig{Width: 16, Height: 16}
	failed, err := eng.acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.discard(failed)
	if n := eng.IdleSessions(); n != 0 {
		t.Fatalf("discarded session was parked (%d idle)", n)
	}
	next, err := eng.acquire(RenderConfig{Width: 16, Height: 16, Orbit: true, Az: 90, El: 40})
	if err != nil {
		t.Fatal(err)
	}
	if next == failed || eng.ColdSessions() != 2 {
		t.Errorf("request after a discard reused the failed session (sessions built: %d, want 2)", eng.ColdSessions())
	}
	eng.release(next)
	if n := eng.IdleSessions(); n != 1 {
		t.Errorf("healthy session not parked (%d idle)", n)
	}
}

package quake

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/mesh"
)

// assembleForcesElementwise is the pre-CSR force assembly (PR 1 and
// earlier): gather 24 element dofs, dense 24x24 reference matvecs, scatter.
// It is kept as the reference implementation for the CSR equivalence tests
// and as the baseline of BenchmarkSpMV.
func (s *Solver) assembleForcesElementwise(out []float64) {
	for i := range out {
		out[i] = 0
	}
	var ue, fe [24]float64
	bod := 0.0
	if s.cfg.DampBeta > 0 {
		bod = s.cfg.DampBeta / s.DT
	}
	for ei := range s.M.Elems {
		e := &s.M.Elems[ei]
		h := e.Leaf.Size() * s.M.Domain
		lambda, mu := e.Mat.Lame()
		for i := 0; i < 8; i++ {
			b := 3 * int(e.N[i])
			ue[3*i] = s.u[b] + bod*(s.u[b]-s.uPrev[b])
			ue[3*i+1] = s.u[b+1] + bod*(s.u[b+1]-s.uPrev[b+1])
			ue[3*i+2] = s.u[b+2] + bod*(s.u[b+2]-s.uPrev[b+2])
		}
		elemForce(h, lambda, mu, &ue, &fe)
		for i := 0; i < 8; i++ {
			b := 3 * int(e.N[i])
			out[b] -= fe[3*i]
			out[b+1] -= fe[3*i+1]
			out[b+2] -= fe[3*i+2]
		}
	}
}

// randomizeState fills u and uPrev with reproducible random displacements.
func randomizeState(s *Solver, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range s.u {
		s.u[i] = (rng.Float64() - 0.5) * 2e-3
		s.uPrev[i] = (rng.Float64() - 0.5) * 2e-3
	}
}

// equivMeshes builds the mesh family the equivalence tests sweep: uniform
// meshes at several levels plus a graded mesh with hanging nodes.
func equivMeshes(t *testing.T) []*mesh.Mesh {
	t.Helper()
	var ms []*mesh.Mesh
	for _, lvl := range []uint8{1, 2, 3} {
		ms = append(ms, smallMesh(t, lvl, 1500, mesh.Material{Rho: 2100, Vs: 1100, Vp: 2100}))
	}
	cfg := mesh.Config{Domain: 2000, FMax: 2, PointsPerWave: 4, MaxLevel: 5, MinLevel: 2}
	graded, err := mesh.Generate(cfg, gradedT{})
	if err != nil {
		t.Fatal(err)
	}
	if len(graded.Hanging) == 0 {
		t.Fatal("graded equivalence mesh has no hanging nodes")
	}
	ms = append(ms, graded)
	return ms
}

// TestCSRStructureMatchesElementAssembly verifies the CSR coefficients with
// tolerance 0: an independently assembled coefficient map — elements
// visited in the same order, so the floating-point sums are bit-identical —
// must contain exactly the blocks the CSR stores, and nothing else.
func TestCSRStructureMatchesElementAssembly(t *testing.T) {
	for mi, m := range equivMeshes(t) {
		a := buildCSR(m)
		type key struct{ i, j int32 }
		ref := make(map[key]*[9]float64)
		for ei := range m.Elems {
			e := &m.Elems[ei]
			h := e.Leaf.Size() * m.Domain
			lambda, mu := e.Mat.Lame()
			l, mm := h*lambda, h*mu
			for ai := 0; ai < 8; ai++ {
				for b := 0; b < 8; b++ {
					k := key{e.N[ai], e.N[b]}
					blk := ref[k]
					if blk == nil {
						blk = new([9]float64)
						ref[k] = blk
					}
					ra, cb := 3*ai, 3*b
					for r := 0; r < 3; r++ {
						for c := 0; c < 3; c++ {
							blk[3*r+c] += l*KLambda[ra+r][cb+c] + mm*KMu[ra+r][cb+c]
						}
					}
				}
			}
		}
		stored := 0
		for i := 0; i < a.n; i++ {
			prev := int32(-1)
			for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
				j := a.col[k]
				if j <= prev {
					t.Fatalf("mesh %d: row %d columns not strictly ascending", mi, i)
				}
				prev = j
				blk := ref[key{int32(i), j}]
				if blk == nil {
					t.Fatalf("mesh %d: CSR has spurious block (%d,%d)", mi, i, j)
				}
				stored++
				for c := 0; c < 9; c++ {
					if got, want := a.val[9*int(k)+c], -blk[c]; got != want {
						t.Fatalf("mesh %d: block (%d,%d)[%d] = %v, want %v (must be bit-exact)",
							mi, i, j, c, got, want)
					}
				}
			}
		}
		if stored != len(ref) {
			t.Fatalf("mesh %d: CSR stores %d blocks, element assembly has %d", mi, stored, len(ref))
		}
	}
}

// TestCSRMatchesElementwiseApply compares the production CSR SpMV force
// against the legacy elementwise apply on randomized states. The two sum
// identical per-element contributions in different orders, so the only
// admissible difference is floating-point reassociation; the bound is a
// small multiple of machine epsilon times each row's absolute term sum.
func TestCSRMatchesElementwiseApply(t *testing.T) {
	for mi, m := range equivMeshes(t) {
		for _, beta := range []float64{0, 2e-4} {
			cfg := DefaultSolverConfig()
			cfg.DampBeta = beta
			s, err := NewSolver(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.workers = 1
			randomizeState(s, int64(1000*mi)+int64(beta*1e6))
			s.assembleForces()
			got := append([]float64(nil), s.f...)
			want := make([]float64, len(s.f))
			s.assembleForcesElementwise(want)
			x := s.u
			if beta > 0 {
				x = s.xbuf
			}
			for i := 0; i < s.K.n; i++ {
				var absSum float64
				for k := int(s.K.rowPtr[i]); k < int(s.K.rowPtr[i+1]); k++ {
					j := 3 * int(s.K.col[k])
					for r := 0; r < 3; r++ {
						for c := 0; c < 3; c++ {
							absSum += math.Abs(s.K.val[9*k+3*r+c] * x[j+c])
						}
					}
				}
				tol := 1e-12 * absSum
				for r := 0; r < 3; r++ {
					d := 3*i + r
					if math.Abs(got[d]-want[d]) > tol {
						t.Fatalf("mesh %d beta %v: dof %d: csr %v vs elementwise %v (tol %v)",
							mi, beta, d, got[d], want[d], tol)
					}
				}
			}
		}
	}
}

// TestCSRMulVecWorkerInvariant: row-parallel SpMV must be bit-identical for
// any worker count — this is what makes solver output independent of
// GOMAXPROCS, which the golden pipeline test relies on.
func TestCSRMulVecWorkerInvariant(t *testing.T) {
	m := smallMesh(t, 4, 2000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	s, err := NewSolver(m, DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.K.n < csrParallelMin {
		t.Fatalf("test mesh too small to exercise parallel SpMV: %d rows", s.K.n)
	}
	randomizeState(s, 42)
	ref := make([]float64, 3*s.K.n)
	s.K.MulVec(ref, s.u, 1)
	for _, w := range []int{2, 3, 7, 16} {
		out := make([]float64, 3*s.K.n)
		s.K.MulVec(out, s.u, w)
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: dof %d differs: %v vs %v", w, i, out[i], ref[i])
			}
		}
	}
}

// TestStepAllocationFree: the steady-state time loop must not allocate.
func TestStepAllocationFree(t *testing.T) {
	m := smallMesh(t, 3, 2000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	cfg := DefaultSolverConfig()
	cfg.DampBeta = 2e-4 // exercise the xbuf path too
	s, err := NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.workers = 1
	s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}),
		Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 4})
	s.Step()
	if avg := testing.AllocsPerRun(20, s.Step); avg != 0 {
		t.Errorf("Step allocates %v times per call at steady state, want 0", avg)
	}
}

// benchSolver builds a mid-sized graded solver for the SpMV benchmark.
func benchSolver(b *testing.B) *Solver {
	b.Helper()
	cfg := mesh.Config{Domain: 2000, FMax: 2, PointsPerWave: 4, MaxLevel: 5, MinLevel: 3}
	m, err := mesh.Generate(cfg, gradedT{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(m, DefaultSolverConfig())
	if err != nil {
		b.Fatal(err)
	}
	s.workers = 1
	rng := rand.New(rand.NewSource(7))
	for i := range s.u {
		s.u[i] = (rng.Float64() - 0.5) * 2e-3
		s.uPrev[i] = (rng.Float64() - 0.5) * 2e-3
	}
	return s
}

// BenchmarkSpMV compares the CSR stiffness apply against the legacy
// elementwise assembly on the same solver state (single-threaded, so the
// ratio is pure arithmetic/locality, not parallelism). The regression
// target: csr must stay at least 2x faster than elementwise.
func BenchmarkSpMV(b *testing.B) {
	s := benchSolver(b)
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.assembleForces()
		}
	})
	b.Run("elementwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.assembleForcesElementwise(s.f)
		}
	})
}

// TestSpMVSpeedupGate enforces the >= 2x CSR-over-elementwise speedup from
// the PR 2 acceptance criteria. Wall-clock assertions are noisy on shared
// CI machines, so the gate only runs when REPRO_PERF_ASSERT=1 (set by
// `make ci`), and asserts a conservative 1.5x so scheduler jitter on a
// machine with a real >= 2x gap cannot flake it.
func TestSpMVSpeedupGate(t *testing.T) {
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		t.Skip("set REPRO_PERF_ASSERT=1 to enforce the SpMV speedup gate")
	}
	cfg := mesh.Config{Domain: 2000, FMax: 2, PointsPerWave: 4, MaxLevel: 5, MinLevel: 3}
	m, err := mesh.Generate(cfg, gradedT{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(m, DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.workers = 1
	randomizeState(s, 7)
	// Interleaved min-of-N windows: the minimum discards scheduler and GC
	// bursts, and interleaving keeps a sustained slowdown from landing on
	// only one side.
	window := func(fn func()) float64 {
		const reps = 5
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return time.Since(start).Seconds() / reps
	}
	out := make([]float64, len(s.f))
	runCSR := s.assembleForces
	runElem := func() { s.assembleForcesElementwise(out) }
	runCSR()
	runElem() // warm up
	csr, elem := math.Inf(1), math.Inf(1)
	for trial := 0; trial < 6; trial++ {
		csr = math.Min(csr, window(runCSR))
		elem = math.Min(elem, window(runElem))
	}
	t.Logf("SpMV: csr %.3gs, elementwise %.3gs (%.2fx)", csr, elem, elem/csr)
	if elem < 1.5*csr {
		t.Errorf("CSR SpMV speedup regressed: csr %.3gs vs elementwise %.3gs (%.2fx, want >= 2x nominal / 1.5x gate)",
			csr, elem, elem/csr)
	}
}

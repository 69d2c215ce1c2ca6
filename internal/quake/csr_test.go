package quake

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
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
// must contain exactly the blocks the CSR stores through its table index,
// and nothing else. No two table entries may share their 72 bits.
func TestCSRStructureMatchesElementAssembly(t *testing.T) {
	for mi, m := range append(equivMeshes(t), manyMaterialMesh(t)) {
		a := buildCSR(m)
		seen := make(map[[9]uint64]int, len(a.tab))
		for e, b := range a.tab {
			var bits [9]uint64
			for q, v := range b {
				bits[q] = math.Float64bits(v)
			}
			if prev, dup := seen[bits]; dup {
				t.Fatalf("mesh %d: table entries %d and %d share their bits", mi, prev, e)
			}
			seen[bits] = e
		}
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
					if got, want := a.tab[a.blk[k]][c], -blk[c]; math.Float64bits(got) != math.Float64bits(want) {
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

// TestBlockIndexInternsByBits: blocks equal as numbers but not as bits
// (-0 and +0) get separate entries, and every index survives the table's
// growth.
func TestBlockIndexInternsByBits(t *testing.T) {
	in := newBlockIndex()
	pos, neg := [9]float64{4: 1}, [9]float64{0: math.Copysign(0, -1), 4: 1}
	if sameBits(&pos, &neg) {
		t.Fatal("sameBits equates -0 and +0")
	}
	if a, b := in.intern(&pos), in.intern(&neg); a == b {
		t.Fatalf("+0 and -0 blocks share entry %d", a)
	}
	const n = 5000 // several doublings of the 1024-slot index
	idx := make([]int32, n)
	for i := range idx {
		b := [9]float64{8: float64(i)}
		idx[i] = in.intern(&b)
	}
	if len(in.tab) != n+2 {
		t.Fatalf("%d entries for %d distinct blocks", len(in.tab), n+2)
	}
	for i, want := range idx {
		b := [9]float64{8: float64(i)}
		if got := in.intern(&b); got != want || in.tab[got] != b {
			t.Fatalf("block %d: index %d after growth, want %d", i, got, want)
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
							absSum += math.Abs(s.K.tab[s.K.blk[k]][3*r+c] * x[j+c])
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

// TestCSRMulVecWorkerInvariant: the row-band SpMV must be bit-identical
// for any band count — this is what makes solver output independent of
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
	s.K.mulRange(ref, s.u, 0, s.K.n)
	for _, w := range []int{1, 2, 3, 7, 16} {
		s.workers = w
		s.assembleForces()
		for i := range ref {
			if s.f[i] != ref[i] {
				t.Fatalf("workers=%d: dof %d differs: %v vs %v", w, i, s.f[i], ref[i])
			}
		}
	}
}

// TestStepAllocationFree: the steady-state time loop must not allocate, at
// width 1 and at width 2, whose row bands go through the solver's pool.
func TestStepAllocationFree(t *testing.T) {
	m := smallMesh(t, 4, 2000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	cfg := DefaultSolverConfig()
	cfg.DampBeta = 2e-4 // exercise the xbuf path too
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("width%d", w), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			s, err := NewSolver(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.workers != w || (s.pool == nil) != (w == 1) {
				t.Fatalf("NewSolver at GOMAXPROCS %d: width %d, pool %v", w, s.workers, s.pool != nil)
			}
			s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}),
				Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 4})
			s.Step()
			if avg := testing.AllocsPerRun(20, s.Step); avg != 0 {
				t.Errorf("Step allocates %v times per call at steady state, want 0", avg)
			}
		})
	}
}

// manyMaterialMesh is a uniform-level mesh whose every element has its own
// material, so most of its blocks are distinct and the table's index grows
// several times.
func manyMaterialMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	cfg := mesh.Config{Domain: 2000, FMax: 1e-9, PointsPerWave: 1, MaxLevel: 4, MinLevel: 4}
	m, err := mesh.Generate(cfg, rampT{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rampT varies Vs with every coordinate, so no two cell centers agree.
type rampT struct{}

func (rampT) At(p [3]float64) mesh.Material {
	vs := 1000 + 300*p[0] + 70*p[1] + 11*p[2]
	return mesh.Material{Rho: 2000, Vs: vs, Vp: 1.9 * vs}
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

package quake

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/workers"
)

// SolverConfig controls the explicit time integrator.
type SolverConfig struct {
	CFL       float64 // fraction of the stability limit (default 0.5)
	DampAlpha float64 // interior mass-proportional damping (1/s)
	// DampBeta is stiffness-proportional (Rayleigh) damping in seconds:
	// C = alpha*M + beta*K. The paper notes the simulation cost depends on
	// "the material damping model used"; beta damps high frequencies and
	// costs nothing extra here (one fused matvec). Keep beta well below dt
	// for explicit stability.
	DampBeta  float64
	SpongeW   float64 // width of the absorbing sponge layer, unit-cube units
	SpongeMax float64 // extra damping at the outer edge of the sponge (1/s)
	FixSides  bool    // clamp displacement on side/bottom boundaries
}

// DefaultSolverConfig returns sensible defaults: light interior damping and
// a sponge on the five non-free boundaries.
func DefaultSolverConfig() SolverConfig {
	return SolverConfig{CFL: 0.5, DampAlpha: 0.02, SpongeW: 0.15, SpongeMax: 8, FixSides: true}
}

// Solver advances the elastodynamic system M a + C v + K u = f with lumped
// mass, mass-proportional damping and central differences. Hanging-node
// constraints are enforced by master-slave reduction. The stiffness matrix
// is assembled once into a CSR table of distinct blocks (see csrStiffness),
// so the per-step inner loop is a single allocation-free SpMV instead of
// dense element matvecs. Where blocks repeat, as on the basin meshes, a
// node costs ~200 B of -K (~25 stored blocks of 8 B) plus 137 B of state:
// five 3-vectors of float64 (u, uPrev, uNext, f and, under stiffness
// damping, xbuf), its mass, damping and fixed flag.
type Solver struct {
	M   *mesh.Mesh
	DT  float64
	cfg SolverConfig

	u, uPrev, uNext []float64 // 3N displacements
	f               []float64 // 3N force accumulator
	mass            []float64 // N reduced lumped mass
	alpha           []float64 // N damping coefficient
	fixed           []bool    // N

	K    *csrStiffness // assembled -K, built once in NewSolver
	xbuf []float64     // 3N scratch for the damped SpMV input u + beta*v

	sources []Source
	step    int

	// The SpMV runs as workers row bands on pool (nil at width 1): band
	// computes one band of f = -K x, bound once in NewSolver, and x is the
	// input of the current step.
	workers int // workers.Width(1), or 1 below csrParallelMin rows
	pool    *workers.Pool
	band    func(int)
	x       []float64
}

// NewSolver builds a solver for the mesh. The timestep is set from the CFL
// condition over all elements.
func NewSolver(m *mesh.Mesh, cfg SolverConfig) (*Solver, error) {
	if cfg.CFL <= 0 {
		cfg.CFL = 0.5
	}
	n := m.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("quake: empty mesh")
	}
	s := &Solver{
		M: m, cfg: cfg,
		u: make([]float64, 3*n), uPrev: make([]float64, 3*n), uNext: make([]float64, 3*n),
		f:    make([]float64, 3*n),
		mass: make([]float64, n), alpha: make([]float64, n), fixed: make([]bool, n),
	}
	s.K = buildCSR(m)
	s.workers = workers.Width(1)
	if n < csrParallelMin {
		s.workers = 1
	}
	if s.workers > 1 {
		s.pool = workers.New(s.workers)
	}
	s.band = func(b int) {
		s.K.mulRange(s.f, s.x, b*n/s.workers, (b+1)*n/s.workers)
	}
	if cfg.DampBeta > 0 {
		s.xbuf = make([]float64, 3*n)
	}

	// Lumped mass and CFL limit.
	dtMin := math.Inf(1)
	for _, e := range m.Elems {
		h := e.Leaf.Size() * m.Domain
		if e.Mat.Vp > 0 {
			if dt := h / e.Mat.Vp; dt < dtMin {
				dtMin = dt
			}
		}
		me := e.Mat.Rho * h * h * h / 8
		for _, nid := range e.N {
			s.mass[nid] += me
		}
	}
	if math.IsInf(dtMin, 1) {
		return nil, fmt.Errorf("quake: mesh has no positive wave speeds")
	}
	s.DT = cfg.CFL * dtMin

	// Constraint-reduce the mass matrix: masters absorb w^2 * slave mass.
	for _, c := range m.Hanging {
		w := 1 / float64(len(c.Masters))
		for _, mm := range c.Masters {
			s.mass[mm] += w * w * s.mass[c.Node]
		}
	}

	// Damping profile and boundary conditions.
	for id := range s.mass {
		pos := m.Nodes[id].Pos()
		s.alpha[id] = cfg.DampAlpha + spongeProfile(pos, cfg.SpongeW)*cfg.SpongeMax
		if cfg.FixSides && onClampedBoundary(pos) {
			s.fixed[id] = true
		}
	}
	return s, nil
}

// spongeProfile returns 0 in the interior rising quadratically to 1 at the
// five clamped boundaries (all but the free surface z=0).
func spongeProfile(p [3]float64, w float64) float64 {
	if w <= 0 {
		return 0
	}
	d := math.Min(p[0], 1-p[0])
	d = math.Min(d, math.Min(p[1], 1-p[1]))
	d = math.Min(d, 1-p[2]) // bottom only; z=0 is the free surface
	if d >= w {
		return 0
	}
	t := 1 - d/w
	return t * t
}

func onClampedBoundary(p [3]float64) bool {
	const eps = 1e-12
	return p[0] < eps || p[0] > 1-eps || p[1] < eps || p[1] > 1-eps || p[2] > 1-eps
}

// AddSource registers an excitation.
func (s *Solver) AddSource(src Source) { s.sources = append(s.sources, src) }

// Time returns the current simulation time.
func (s *Solver) Time() float64 { return float64(s.step) * s.DT }

// assembleForces computes f = -K x (internal elastic forces, plus folded
// stiffness-proportional damping) with one CSR SpMV. Stiffness damping
// folds into the matvec input: the elastic + damping force is K(u + beta*v)
// with v ~ (u - uPrev)/dt.
func (s *Solver) assembleForces() {
	x := s.u
	if s.cfg.DampBeta > 0 {
		bod := s.cfg.DampBeta / s.DT
		for i, u := range s.u {
			s.xbuf[i] = u + bod*(u-s.uPrev[i])
		}
		x = s.xbuf
	}
	s.x = x
	s.pool.Run(s.workers, s.workers, s.band)
}

// Step advances one timestep.
func (s *Solver) Step() {
	s.assembleForces()
	t := s.Time()
	for _, src := range s.sources {
		src.Apply(t, s)
	}
	// Constraint reduction: route hanging-node forces to their masters.
	for _, c := range s.M.Hanging {
		w := 1 / float64(len(c.Masters))
		b := 3 * int(c.Node)
		for _, mm := range c.Masters {
			mb := 3 * int(mm)
			s.f[mb] += w * s.f[b]
			s.f[mb+1] += w * s.f[b+1]
			s.f[mb+2] += w * s.f[b+2]
		}
		s.f[b], s.f[b+1], s.f[b+2] = 0, 0, 0
	}
	dt := s.DT
	for id := range s.mass {
		b := 3 * id
		if s.fixed[id] || s.M.IsHanging(int32(id)) {
			continue
		}
		m := s.mass[id]
		if m <= 0 {
			continue
		}
		a := s.alpha[id]
		c1 := m / (dt * dt)
		c2 := a * m / (2 * dt)
		den := c1 + c2
		for k := 0; k < 3; k++ {
			s.uNext[b+k] = (s.f[b+k] + 2*c1*s.u[b+k] - (c1-c2)*s.uPrev[b+k]) / den
		}
	}
	// Fixed nodes stay at zero.
	for id, fx := range s.fixed {
		if fx {
			b := 3 * id
			s.uNext[b], s.uNext[b+1], s.uNext[b+2] = 0, 0, 0
		}
	}
	// Hanging nodes follow their masters.
	for _, c := range s.M.Hanging {
		w := 1 / float64(len(c.Masters))
		b := 3 * int(c.Node)
		var vx, vy, vz float64
		for _, mm := range c.Masters {
			mb := 3 * int(mm)
			vx += w * s.uNext[mb]
			vy += w * s.uNext[mb+1]
			vz += w * s.uNext[mb+2]
		}
		s.uNext[b], s.uNext[b+1], s.uNext[b+2] = vx, vy, vz
	}
	s.uPrev, s.u, s.uNext = s.u, s.uNext, s.uPrev
	s.step++
}

// Velocity writes the per-node velocity vectors (central difference) into
// out, which must have length 3*NumNodes. Valid after at least one step.
func (s *Solver) Velocity(out []float32) {
	dt := s.DT
	for i := range s.u {
		out[i] = float32((s.u[i] - s.uPrev[i]) / dt)
	}
}

// Displacement copies the current displacement field.
func (s *Solver) Displacement(out []float32) {
	for i, v := range s.u {
		out[i] = float32(v)
	}
}

// AddForce adds a force vector to a node's dofs (used by sources).
func (s *Solver) AddForce(node int32, fx, fy, fz float64) {
	b := 3 * int(node)
	s.f[b] += fx
	s.f[b+1] += fy
	s.f[b+2] += fz
}

// NearestNode returns the node closest to the unit-cube point p.
func (s *Solver) NearestNode(p [3]float64) int32 {
	best := int32(0)
	bd := math.Inf(1)
	for id, g := range s.M.Nodes {
		q := g.Pos()
		d := (q[0]-p[0])*(q[0]-p[0]) + (q[1]-p[1])*(q[1]-p[1]) + (q[2]-p[2])*(q[2]-p[2])
		if d < bd {
			bd = d
			best = int32(id)
		}
	}
	return best
}

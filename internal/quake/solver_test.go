package quake

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/pfs"
)

// smallMesh builds a uniform nxnxn-element mesh of the given material.
func smallMesh(t *testing.T, level uint8, domain float64, m mesh.Material) *mesh.Mesh {
	t.Helper()
	cfg := mesh.Config{Domain: domain, FMax: 1e-9, PointsPerWave: 1, MaxLevel: level, MinLevel: level}
	msh, err := mesh.Generate(cfg, uniModelT{m})
	if err != nil {
		t.Fatal(err)
	}
	return msh
}

type uniModelT struct{ m mesh.Material }

func (u uniModelT) At(p [3]float64) mesh.Material { return u.m }

func TestZeroSourceStaysZero(t *testing.T) {
	msh := smallMesh(t, 2, 1000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	s, err := NewSolver(msh, DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if s.MaxDisplacement() != 0 {
		t.Errorf("unforced solver moved: %v", s.MaxDisplacement())
	}
}

func TestSolverStableAndExcited(t *testing.T) {
	msh := smallMesh(t, 3, 2000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 1800})
	s, err := NewSolver(msh, DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.3}), Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 2}
	s.AddSource(src)
	steps := int(2.0/s.DT) + 1
	var peak float64
	for i := 0; i < steps; i++ {
		s.Step()
		if d := s.MaxDisplacement(); d > peak {
			peak = d
		}
		if math.IsNaN(s.MaxDisplacement()) {
			t.Fatalf("solver blew up at step %d", i)
		}
	}
	if peak == 0 {
		t.Fatal("source produced no motion")
	}
	// With damping and a transient source, late displacement must be well
	// below the peak (energy decays; no instability).
	if end := s.MaxDisplacement(); end > peak {
		t.Errorf("displacement still growing: end %v > peak %v", end, peak)
	}
}

func TestPWaveArrivalTime(t *testing.T) {
	// Homogeneous block, source at center, no damping: the P wavefront
	// should reach a receiver at distance d at roughly t = d/Vp.
	mat := mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000}
	msh := smallMesh(t, 4, 4000, mat) // 16^3 elements, h=250 m
	cfg := DefaultSolverConfig()
	cfg.DampAlpha = 0
	cfg.SpongeMax = 0
	s, err := NewSolver(msh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	freq := 4.0
	srcNode := s.NearestNode([3]float64{0.5, 0.5, 0.5})
	s.AddSource(PointSource{Node: srcNode, Dir: [3]float64{1, 0, 0}, Amplitude: 1e12, Freq: freq, Delay: 1e-9})
	// Receiver 1000 m away along +x (the P direction for an x force).
	recv := s.NearestNode([3]float64{0.75, 0.5, 0.5})
	dist := 1000.0
	wantArrival := dist / mat.Vp
	threshold := 1e-6
	arrived := -1.0
	tEnd := 2 * wantArrival
	vel := make([]float32, 3*msh.NumNodes())
	for s.Time() < tEnd {
		s.Step()
		s.Velocity(vel)
		vmag := math.Abs(float64(vel[3*recv]))
		if vmag > threshold {
			arrived = s.Time()
			break
		}
	}
	if arrived < 0 {
		t.Fatal("wave never arrived at receiver")
	}
	// Generous tolerance: wavelet onset precedes its peak, numerical
	// dispersion, discrete receiver snapping.
	if arrived > wantArrival*1.5 {
		t.Errorf("arrival at %v s, want <= %v s", arrived, wantArrival*1.5)
	}
}

func TestSymmetryOfResponse(t *testing.T) {
	// A vertical force at the exact center must give mirror-symmetric |u|
	// at mirrored receivers.
	mat := mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000}
	msh := smallMesh(t, 3, 2000, mat)
	cfg := DefaultSolverConfig()
	s, err := NewSolver(msh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}), Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 3})
	for i := 0; i < 100; i++ {
		s.Step()
	}
	a := s.NearestNode([3]float64{0.25, 0.5, 0.5})
	b := s.NearestNode([3]float64{0.75, 0.5, 0.5})
	ua := math.Abs(s.u[3*int(a)+2])
	ub := math.Abs(s.u[3*int(b)+2])
	if ua == 0 && ub == 0 {
		t.Skip("no signal reached receivers yet")
	}
	if math.Abs(ua-ub) > 1e-9+(ua+ub)*1e-6 {
		t.Errorf("asymmetric response: %v vs %v", ua, ub)
	}
}

func TestEnergyDecaysWithDamping(t *testing.T) {
	mat := mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000}
	msh := smallMesh(t, 3, 2000, mat)
	cfg := DefaultSolverConfig()
	cfg.DampAlpha = 2.0
	s, _ := NewSolver(msh, cfg)
	s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}), Dir: [3]float64{1, 0, 0}, Amplitude: 1e12, Freq: 5, Delay: 0.1})
	// Run past the wavelet, record energy, then check decay.
	for s.Time() < 0.4 {
		s.Step()
	}
	e0 := s.KineticEnergy()
	for s.Time() < 0.8 {
		s.Step()
	}
	e1 := s.KineticEnergy()
	if e0 == 0 {
		t.Skip("no energy injected")
	}
	if e1 > e0 {
		t.Errorf("kinetic energy grew with damping: %v -> %v", e0, e1)
	}
}

func TestHangingMeshRunsStably(t *testing.T) {
	// Graded mesh with hanging nodes must remain stable and keep the
	// constraint u_hanging = avg(masters) exactly after every step.
	cfg := mesh.Config{Domain: 2000, FMax: 2, PointsPerWave: 4, MaxLevel: 5, MinLevel: 2}
	msh, err := mesh.Generate(cfg, gradedT{})
	if err != nil {
		t.Fatal(err)
	}
	if len(msh.Hanging) == 0 {
		t.Fatal("test mesh has no hanging nodes")
	}
	s, err := NewSolver(msh, DefaultSolverConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.2, 0.2, 0.2}), Dir: [3]float64{0, 0, 1}, Amplitude: 1e11, Freq: 2})
	for i := 0; i < 50; i++ {
		s.Step()
		if math.IsNaN(s.MaxDisplacement()) {
			t.Fatalf("hanging mesh blew up at step %d", i)
		}
	}
	for _, c := range msh.Hanging {
		w := 1 / float64(len(c.Masters))
		for k := 0; k < 3; k++ {
			var want float64
			for _, mm := range c.Masters {
				want += w * s.u[3*int(mm)+k]
			}
			got := s.u[3*int(c.Node)+k]
			if math.Abs(got-want) > 1e-12+1e-9*math.Abs(want) {
				t.Fatalf("constraint violated on node %d dof %d: %v vs %v", c.Node, k, got, want)
			}
		}
	}
}

type gradedT struct{}

func (gradedT) At(p [3]float64) mesh.Material {
	vs := 2000.0
	if p[0] < 0.35 && p[1] < 0.35 && p[2] < 0.35 {
		vs = 500
	}
	return mesh.Material{Rho: 2000, Vs: vs, Vp: 1.8 * vs}
}

func TestDoubleCoupleProducesMotion(t *testing.T) {
	msh := smallMesh(t, 3, 2000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	s, _ := NewSolver(msh, DefaultSolverConfig())
	dc := NewDoubleCouple(s, [3]float64{0.5, 0.5, 0.5}, 0.125, 1e12, 2)
	s.AddSource(dc)
	for i := 0; i < 80; i++ {
		s.Step()
	}
	if s.MaxDisplacement() == 0 {
		t.Error("double couple produced no motion")
	}
}

func TestSerialAndParallelAssemblyAgree(t *testing.T) {
	msh := smallMesh(t, 3, 2000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	mk := func(workers int) []float64 {
		s, _ := NewSolver(msh, DefaultSolverConfig())
		s.workers = workers
		s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.4, 0.6, 0.5}), Dir: [3]float64{1, 1, 0}, Amplitude: 1e12, Freq: 3})
		for i := 0; i < 30; i++ {
			s.Step()
		}
		return append([]float64(nil), s.u...)
	}
	a := mk(1)
	b := mk(4)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("dof %d differs: serial %v vs parallel %v (must be bit-identical)", i, a[i], b[i])
		}
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	msh := smallMesh(t, 2, 1000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	s, _ := NewSolver(msh, DefaultSolverConfig())
	s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}), Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 4})
	st := pfs.NewMemStore()
	meta, err := ProduceDataset(s, st, RunConfig{Steps: 20, OutEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumSteps != 4 {
		t.Errorf("steps = %d, want 4", meta.NumSteps)
	}
	if meta.NumNodes != msh.NumNodes() {
		t.Errorf("nodes = %d, want %d", meta.NumNodes, msh.NumNodes())
	}
	// Mesh roundtrip: same leaves, nodes, elements.
	m2, err := ReadMesh(st)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumNodes() != msh.NumNodes() || m2.NumElems() != msh.NumElems() {
		t.Fatalf("mesh roundtrip: %d/%d nodes, %d/%d elems",
			m2.NumNodes(), msh.NumNodes(), m2.NumElems(), msh.NumElems())
	}
	for i := range msh.Nodes {
		if msh.Nodes[i] != m2.Nodes[i] {
			t.Fatal("node order changed across roundtrip")
		}
	}
	// Meta roundtrip.
	meta2, err := ReadMeta(st)
	if err != nil {
		t.Fatal(err)
	}
	if meta2 != meta {
		t.Errorf("meta roundtrip: %+v vs %+v", meta2, meta)
	}
	// Step payload: right size, decodes, non-all-zero by the last step.
	raw := make([]byte, meta.NumNodes*BytesPerNode)
	if err := st.ReadAt(nil, StepObject(3), 0, raw); err != nil {
		t.Fatal(err)
	}
	vel := mustDecodeStep(t, raw)
	var nz bool
	for _, v := range vel {
		if v != 0 {
			nz = true
			break
		}
	}
	if !nz {
		t.Error("last stored step is all zeros")
	}
}

// mustDecodeStep decodes a step object that the test produced itself.
func mustDecodeStep(t *testing.T, raw []byte) []float32 {
	t.Helper()
	out, err := DecodeStepInto(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEncodeDecodeStep(t *testing.T) {
	in := []float32{0, 1.5, -2.25, 3e-9, -1e9}
	out := mustDecodeStep(t, EncodeStep(in))
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("roundtrip[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}

// TestDecodeStepRejectsTruncatedRecord: a step object whose length is not
// a whole number of float32 records used to decode silently (dropping the
// trailing bytes and rendering a wrong frame); it must fail instead.
func TestDecodeStepRejectsTruncatedRecord(t *testing.T) {
	raw := EncodeStep([]float32{1, 2, 3})
	if _, err := DecodeStepInto(nil, raw[:len(raw)-1]); err == nil {
		t.Error("truncated record decoded without error")
	}
	if _, err := DecodeStepInto(nil, raw); err != nil {
		t.Errorf("well-formed record rejected: %v", err)
	}
}

// TestDecodeStepRejectsNonFinite pins the record validation the fault
// model's corruption detection rests on (docs/faults.md): a NaN or Inf
// component — the pattern bit-flip injection produces — fails the decode
// with an error classified pfs.ErrCorrupt, so the caller re-reads for
// clean bytes instead of rendering garbage.
func TestDecodeStepRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  float32
	}{
		{"nan", float32(math.NaN())},
		{"+inf", float32(math.Inf(1))},
		{"-inf", float32(math.Inf(-1))},
	} {
		raw := EncodeStep([]float32{1, tc.bad, 3})
		_, err := DecodeStepInto(nil, raw)
		if err == nil {
			t.Fatalf("%s record decoded without error", tc.name)
		}
		if !errors.Is(err, pfs.ErrCorrupt) {
			t.Errorf("%s error = %v, want pfs.ErrCorrupt classification", tc.name, err)
		}
		if !strings.Contains(err.Error(), "word 1") {
			t.Errorf("%s error %q missing record index", tc.name, err)
		}
	}
	if _, err := DecodeStepInto(nil, EncodeStep([]float32{1, 2, 3})); err != nil {
		t.Errorf("finite record rejected: %v", err)
	}
	// The truncation error carries the same classification.
	raw := EncodeStep([]float32{1, 2, 3})
	if _, err := DecodeStepInto(nil, raw[:len(raw)-1]); !errors.Is(err, pfs.ErrCorrupt) {
		t.Errorf("truncation error = %v, want pfs.ErrCorrupt classification", err)
	}
}

// TestDecodeStepIntoReusesBuffer pins the Into contract: with a buffer of
// sufficient capacity the decode is allocation-free and bit-identical to
// the allocating path.
func TestDecodeStepIntoReusesBuffer(t *testing.T) {
	in := []float32{0, 1.5, -2.25, 3e-9, -1e9, 7}
	raw := EncodeStep(in)
	buf := make([]float32, len(in))
	out, err := DecodeStepInto(buf, raw)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Error("DecodeStepInto did not reuse the caller buffer")
	}
	ref := mustDecodeStep(t, raw)
	for i := range ref {
		if out[i] != ref[i] {
			t.Errorf("into[%d] = %v, want %v", i, out[i], ref[i])
		}
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := DecodeStepInto(buf, raw); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state DecodeStepInto allocates %v, want 0", avg)
	}
}

func TestReadMeshRejectsGarbage(t *testing.T) {
	st := pfs.NewMemStore()
	st.Write(MeshObject, []byte("not a mesh"))
	if _, err := ReadMesh(st); err == nil {
		t.Error("garbage mesh accepted")
	}
	st.Write(MeshObject, []byte{})
	if _, err := ReadMesh(st); err == nil {
		t.Error("empty mesh accepted")
	}
}

func TestStiffnessDampingDecaysFaster(t *testing.T) {
	run := func(beta float64) float64 {
		msh := smallMesh(t, 3, 2000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
		cfg := DefaultSolverConfig()
		cfg.DampAlpha = 0
		cfg.SpongeMax = 0
		cfg.DampBeta = beta
		s, err := NewSolver(msh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}),
			Dir: [3]float64{1, 0, 0}, Amplitude: 1e12, Freq: 6, Delay: 0.05})
		for s.Time() < 0.6 {
			s.Step()
			if math.IsNaN(s.MaxDisplacement()) {
				t.Fatalf("beta=%v blew up", beta)
			}
		}
		return s.KineticEnergy()
	}
	undamped := run(0)
	damped := run(2e-4) // small relative to dt for explicit stability
	if undamped == 0 {
		t.Skip("no energy injected")
	}
	if damped >= undamped {
		t.Errorf("stiffness damping did not dissipate: %v vs %v", damped, undamped)
	}
}

func TestDatasetFieldSelection(t *testing.T) {
	mk := func(f Field) []float32 {
		msh := smallMesh(t, 2, 1000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
		s, _ := NewSolver(msh, DefaultSolverConfig())
		s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.5}),
			Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 4})
		st := pfs.NewMemStore()
		meta, err := ProduceDataset(s, st, RunConfig{Steps: 20, OutEvery: 10, Field: f})
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, meta.NumNodes*BytesPerNode)
		if err := st.ReadAt(nil, StepObject(1), 0, raw); err != nil {
			t.Fatal(err)
		}
		return mustDecodeStep(t, raw)
	}
	vel := mk(FieldVelocity)
	disp := mk(FieldDisplacement)
	same := true
	for i := range vel {
		if vel[i] != disp[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("velocity and displacement datasets are identical")
	}
	if FieldVelocity.String() != "velocity" || FieldDisplacement.String() != "displacement" {
		t.Error("field names")
	}
}

// TestPeakGroundVelocityCorruptStep: a corrupted step object must end the
// scan with an error that names the step and matches pfs.ErrCorrupt; it
// used to panic the process.
func TestPeakGroundVelocityCorruptStep(t *testing.T) {
	msh := smallMesh(t, 2, 1000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	s, _ := NewSolver(msh, DefaultSolverConfig())
	st := pfs.NewMemStore()
	meta, err := ProduceDataset(s, st, RunConfig{Steps: 15, OutEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, meta.NumNodes*BytesPerNode)
	copy(raw[8:], []byte{0, 0, 0x80, 0x7f}) // word 2 = +Inf
	if err := st.Write(StepObject(1), raw); err != nil {
		t.Fatal(err)
	}
	_, err = PeakGroundVelocity(st, meta, msh.SurfaceNodes())
	if !errors.Is(err, pfs.ErrCorrupt) || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("corrupt step 1: err = %v, want pfs.ErrCorrupt naming step 1", err)
	}
}

func TestPeakGroundVelocity(t *testing.T) {
	msh := smallMesh(t, 2, 1000, mesh.Material{Rho: 2000, Vs: 1000, Vp: 2000})
	s, _ := NewSolver(msh, DefaultSolverConfig())
	s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.2}),
		Dir: [3]float64{1, 0, 0}, Amplitude: 1e12, Freq: 4})
	st := pfs.NewMemStore()
	meta, err := ProduceDataset(s, st, RunConfig{Steps: 40, OutEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	surf := msh.SurfaceNodes()
	pgv, err := PeakGroundVelocity(st, meta, surf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pgv) != len(surf) {
		t.Fatalf("pgv length %d", len(pgv))
	}
	var nz int
	for _, v := range pgv {
		if v < 0 {
			t.Fatal("negative PGV")
		}
		if v > 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Error("no surface motion recorded in PGV map")
	}
	// PGV is the max over time: it must dominate any single step's value.
	buf := make([]byte, meta.NumNodes*BytesPerNode)
	if err := st.ReadAt(nil, StepObject(meta.NumSteps-1), 0, buf); err != nil {
		t.Fatal(err)
	}
	vec := mustDecodeStep(t, buf)
	for i, id := range surf {
		vx := float64(vec[3*id])
		vy := float64(vec[3*id+1])
		m := math.Sqrt(vx*vx + vy*vy)
		if float64(pgv[i]) < m-1e-6 {
			t.Fatalf("pgv[%d]=%v below last-step value %v", i, pgv[i], m)
		}
	}
}

// Diagnostics the stability and energy tests read; no binary needs them.

// KineticEnergy returns sum over nodes of 1/2 m |v|^2 (diagnostics).
func (s *Solver) KineticEnergy() float64 {
	dt := s.DT
	var e float64
	for id := range s.mass {
		b := 3 * id
		var v2 float64
		for k := 0; k < 3; k++ {
			v := (s.u[b+k] - s.uPrev[b+k]) / dt
			v2 += v * v
		}
		e += 0.5 * s.mass[id] * v2
	}
	return e
}

// MaxDisplacement returns the max nodal |u| (diagnostics / blow-up guard).
func (s *Solver) MaxDisplacement() float64 {
	var mx float64
	for i := 0; i < len(s.u); i += 3 {
		v := math.Sqrt(s.u[i]*s.u[i] + s.u[i+1]*s.u[i+1] + s.u[i+2]*s.u[i+2])
		if v > mx {
			mx = v
		}
	}
	return mx
}

// solverBitPin is the FNV-1a of the float64 bits of u after 40 damped
// steps on equivMeshes' graded mesh (hanging nodes, DampBeta > 0),
// recorded before −K was stored as a block table. Any change to one bit
// of one displacement changes it; the goldens, which hash 8-bit frames,
// cannot see a 1-ulp change.
const solverBitPin = 0x2703c5aa20a6d65b

func TestSolverBitPin(t *testing.T) {
	ms := equivMeshes(t)
	m := ms[len(ms)-1]
	cfg := DefaultSolverConfig()
	cfg.DampBeta = 2e-4
	for _, w := range []int{1, 2} {
		s, err := NewSolver(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.workers = w
		s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.2, 0.3, 0.25}),
			Dir: [3]float64{1, 0.5, 1}, Amplitude: 1e11, Freq: 2})
		for i := 0; i < 40; i++ {
			s.Step()
		}
		h := fnv.New64a()
		var b [8]byte
		for _, v := range s.u {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != solverBitPin {
			t.Errorf("width %d: solver pin %#x, want %#x", w, got, uint64(solverBitPin))
		}
		if s.MaxDisplacement() == 0 {
			t.Fatal("pin source produced no motion")
		}
	}
}

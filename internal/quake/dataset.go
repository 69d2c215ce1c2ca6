package quake

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/pfs"
	"repro/internal/pool"
)

// Dataset naming: one static mesh object plus one node-data object per
// timestep — the layout the paper's pipeline reads (a one-time octree
// preprocess, then a linear array of node data per step).
const (
	MeshObject = "mesh.bin"
	MetaObject = "meta.bin"
)

// StepObject returns the object name of timestep i.
func StepObject(i int) string { return fmt.Sprintf("step_%04d.dat", i) }

// BytesPerNode is the record size of a node in a step file: a 3-component
// float32 velocity vector.
const BytesPerNode = 12

// Mesh object magics: QKME2 is the format WriteMesh writes; QKME1, which
// held the leaves alone, is refused by name.
const (
	meshMagic   = 0x514b4d4532 // "QKME2"
	meshMagicV1 = 0x514b4d4531 // "QKME1"
)

// Meta describes a written dataset.
type Meta struct {
	NumSteps int
	NumNodes int
	OutDT    float64 // seconds of simulated time between stored steps
}

// Mesh object layout, all little-endian: a 24-byte header (magic, domain,
// leaf count n, node count) followed by three tables — n 13-byte leaf
// records (X, Y, Z as uint32, Level as a byte) in key order, a 12-byte
// record per node (its grid coordinate as three uint32) in id order, and n
// 32-byte corner records (each leaf's eight corner node ids as uint32, in
// mesh.CellCorner order). The node and corner tables are the ones
// mesh.FromTree derives from the leaves, so a reader decodes them instead
// of deriving them again.
const (
	meshHeaderBytes = 24
	meshLeafBytes   = 13
	meshNodeBytes   = 12
	meshCornerBytes = 32
)

// WriteMesh stores the mesh: its domain, octree leaves, node coordinates
// and element corner ids (see the layout above). Materials are not
// stored; only the solver needs them.
func WriteMesh(st pfs.Store, m *mesh.Mesh) error {
	n := len(m.Elems)
	le := binary.LittleEndian
	buf := make([]byte, 0, meshHeaderBytes+(meshLeafBytes+meshCornerBytes)*n+meshNodeBytes*len(m.Nodes))
	buf = le.AppendUint64(buf, meshMagic)
	buf = le.AppendUint64(buf, math.Float64bits(m.Domain))
	buf = le.AppendUint32(buf, uint32(n))
	buf = le.AppendUint32(buf, uint32(len(m.Nodes)))
	for _, c := range m.Tree.Leaves {
		buf = le.AppendUint32(buf, c.X)
		buf = le.AppendUint32(buf, c.Y)
		buf = le.AppendUint32(buf, c.Z)
		buf = append(buf, c.Level)
	}
	for _, g := range m.Nodes {
		buf = le.AppendUint32(buf, g[0])
		buf = le.AppendUint32(buf, g[1])
		buf = le.AppendUint32(buf, g[2])
	}
	for i := range m.Elems {
		for _, id := range m.Elems[i].N {
			buf = le.AppendUint32(buf, uint32(id))
		}
	}
	return st.Write(MeshObject, buf)
}

// ReadMesh loads the mesh (without materials, which only the solver
// needs). It refuses an object WriteMesh cannot have written before it
// builds anything: a QKME1 object (regenerate the dataset), a size other
// than the header's leaf and node counts imply, an invalid cell, leaves
// out of strictly increasing key order, a leaf containing its successor,
// or leaves that do not tile the unit cube. Leaves in key order, none
// containing its successor, are disjoint, so their volumes
// (8^(MaxLevel-level) grid cells each) sum to the cube's exactly when
// they cover it. It then decodes the node and corner tables through
// mesh.FromTables, which refuses any but the ones mesh.FromTree derives
// from the leaves, builds the node index from the nodes and derives the
// hanging constraints.
func ReadMesh(st pfs.Store) (*mesh.Mesh, error) {
	size, err := st.Size(MeshObject)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, size)
	if err := st.ReadAt(nil, MeshObject, 0, raw); err != nil {
		return nil, err
	}
	if len(raw) < meshHeaderBytes {
		return nil, fmt.Errorf("quake: truncated mesh object (%d bytes)", len(raw))
	}
	le := binary.LittleEndian
	switch magic := le.Uint64(raw); magic {
	case meshMagic:
	case meshMagicV1:
		return nil, fmt.Errorf("quake: mesh object is in the QKME1 format, which holds no node or corner tables; regenerate the dataset")
	default:
		return nil, fmt.Errorf("quake: bad mesh object (magic %x)", magic)
	}
	domain := math.Float64frombits(le.Uint64(raw[8:]))
	n, nn := int64(le.Uint32(raw[16:])), int64(le.Uint32(raw[20:]))
	if want := meshHeaderBytes + (meshLeafBytes+meshCornerBytes)*n + meshNodeBytes*nn; int64(len(raw)) != want {
		return nil, fmt.Errorf("quake: mesh object of %d bytes for %d leaves and %d nodes (want %d)", len(raw), n, nn, want)
	}
	leaves := make([]octree.Cell, n)
	const cube = uint64(1) << (3 * octree.MaxLevel)
	var volume uint64
	for i := range leaves {
		r := raw[meshHeaderBytes+meshLeafBytes*i:]
		c := octree.Cell{X: le.Uint32(r), Y: le.Uint32(r[4:]), Z: le.Uint32(r[8:]), Level: r[12]}
		if !c.Valid() {
			return nil, fmt.Errorf("quake: invalid cell %v in mesh object", c)
		}
		if i > 0 {
			prev := leaves[i-1]
			if c.Key() <= prev.Key() {
				return nil, fmt.Errorf("quake: mesh leaf %d (%v) out of key order after %v", i, c, prev)
			}
			if prev.Contains(c) {
				return nil, fmt.Errorf("quake: mesh leaf %v contains its successor %v", prev, c)
			}
		}
		volume += uint64(1) << (3 * (octree.MaxLevel - uint64(c.Level)))
		leaves[i] = c
	}
	if volume != cube {
		return nil, fmt.Errorf("quake: mesh leaves cover %d of the %d finest cells of the domain", volume, cube)
	}
	nodeRec := raw[meshHeaderBytes+meshLeafBytes*n:]
	nodes := make([]mesh.GridCoord, nn)
	for i := range nodes {
		r := nodeRec[meshNodeBytes*i:]
		nodes[i] = mesh.GridCoord{le.Uint32(r), le.Uint32(r[4:]), le.Uint32(r[8:])}
	}
	cornerRec := nodeRec[meshNodeBytes*nn:]
	m, err := mesh.FromTables(&octree.Tree{Leaves: leaves}, domain, nodes, func(li int) [8]int32 {
		r := cornerRec[meshCornerBytes*li:]
		var ids [8]int32
		for k := range ids {
			ids[k] = int32(le.Uint32(r[4*k:]))
		}
		return ids
	})
	if err != nil {
		return nil, fmt.Errorf("quake: mesh object: %w", err)
	}
	return m, nil
}

// metaBytes is the meta object's size: the step and node counts as
// uint32 and the step interval as a float64, little-endian.
const metaBytes = 16

// WriteMeta stores the dataset metadata.
func WriteMeta(st pfs.Store, meta Meta) error {
	le := binary.LittleEndian
	buf := le.AppendUint32(make([]byte, 0, metaBytes), uint32(meta.NumSteps))
	buf = le.AppendUint32(buf, uint32(meta.NumNodes))
	return st.Write(MetaObject, le.AppendUint64(buf, math.Float64bits(meta.OutDT)))
}

// ReadMeta loads the dataset metadata. It refuses an object WriteMeta
// cannot have written for a dataset — a size other than 16 bytes, a step
// interval that is not finite and positive, or no nodes — and every error
// it returns, the store's included, begins "quake: bad meta object". The
// step count is a claim no step object backs yet: a reader confirms a
// step exists before it sizes anything by the count.
func ReadMeta(st pfs.Store) (Meta, error) {
	size, err := st.Size(MetaObject)
	if err != nil {
		return Meta{}, fmt.Errorf("quake: bad meta object: %w", err)
	}
	if size != metaBytes {
		return Meta{}, fmt.Errorf("quake: bad meta object: %d bytes, want %d", size, metaBytes)
	}
	raw := make([]byte, metaBytes)
	if err := st.ReadAt(nil, MetaObject, 0, raw); err != nil {
		return Meta{}, fmt.Errorf("quake: bad meta object: %w", err)
	}
	le := binary.LittleEndian
	meta := Meta{NumSteps: int(le.Uint32(raw)), NumNodes: int(le.Uint32(raw[4:])), OutDT: math.Float64frombits(le.Uint64(raw[8:]))}
	if !(meta.OutDT > 0) || math.IsInf(meta.OutDT, 1) {
		return Meta{}, fmt.Errorf("quake: bad meta object: step interval %v s", meta.OutDT)
	}
	if meta.NumNodes == 0 {
		return Meta{}, fmt.Errorf("quake: bad meta object: no nodes")
	}
	return meta, nil
}

// EncodeStep packs a velocity field into the step-file byte layout.
func EncodeStep(vel []float32) []byte {
	out := make([]byte, 4*len(vel))
	for i, v := range vel {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// DecodeStepInto unpacks step-file bytes into dst, growing it as needed,
// and returns the decoded slice. Buffer ownership: the result aliases dst's
// backing array (when large enough) and is owned by the caller; raw is only
// read. It returns an error wrapping pfs.ErrCorrupt when len(raw) is not a
// multiple of the float32 record size, or when a record holds a non-finite
// value (NaN/Inf) — the solver only ever emits finite components, so a
// non-finite word is a corrupted record, not data. Callers treat corrupt
// records as retryable-once: a re-read may return clean bytes (pfs.Retryable).
// Bit flips that land on finite, plausible values are indistinguishable from
// data and are out of the fault model's scope (docs/faults.md).
func DecodeStepInto(dst []float32, raw []byte) ([]float32, error) {
	if len(raw)%4 != 0 {
		return nil, CheckStep(raw)
	}
	dst = pool.Grow(dst, len(raw)/4)
	for i := range dst {
		bits := binary.LittleEndian.Uint32(raw[4*i:])
		if bits&0x7f800000 == 0x7f800000 {
			return nil, CheckStep(raw)
		}
		dst[i] = math.Float32frombits(bits)
	}
	return dst, nil
}

// CheckStep returns the error DecodeStepInto reports for raw — a truncated
// record, or the first non-finite word — or nil when raw decodes. It is
// the one home of that error's text: decoders that validate words in bulk
// call it only once a record has failed, to name what failed.
func CheckStep(raw []byte) error {
	if len(raw)%4 != 0 {
		return fmt.Errorf("quake: step record of %d bytes is not a whole number of float32s (truncated step object): %w", len(raw), pfs.ErrCorrupt)
	}
	for i := 0; i < len(raw)/4; i++ {
		if bits := binary.LittleEndian.Uint32(raw[4*i:]); bits&0x7f800000 == 0x7f800000 {
			return fmt.Errorf("quake: non-finite float32 %#08x at record word %d of step object: %w", bits, i, pfs.ErrCorrupt)
		}
	}
	return nil
}

// Field selects which node field a dataset stores. The paper visualizes
// "the time history of the 3D displacement and velocity fields" — both are
// supported; velocity is the default (it is what Figures 1/13 show).
type Field int

const (
	// FieldVelocity selects the per-node velocity vectors.
	FieldVelocity Field = iota
	// FieldDisplacement selects the per-node displacement vectors.
	FieldDisplacement
)

// String names the field as it appears in object names.
func (f Field) String() string {
	if f == FieldDisplacement {
		return "displacement"
	}
	return "velocity"
}

// RunConfig controls dataset production.
type RunConfig struct {
	Steps    int   // solver steps to run
	OutEvery int   // store every k-th step
	Field    Field // which node field to store (default velocity)
}

// ProduceDataset runs the solver and writes the dataset (mesh + meta +
// steps) into the store. It returns the metadata.
func ProduceDataset(s *Solver, st pfs.Store, rc RunConfig) (Meta, error) {
	if rc.OutEvery <= 0 {
		rc.OutEvery = 1
	}
	if err := WriteMesh(st, s.M); err != nil {
		return Meta{}, err
	}
	n := s.M.NumNodes()
	field := make([]float32, 3*n)
	out := 0
	for i := 0; i < rc.Steps; i++ {
		s.Step()
		if (i+1)%rc.OutEvery == 0 {
			if rc.Field == FieldDisplacement {
				s.Displacement(field)
			} else {
				s.Velocity(field)
			}
			if err := st.Write(StepObject(out), EncodeStep(field)); err != nil {
				return Meta{}, err
			}
			out++
		}
	}
	meta := Meta{NumSteps: out, NumNodes: n, OutDT: s.DT * float64(rc.OutEvery)}
	return meta, WriteMeta(st, meta)
}

// DemoMesh generates the demo dataset's mesh (see DemoDataset).
func DemoMesh() (*mesh.Mesh, error) {
	return mesh.Generate(mesh.Config{Domain: 2000, FMax: 1.2, PointsPerWave: 4, MaxLevel: 4, MinLevel: 2}, demoBasin{})
}

// DemoDataset builds the demo dataset in a fresh in-memory store, the same
// bytes in every process: a 2 km cube meshed for 1.2 Hz (octree levels 2
// to 4) over demoBasin, shaken by a vertical 2 Hz point source below the
// basin, with steps output steps, one every fourth solver step.
func DemoDataset(steps int) (pfs.Store, error) {
	msh, err := DemoMesh()
	if err != nil {
		return nil, err
	}
	s, err := NewSolver(msh, DefaultSolverConfig())
	if err != nil {
		return nil, err
	}
	s.AddSource(PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.3}), Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 2})
	st := pfs.NewMemStore()
	_, err = ProduceDataset(s, st, RunConfig{Steps: steps * 4, OutEvery: 4})
	return st, err
}

// demoBasin is a halfspace whose Vs rises from 900 to 2,900 m/s with depth,
// 400 m/s inside a hemisphere of radius 0.3 at the centre of the surface.
type demoBasin struct{}

// At implements mesh.Model.
func (demoBasin) At(p [3]float64) mesh.Material {
	vs := 900 + 2000*p[2]
	if d := (p[0]-0.5)*(p[0]-0.5) + (p[1]-0.5)*(p[1]-0.5) + p[2]*p[2]; d < 0.09 {
		vs = 400
	}
	return mesh.Material{Rho: 2200, Vs: vs, Vp: 1.8 * vs}
}

// PeakGroundVelocity scans a dataset and returns, for each surface node
// id in surfIDs, the maximum horizontal velocity magnitude over all steps —
// the PGV map seismologists derive from such simulations. A step object
// that cannot be read or decoded ends the scan with an error naming the
// step (a corrupt record matches pfs.ErrCorrupt).
func PeakGroundVelocity(st pfs.Store, meta Meta, surfIDs []int32) ([]float32, error) {
	out := make([]float32, len(surfIDs))
	buf := make([]byte, meta.NumNodes*BytesPerNode)
	var vec []float32
	for t := 0; t < meta.NumSteps; t++ {
		err := st.ReadAt(nil, StepObject(t), 0, buf)
		if err == nil {
			vec, err = DecodeStepInto(vec, buf)
		}
		if err != nil {
			return nil, fmt.Errorf("quake: pgv scan step %d: %w", t, err)
		}
		for i, id := range surfIDs {
			vx := float64(vec[3*id])
			vy := float64(vec[3*id+1])
			if m := math.Sqrt(vx*vx + vy*vy); m > float64(out[i]) {
				out[i] = float32(m)
			}
		}
	}
	return out, nil
}

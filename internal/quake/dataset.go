package quake

import (
	"bytes"
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

const meshMagic = 0x514b4d4531 // "QKME1"

// Meta describes a written dataset.
type Meta struct {
	NumSteps int
	NumNodes int
	OutDT    float64 // seconds of simulated time between stored steps
}

// WriteMesh stores the mesh topology (octree leaves + domain size). Node
// and element tables are rebuilt deterministically on read.
func WriteMesh(st pfs.Store, m *mesh.Mesh) error {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(uint64(meshMagic))
	w(m.Domain)
	w(uint32(m.Tree.Len()))
	for _, c := range m.Tree.Leaves {
		w(c.X)
		w(c.Y)
		w(c.Z)
		w(c.Level)
	}
	return st.Write(MeshObject, buf.Bytes())
}

// ReadMesh loads and rebuilds the mesh (without materials, which only the
// solver needs).
func ReadMesh(st pfs.Store) (*mesh.Mesh, error) {
	size, err := st.Size(MeshObject)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, size)
	if err := st.ReadAt(nil, MeshObject, 0, raw); err != nil {
		return nil, err
	}
	r := bytes.NewReader(raw)
	var magic uint64
	var domain float64
	var n uint32
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := rd(&magic); err != nil || magic != meshMagic {
		return nil, fmt.Errorf("quake: bad mesh object (magic %x)", magic)
	}
	if err := rd(&domain); err != nil {
		return nil, err
	}
	if err := rd(&n); err != nil {
		return nil, err
	}
	leaves := make([]octree.Cell, n)
	for i := range leaves {
		var c octree.Cell
		if err := rd(&c.X); err != nil {
			return nil, fmt.Errorf("quake: truncated mesh object: %w", err)
		}
		if err := rd(&c.Y); err != nil {
			return nil, err
		}
		if err := rd(&c.Z); err != nil {
			return nil, err
		}
		if err := rd(&c.Level); err != nil {
			return nil, err
		}
		if !c.Valid() {
			return nil, fmt.Errorf("quake: invalid cell %v in mesh object", c)
		}
		leaves[i] = c
	}
	tree := octree.FromLeaves(leaves)
	return mesh.FromTree(tree, domain, nil), nil
}

// WriteMeta stores the dataset metadata.
func WriteMeta(st pfs.Store, meta Meta) error {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(meta.NumSteps))
	binary.Write(&buf, binary.LittleEndian, uint32(meta.NumNodes))
	binary.Write(&buf, binary.LittleEndian, meta.OutDT)
	return st.Write(MetaObject, buf.Bytes())
}

// ReadMeta loads the dataset metadata.
func ReadMeta(st pfs.Store) (Meta, error) {
	size, err := st.Size(MetaObject)
	if err != nil {
		return Meta{}, err
	}
	raw := make([]byte, size)
	if err := st.ReadAt(nil, MetaObject, 0, raw); err != nil {
		return Meta{}, err
	}
	r := bytes.NewReader(raw)
	var ns, nn uint32
	var dt float64
	if err := binary.Read(r, binary.LittleEndian, &ns); err != nil {
		return Meta{}, fmt.Errorf("quake: bad meta object: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &nn); err != nil {
		return Meta{}, err
	}
	if err := binary.Read(r, binary.LittleEndian, &dt); err != nil {
		return Meta{}, err
	}
	return Meta{NumSteps: int(ns), NumNodes: int(nn), OutDT: dt}, nil
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
		return nil, fmt.Errorf("quake: step record of %d bytes is not a whole number of float32s (truncated step object): %w", len(raw), pfs.ErrCorrupt)
	}
	dst = pool.Grow(dst, len(raw)/4)
	for i := range dst {
		bits := binary.LittleEndian.Uint32(raw[4*i:])
		if bits&0x7f800000 == 0x7f800000 {
			return nil, fmt.Errorf("quake: non-finite float32 %#08x at record word %d of step object: %w", bits, i, pfs.ErrCorrupt)
		}
		dst[i] = math.Float32frombits(bits)
	}
	return dst, nil
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

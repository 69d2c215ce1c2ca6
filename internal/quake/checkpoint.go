package quake

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/pfs"
)

// Checkpointing: long basin simulations (the paper's take "wall-clock time
// on the order of several hours") restart from the last saved state rather
// than recomputing. A checkpoint holds the two displacement levels of the
// central-difference scheme plus the step counter.

const ckptMagic = 0x514b4350 // "QKCP"

// CheckpointObject is the store object name used by WriteCheckpoint.
const CheckpointObject = "checkpoint.bin"

// WriteCheckpoint saves the solver state to the store.
func (s *Solver) WriteCheckpoint(st pfs.Store) error {
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(uint32(ckptMagic))
	w(uint64(s.step))
	w(uint64(len(s.u)))
	w(s.u)
	w(s.uPrev)
	return st.Write(CheckpointObject, buf.Bytes())
}

// RestoreCheckpoint loads solver state previously saved for the same mesh.
func (s *Solver) RestoreCheckpoint(st pfs.Store) error {
	size, err := st.Size(CheckpointObject)
	if err != nil {
		return err
	}
	raw := make([]byte, size)
	if err := st.ReadAt(nil, CheckpointObject, 0, raw); err != nil {
		return err
	}
	r := bytes.NewReader(raw)
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic uint32
	if err := rd(&magic); err != nil || magic != ckptMagic {
		return fmt.Errorf("quake: bad checkpoint (magic %x)", magic)
	}
	var step, n uint64
	if err := rd(&step); err != nil {
		return err
	}
	if err := rd(&n); err != nil {
		return err
	}
	if int(n) != len(s.u) {
		return fmt.Errorf("quake: checkpoint has %d dofs, mesh needs %d", n, len(s.u))
	}
	if err := rd(s.u); err != nil {
		return fmt.Errorf("quake: truncated checkpoint: %w", err)
	}
	if err := rd(s.uPrev); err != nil {
		return fmt.Errorf("quake: truncated checkpoint: %w", err)
	}
	s.step = int(step)
	return nil
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

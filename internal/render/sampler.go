package render

import "math"

// sampler is the per-worker, allocation-free sampling state of the ray
// caster. It caches the current cell's bounds, corner values and the
// corner differences the analytic gradient needs, so consecutive samples
// along a ray — and across adjacent pixels of a scanline, since one
// sampler serves a whole row band — skip the octree point location while
// the ray stays inside one cell. An empty cell loads no values until a
// sample needs them, and no cell computes its differences before its first
// lit sample.
type sampler struct {
	bd   *BlockData
	cell int // cached cell index, -1 before the first hit
	// min is the cached cell's min corner and sup the exclusive upper bound
	// of its points (see within).
	min, sup Vec3
	inv      float64 // 1 / cell size
	v        [8]float64
	// Corner differences of the cached cell, the coefficients of the
	// analytic trilinear gradient (one entry per edge along the axis);
	// hasDiffs is set once they describe v.
	dx, dy, dz [4]float64
	hasDiffs   bool
	// empty is set when the cached cell lies in an all-empty octree region
	// of the block's empty-region table; rlo/rsup are that region's box,
	// like min/sup.
	empty     bool
	rlo, rsup Vec3
	// olo/ohi are the block's occupied box, as of reset.
	olo, ohi Vec3
}

// reset aims the sampler at bd, as bd's last projection left it.
func (s *sampler) reset(bd *BlockData) {
	s.bd = bd
	s.cell = -1
	s.min = openHi // no point is in no cell
	s.olo, s.ohi = bd.occupied()
}

// setCell loads the per-cell cache for cell ci.
//
//repro:allocfree
func (s *sampler) setCell(ci int) {
	s.cell = ci
	c := s.bd.Cells[ci]
	// c.Bounds(), written out: returning the two arrays through the stack
	// costs a dense ray 2%.
	h := c.Size()
	for i, x := range [3]uint32{c.X, c.Y, c.Z} {
		s.min[i] = float64(x) * h
		s.sup[i] = supOf(s.min[i] + h)
	}
	s.inv = 1 / h
	s.empty = false
	if ci < len(s.bd.region) {
		if lvl := s.bd.region[ci]; lvl != notEmpty {
			s.empty = true
			lo, hi := c.AncestorAt(lvl).Bounds()
			s.rlo, s.rsup = lo, Vec3{supOf(hi[0]), supOf(hi[1]), supOf(hi[2])}
			return
		}
	}
	s.loadVals()
}

// loadVals loads the cached cell's corner values — what setCell leaves out
// for an empty cell, whose samples are leapt without being evaluated.
//
//repro:allocfree
func (s *sampler) loadVals() {
	vv := &s.bd.Vals[s.cell]
	for k := 0; k < 8; k++ {
		s.v[k] = float64(vv[k])
	}
	s.hasDiffs = false
}

// afterOne is the smallest float64 above 1.0: p <= 1.0 exactly when p <
// afterOne.
var afterOne = math.Nextafter(1, 2)

// supOf returns the exclusive upper bound of the coordinates a cell whose
// max corner has coordinate hi holds: hi itself, or afterOne where the
// cell owns the domain boundary.
func supOf(hi float64) float64 {
	if hi >= 1.0 {
		return afterOne
	}
	return hi
}

// within reports whether a cell holds the point x, y, z — min-inclusive,
// max-exclusive, the domain boundary at 1.0 included — given the cell's min
// corner and its supOf bounds. The point comes as scalars and the bounds by
// pointer, so a sample point never goes through the stack (see castRay).
//
//repro:allocfree
func within(x, y, z float64, lo, sup *Vec3) bool {
	return !(x < lo[0] || x >= sup[0] ||
		y < lo[1] || y >= sup[1] ||
		z < lo[2] || z >= sup[2])
}

// inCell reports whether the cached cell contains the point x, y, z.
//
//repro:allocfree
func (s *sampler) inCell(x, y, z float64) bool { return within(x, y, z, &s.min, &s.sup) }

// find positions the sampler at the cell containing the point x, y, z, for
// a point the cached cell does not contain; ok is false when it falls
// outside the block. The point location is BlockData.find, one directory
// load unless the block is finer than its directory. A failed find keeps
// the previous cell cached — the ray may re-enter it past a concavity.
//
//repro:allocfree
func (s *sampler) find(x, y, z float64) bool {
	ci := s.bd.find(x, y, z)
	if ci < 0 {
		return false
	}
	s.setCell(ci)
	return true
}

// beyondBox reports whether the point x, y, z lies outside the block's
// occupied box, by the half-open predicate of within (a side on the domain
// boundary is infinite): such a sample contributes nothing, see
// buildEmptyRegions.
//
//repro:allocfree
func (s *sampler) beyondBox(x, y, z float64) bool {
	return x < s.olo[0] || x >= s.ohi[0] ||
		y < s.olo[1] || y >= s.ohi[1] ||
		z < s.olo[2] || z >= s.ohi[2]
}

// clip advances the ray-marching parameter past the samples that cannot
// reach the block's occupied box. t is a sample of castRay's sequence and p
// its point, beyondBox; the result is the last sample of the sequence known
// to be beyondBox too — t itself when nothing more can be skipped, t1 when
// no sample of the ray is left — reached by the same repeated t += step the
// marching loop does, so the loop continues on the identical sequence. No
// cell is located and none is loaded.
//
// Every skipped sample contributes nothing, exactly (buildEmptyRegions has
// why a beyondBox point does not). IEEE rounding is monotone, so each
// coordinate of rayAt(o, d, t) is monotone along the sequence. On an axis
// where p is beyond a side of the box and the ray does not move towards it
// (d[i] of the other sign, or 0), every later sample is beyond that side:
// the ray ends. Otherwise the ray reaches the box, if at all, only once it
// has crossed that side's plane on every such axis, so the samples before
// the latest crossing are skipped; the slab-test crossing is only a
// candidate, and what is checked, exactly, is that the last skipped sample
// is still beyond the same side on the same axis — then all between are —
// and a failed check gives the skip up.
//
//repro:allocfree
func (s *sampler) clip(o, d, p Vec3, t, t1, step float64) float64 {
	entry, axis, below := math.Inf(-1), 0, false
	for i := 0; i < 3; i++ {
		var e float64
		lower := p[i] < s.olo[i]
		switch {
		case lower:
			if d[i] <= 0 {
				return t1
			}
			e = (s.olo[i] - o[i]) / d[i]
		case p[i] >= s.ohi[i]:
			if d[i] >= 0 {
				return t1
			}
			e = (s.ohi[i] - o[i]) / d[i]
		default:
			continue
		}
		if e > entry {
			entry, axis, below = e, i, lower
		}
	}
	last := marchTo(t, entry, t1, step)
	if last != t {
		q := rayAt(o, d, last)[axis]
		if below && !(q < s.olo[axis]) || !below && !(q >= s.ohi[axis]) {
			return t
		}
	}
	return last
}

// leapMargin, in steps, is how far short of the computed region exit a
// leap stops, so that rounding in the exit almost never puts the last
// leapt sample outside the region (which only costs the leap, see leap).
const leapMargin = 1e-6

// marchTo returns the last sample of the sequence t, t+step, ... that lies
// leapMargin short of end and before t1 — t itself when none does — by the
// additions castRay's loop would have made.
//
//repro:allocfree
func marchTo(t, end, t1, step float64) float64 {
	if end -= leapMargin * step; !(end < t1) {
		end = t1
	}
	for next := t + step; next < end; next = t + step {
		t = next
	}
	return t
}

// leap advances the ray-marching parameter through the cached empty
// region. t is a sample of castRay's sequence and p its point, located in
// the cached cell; ok reports whether p lies in the region (it need not:
// find clamps a point that rounding put outside the domain into the
// boundary cell), and then the result is the last sample of the sequence
// known to lie in the region — t itself when nothing can be skipped —
// reached by the same repeated t += step the marching loop does, so the
// loop continues on the identical sequence.
//
// Every sample in between contributes nothing, exactly: IEEE rounding is
// monotone, so each coordinate of rayAt(o, d, t) is monotone along the
// sequence, and with the first and the last leapt sample inside the
// region's box (within) all of them are. Such a point is located either
// in no cell or in a cell of the region, none of whose corners is > 0; the
// trilinear a + x*(b-a) with x in [0,1] of values that are not > 0 is not
// > 0 at any stage (it is <= 0, or NaN once a NaN is involved), TFLUT.Lookup
// of such a value is entry 0, and the table is only built when entry 0 has
// density <= 0 — the sample is skipped. The slab-test exit below is only a
// candidate: the last sample is checked with the exact predicate and a
// failed check gives the leap up.
//
//repro:allocfree
func (s *sampler) leap(o, d, p Vec3, t, t1, step float64) (last float64, ok bool) {
	if !within(p[0], p[1], p[2], &s.rlo, &s.rsup) {
		return t, false
	}
	end := math.Inf(1)
	for i := 0; i < 3; i++ {
		var e float64
		switch {
		case d[i] > 0:
			e = (s.rsup[i] - o[i]) / d[i]
		case d[i] < 0:
			e = (s.rlo[i] - o[i]) / d[i]
		default:
			continue
		}
		if e < end {
			end = e
		}
	}
	last = marchTo(t, end, t1, step)
	if q := rayAt(o, d, last); last != t && !within(q[0], q[1], q[2], &s.rlo, &s.rsup) {
		return t, true
	}
	return last, true
}

// rayAt is the point at parameter t of the ray from o along d.
func rayAt(o, d Vec3, t float64) Vec3 {
	return Vec3{o[0] + t*d[0], o[1] + t*d[1], o[2] + t*d[2]}
}

// sample interpolates the scalar field at the point px, py, pz, which the
// cached cell contains (trilinear over the loaded x-fastest corners).
//
//repro:allocfree
func (s *sampler) sample(px, py, pz float64) float64 {
	x := (px - s.min[0]) * s.inv
	y := (py - s.min[1]) * s.inv
	z := (pz - s.min[2]) * s.inv
	c00 := s.v[0] + x*(s.v[1]-s.v[0])
	c10 := s.v[2] + x*(s.v[3]-s.v[2])
	c01 := s.v[4] + x*(s.v[5]-s.v[4])
	c11 := s.v[6] + x*(s.v[7]-s.v[6])
	c0 := c00 + y*(c10-c00)
	c1 := c01 + y*(c11-c01)
	return c0 + z*(c1-c0)
}

// gradient returns the exact gradient of the trilinear interpolant at the
// point px, py, pz in the cached cell (valid after sample), computing the
// cell's corner differences on first use: no further point locations or
// field samples, unlike a central-difference estimate.
//
//repro:allocfree
func (s *sampler) gradient(px, py, pz float64) (gx, gy, gz float64) {
	if !s.hasDiffs {
		s.dx = [4]float64{s.v[1] - s.v[0], s.v[3] - s.v[2], s.v[5] - s.v[4], s.v[7] - s.v[6]}
		s.dy = [4]float64{s.v[2] - s.v[0], s.v[3] - s.v[1], s.v[6] - s.v[4], s.v[7] - s.v[5]}
		s.dz = [4]float64{s.v[4] - s.v[0], s.v[5] - s.v[1], s.v[6] - s.v[2], s.v[7] - s.v[3]}
		s.hasDiffs = true
	}
	x := (px - s.min[0]) * s.inv
	y := (py - s.min[1]) * s.inv
	z := (pz - s.min[2]) * s.inv
	mx, my, mz := 1-x, 1-y, 1-z
	return (s.dx[0]*my*mz + s.dx[1]*y*mz + s.dx[2]*my*z + s.dx[3]*y*z) * s.inv,
		(s.dy[0]*mx*mz + s.dy[1]*x*mz + s.dy[2]*mx*z + s.dy[3]*x*z) * s.inv,
		(s.dz[0]*mx*my + s.dz[1]*x*my + s.dz[2]*mx*y + s.dz[3]*x*y) * s.inv
}

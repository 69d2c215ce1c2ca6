package render

// Regression harness for the empty-space skipping inside a block: region
// leaping and occupied-box clipping in castRay, pixel trimming and the
// hoisted ray set-up in castRows. The marching loop and the sampler as they
// were before any of it live on here, verbatim, as the oracle: the kernel
// must reproduce them bit for bit on every ray and every fragment pixel
// while demonstrably skipping the point locations the oracle performs; the
// empty-region table and the occupied box are checked against brute-force
// scans; and REPRO_PERF_ASSERT gates hold the speedups the skipping exists
// for.

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/octree"
)

// referenceSampler is the sampler as it was before leaping and clipping,
// frozen here so that the oracle shares no code with the kernel it judges:
// per-sample cell membership on recomputed bounds, Size by division,
// every located cell loaded in full, point location by referenceFind.
type referenceSampler struct {
	bd         *BlockData
	cell       int
	min        Vec3
	inv        float64
	v          [8]float64
	dx, dy, dz [4]float64
}

func (s *referenceSampler) reset(bd *BlockData) {
	s.bd = bd
	s.cell = -1
}

func (s *referenceSampler) setCell(ci int) {
	s.cell = ci
	c := s.bd.Cells[ci]
	h := 1.0 / float64(uint32(1)<<c.Level)
	s.min = Vec3{float64(c.X) * h, float64(c.Y) * h, float64(c.Z) * h}
	s.inv = 1 / h
	vv := &s.bd.Vals[ci]
	for k := 0; k < 8; k++ {
		s.v[k] = float64(vv[k])
	}
	s.dx = [4]float64{s.v[1] - s.v[0], s.v[3] - s.v[2], s.v[5] - s.v[4], s.v[7] - s.v[6]}
	s.dy = [4]float64{s.v[2] - s.v[0], s.v[3] - s.v[1], s.v[6] - s.v[4], s.v[7] - s.v[5]}
	s.dz = [4]float64{s.v[4] - s.v[0], s.v[5] - s.v[1], s.v[6] - s.v[2], s.v[7] - s.v[3]}
}

// containsPoint is the cell-membership predicate (min-inclusive,
// max-exclusive, the domain boundary at 1.0 included) with Bounds and Size
// spelt out as they were.
func (s *referenceSampler) containsPoint(c octree.Cell, p Vec3) bool {
	h := 1.0 / float64(uint32(1)<<c.Level)
	min := Vec3{float64(c.X) * h, float64(c.Y) * h, float64(c.Z) * h}
	for i := 0; i < 3; i++ {
		hi := min[i] + h
		if hi >= 1.0 {
			if p[i] < min[i] || p[i] > 1.0 {
				return false
			}
		} else if p[i] < min[i] || p[i] >= hi {
			return false
		}
	}
	return true
}

func (s *referenceSampler) locate(p Vec3) bool {
	if s.cell >= 0 && s.containsPoint(s.bd.Cells[s.cell], p) {
		return true
	}
	ci := referenceFind(s.bd, p)
	if ci < 0 {
		return false
	}
	s.setCell(ci)
	return true
}

// referenceFind is BlockData.find as it was before the directory: because
// the cells are disjoint and key-sorted (Morton preorder), the containing
// cell — the unique ancestor of p's finest-level cell present in the block —
// is the predecessor of that cell's key.
func referenceFind(b *BlockData, p Vec3) int {
	b.index()
	f := octree.CellAt(p, octree.MaxLevel)
	k := f.Key()
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	i := lo - 1
	if !b.Cells[i].Contains(f) {
		return -1
	}
	return i
}

func (s *referenceSampler) sample(p Vec3) (float64, bool) {
	if !s.locate(p) {
		return 0, false
	}
	x := (p[0] - s.min[0]) * s.inv
	y := (p[1] - s.min[1]) * s.inv
	z := (p[2] - s.min[2]) * s.inv
	c00 := s.v[0] + x*(s.v[1]-s.v[0])
	c10 := s.v[2] + x*(s.v[3]-s.v[2])
	c01 := s.v[4] + x*(s.v[5]-s.v[4])
	c11 := s.v[6] + x*(s.v[7]-s.v[6])
	c0 := c00 + y*(c10-c00)
	c1 := c01 + y*(c11-c01)
	return c0 + z*(c1-c0), true
}

func (s *referenceSampler) gradient(p Vec3) Vec3 {
	x := (p[0] - s.min[0]) * s.inv
	y := (p[1] - s.min[1]) * s.inv
	z := (p[2] - s.min[2]) * s.inv
	mx, my, mz := 1-x, 1-y, 1-z
	return Vec3{
		(s.dx[0]*my*mz + s.dx[1]*y*mz + s.dx[2]*my*z + s.dx[3]*y*z) * s.inv,
		(s.dy[0]*mx*mz + s.dy[1]*x*mz + s.dy[2]*mx*z + s.dy[3]*x*z) * s.inv,
		(s.dz[0]*mx*my + s.dz[1]*x*my + s.dz[2]*mx*y + s.dz[3]*x*y) * s.inv,
	}
}

// castRayReference is castRay as it was before leaping: every sample of
// the sequence is located, interpolated and looked up. located counts the
// samples that fell inside a cell. It returns the float64 accumulators, as
// castRay does, so that the oracle pins the kernel before rounding.
func (r *Renderer) castRayReference(s *referenceSampler, o, d Vec3, t0, t1, step float64, located *int) (cr, cg, cb, ca float64) {
	var ar, ag, ab, aa float64
	for t := t0 + step/2; t < t1; t += step {
		p := Vec3{o[0] + t*d[0], o[1] + t*d[1], o[2] + t*d[2]}
		v, ok := s.sample(p)
		if !ok {
			continue
		}
		*located++
		er, eg, eb, density := r.lut.Lookup(v)
		if density <= 0 {
			continue
		}
		alpha := 1 - math.Exp(-density*step)
		if r.Lighting {
			g := s.gradient(p)
			gl := math.Sqrt(dot(g, g))
			if gl > 1e-9 {
				n := scale(g, 1/gl)
				diff := dot(n, lightDir)
				if diff < 0 {
					diff = -diff // double-sided shading for volumes
				}
				shade := ambient + (1-ambient)*diff
				er *= shade
				eg *= shade
				eb *= shade
			} else {
				er *= ambient
				eg *= ambient
				eb *= ambient
			}
		}
		w := (1 - aa) * alpha
		ar += w * er
		ag += w * eg
		ab += w * eb
		aa += w
		if aa >= earlyTermination {
			break
		}
	}
	return ar, ag, ab, aa
}

// referenceRect is the block's projected rectangle as projectBlockWith
// computed it before the occupied box existed.
func referenceRect(bd *BlockData, view *View) (x0, y0, x1, y1 int) {
	bmin, bmax := bd.Root.Bounds()
	fx0, fy0 := math.Inf(1), math.Inf(1)
	fx1, fy1 := math.Inf(-1), math.Inf(-1)
	for i := 0; i < 8; i++ {
		p := Vec3{bmin[0], bmin[1], bmin[2]}
		if i&1 != 0 {
			p[0] = bmax[0]
		}
		if i&2 != 0 {
			p[1] = bmax[1]
		}
		if i&4 != 0 {
			p[2] = bmax[2]
		}
		x, y := view.Project(p)
		fx0, fy0 = math.Min(fx0, x), math.Min(fy0, y)
		fx1, fy1 = math.Max(fx1, x), math.Max(fy1, y)
	}
	return clampInt(int(math.Floor(fx0)), 0, view.Width), clampInt(int(math.Floor(fy0)), 0, view.Height),
		clampInt(int(math.Ceil(fx1))+1, 0, view.Width), clampInt(int(math.Ceil(fy1))+1, 0, view.Height)
}

// referenceRay is View.Ray as it was, on a prepared view.
func referenceRay(v *View, x, y int) (origin, dir Vec3) {
	o := add(v.origin0, add(scale(v.dx, float64(x)), scale(v.dy, float64(y))))
	if v.persp {
		return v.eye, norm(sub(o, v.eye))
	}
	return o, v.dirN
}

// castRowsReference is castRows as it was: every pixel of the block's
// rectangle gets its own ray, is clipped to the block's root cube and cast
// by the reference loop into a fragment of the reference rectangle.
func (r *Renderer) castRowsReference(bd *BlockData, view *View, step float64, located *int) *Fragment {
	x0, y0, x1, y1 := referenceRect(bd, view)
	frag := &Fragment{X0: x0, Y0: y0, Img: img.New(x1-x0, y1-y0)}
	bmin, bmax := bd.Root.Bounds()
	var s referenceSampler
	s.reset(bd)
	for py := y0; py < y1; py++ {
		for px := x0; px < x1; px++ {
			o, d := referenceRay(view, px, py)
			t0, t1, hit := rayBox(o, d, bmin, bmax)
			if !hit {
				continue
			}
			if t0 < 0 {
				t0 = 0
			}
			ar, ag, ab, aa := r.castRayReference(&s, o, d, t0, t1, step, located)
			cr, cg, cb, ca := float32(ar), float32(ag), float32(ab), float32(aa)
			if ca > 0 {
				frag.Img.Set(px-x0, py-y0, cr, cg, cb, ca)
			}
		}
	}
	return frag
}

// ballField is the sparse counterpart of waveField: zero outside a ball
// about c (and, with inner > 0, inside the concentric ball of that
// radius, leaving a shell), rising towards the ball's centre, quantized to
// 8 bits the way the pipeline quantizes (so "zero" is exactly 0). below
// is the value outside: 0, or a negative number or NaN to exercise cells
// that are empty without being all-zero.
func ballField(m *mesh.Mesh, c Vec3, radius, inner float64, below float32) []float32 {
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		dist := math.Sqrt(dot(sub(p, c), sub(p, c)))
		f[i] = below
		if dist < radius && dist >= inner {
			if q := uint8(255 * (1 - dist/radius) * (0.6 + 0.4*math.Sin(40*p[0]))); q > 0 {
				f[i] = float32(q) / 255
			}
		}
	}
	return f
}

// centeredBall is the ballField the benchmarks and gates use: about 6% of
// the domain is non-zero, the share the pipeline's early wavefront has.
func centeredBall(m *mesh.Mesh) []float32 {
	return ballField(m, Vec3{0.5, 0.5, 0.5}, 0.25, 0, 0)
}

// surfaceLayer is the fixture of the clipping benchmarks and gate: ground
// motion confined to a thin slab (z in [0.25, 0.375), inside the x and y
// range [0.25, 0.75)), so that the occupied box of the level-0 block is a
// small, finite part of it on every axis.
func surfaceLayer(m *mesh.Mesh) []float32 {
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		if p[2] > 0.25 && p[2] < 0.375 && p[0] > 0.25 && p[0] < 0.75 && p[1] > 0.25 && p[1] < 0.75 {
			f[i] = float32(uint8(255*(0.5+0.4*math.Sin(30*p[0])*math.Cos(20*p[1])))) / 255
		}
	}
	return f
}

// leapViews are the cameras of the oracle tests: generic orbits, the three
// axis-aligned directions (a ray-direction component of exactly 0, or of
// ~6e-17 where cos(90°) rounds — elevation 90 looks straight down), and a
// perspective view.
func leapViews(w, h int) []View {
	persp := OrbitView(w, h, 40, 25)
	persp.FOVDeg = 50
	return []View{
		OrbitView(w, h, 30, 35),
		OrbitView(w, h, 200, -20),
		OrbitView(w, h, 0, 90),
		OrbitView(w, h, 0, 0),
		OrbitView(w, h, 90, 0),
		persp,
	}
}

// oracleCase is one block set of the oracle tests. sparse sets have empty
// cells (the kernel must leap), boxed ones an occupied box smaller than
// some block (it must clip and trim).
type oracleCase struct {
	name          string
	bds           []*BlockData
	sparse, boxed bool
}

// oracleCases builds the block sets the two oracle tests cast: on two
// adaptive meshes split into the 8 level-1 blocks (each touches the domain
// boundary on three faces and a neighbour on the other three), randomized
// sparse 8-bit fields plus the edges of the occupied box — a box that
// touches the domain at 0 and one that touches it at 1.0 (those sides are
// open), empty cells that are negative, NaN, or a mix of 0 and negative
// (which counts as occupied, see buildEmptyRegions), a dense field (box ==
// block) and a box of exactly one cell.
func oracleCases(t *testing.T) []oracleCase {
	rng := rand.New(rand.NewSource(17))
	deep := deepRenderMesh()
	var cases []oracleCase
	for mi, m := range []*mesh.Mesh{gradedRenderMesh(t), deep} {
		c := Vec3{0.3 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64()}
		radius := 0.18 + 0.12*rng.Float64()
		mixed := ballField(m, c, radius, 0, 0)
		for i := range mixed {
			if mixed[i] == 0 && i%3 == 0 {
				mixed[i] = -0.25
			}
		}
		fields := []struct {
			name          string
			f             []float32
			sparse, boxed bool
		}{
			{"ball", ballField(m, c, radius, 0, 0), true, true},
			{"shell", ballField(m, c, radius+0.1, radius-0.05, 0), true, true},
			{"negative", ballField(m, c, radius, 0, -0.25), true, false},
			{"nan", ballField(m, c, radius, 0, float32(math.NaN())), true, true},
			{"mixed", mixed, true, false},
			{"at0", ballField(m, Vec3{0.08, 0.1, 0.12}, 0.22, 0, 0), true, true},
			{"at1", ballField(m, Vec3{0.93, 0.9, 0.88}, 0.22, 0, 0), true, true},
			{"dense", waveField(m), false, false},
			{"onecell", constField(m, 0), true, true},
		}
		for _, fc := range fields {
			oc := oracleCase{name: []string{"graded/", "deep/"}[mi] + fc.name, sparse: fc.sparse, boxed: fc.boxed}
			for _, b := range m.Tree.Blocks(1) {
				bd, err := ExtractBlockData(m, fc.f, b, m.Tree.MaxDepth())
				if err != nil {
					t.Fatal(err)
				}
				oc.bds = append(oc.bds, bd)
			}
			if fc.name == "onecell" {
				lightOneCell(t, oc.bds)
			}
			cases = append(cases, oc)
		}
	}
	return cases
}

// lightOneCell gives one cell that touches no face of its block a positive
// value at all 8 corners.
func lightOneCell(t *testing.T, bds []*BlockData) {
	for _, bd := range bds {
		rlo, rhi := bd.Root.Bounds()
		for ci, cell := range bd.Cells {
			lo, hi := cell.Bounds()
			if lo[0] > rlo[0] && lo[1] > rlo[1] && lo[2] > rlo[2] && hi[0] < rhi[0] && hi[1] < rhi[1] && hi[2] < rhi[2] {
				bd.Vals[ci] = [8]float32{0.9, 0.8, 0.9, 0.7, 0.9, 0.8, 0.9, 0.6}
				return
			}
		}
	}
	t.Fatal("no block has an interior cell")
}

// grazingRays are hand-built rays that run along the faces of the block's
// root cube and of its occupied box — on the face, one ulp to either side
// of it, with a direction component across the face of exactly 0 or so
// small that the ray drifts over it by rounding alone — which no camera
// produces on demand. They are where find clamps a point into the boundary
// cell, where a ray's origin lies outside the box on an axis it does not
// move along, and where the slab-test entry into the box is wrong by whole
// steps, so that only the check of the last skipped sample saves the skip.
func grazingRays(bd *BlockData) (rays [][2]Vec3) {
	bmin, bmax := bd.Root.Bounds()
	olo, ohi := bd.occupied()
	for i := 0; i < 3; i++ {
		j, k := (i+1)%3, (i+2)%3
		for _, face := range []float64{bmin[i], bmax[i], olo[i], ohi[i]} {
			if math.IsInf(face, 0) {
				continue
			}
			for _, across := range []float64{0, 1e-17, -1e-17, 2e-16, -2e-16, 1e-15, -1e-15, 1e-12, -1e-12} {
				// On the face, an ulp to either side, and where the drift
				// carries the ray over the face halfway through the block
				// (the rays enter the root at t = 1).
				mid := face - across*(1+(bmax[i]-bmin[i])/2)
				for _, at := range []float64{face, math.Nextafter(face, 2), math.Nextafter(face, -1), mid} {
					for _, along := range [][2]int{{j, k}, {k, j}} {
						for n := 0; n < 5; n++ {
							var o, d Vec3
							o[i], d[i] = at, across
							o[along[0]], d[along[0]] = bmin[along[0]]-1, 1
							// Spread over the box's extent on the third axis.
							lo, hi := math.Max(olo[along[1]], bmin[along[1]]), math.Min(ohi[along[1]], bmax[along[1]])
							o[along[1]] = lo + (float64(n)+0.37)/5*(hi-lo)
							d[along[1]] = 0.01 * float64(n-2)
							rays = append(rays, [2]Vec3{o, d})
						}
					}
				}
			}
		}
	}
	return rays
}

// oracleTFs are the transfer functions of the oracle tests: the three
// presets arm the empty-space skipping, a table with density at 0 must not.
func oracleTFs() []struct {
	name  string
	tf    *TransferFunction
	armed bool
} {
	dense := NewTransferFunction([]TFPoint{
		{S: 0, R: 0.1, G: 0.1, B: 0.3, Density: 0.4},
		{S: 1, R: 1, G: 0.5, B: 0, Density: 30},
	})
	return []struct {
		name  string
		tf    *TransferFunction
		armed bool
	}{
		{"seismic", SeismicTF(), true}, {"gray", GrayTF(), true}, {"hot", HotTF(), true}, {"dense", dense, false},
	}
}

// TestCastRayLeapMatchesReference is the tolerance-0 oracle of the kernel:
// for every block set of oracleCases, every transfer function, lit and
// unlit, every camera of leapViews and every pixel of the block's whole
// rectangle (so also the rays castRows would trim, whose origin lies
// outside the occupied box on an axis they do not move along), castRay
// returns the reference loop's pixel bit for bit. That samples are skipped
// is read off the sampler: the two kernels locate the same points whenever
// they locate at all, so their cached cells can only differ after a ray
// whose last located samples the kernel skipped; that clipping in
// particular happens is read off the first sample of each ray. A transfer
// function with density at 0 must disarm both, and then the caches never
// differ and no sample is beyond the box.
//
// Mutation-checked: with a side of the occupied box that lies on the
// domain boundary closed (occLo 0 for -Inf, or occHi 1 for +Inf), or with
// the check of the last skipped sample dropped from clip, this test fails
// (on the grazing rays; no camera ray of these sets needs either).
func TestCastRayLeapMatchesReference(t *testing.T) {
	const size = 40
	for _, oc := range oracleCases(t) {
		for _, tc := range oracleTFs() {
			for _, lit := range []bool{false, true} {
				rr := NewRenderer()
				rr.TF = tc.tf
				rr.Lighting = lit
				rr.Prepare()
				rays, refLocated, cacheDiffers, clipped := 0, 0, 0, 0
				for vi, view := range leapViews(size, size) {
					view.Prepare()
					for bi, bd := range oc.bds {
						_, g, ok := rr.projectBlockWith(bd, &view, nil)
						if !ok {
							continue
						}
						bmin, bmax := bd.Root.Bounds()
						var sl sampler
						var sr referenceSampler
						sl.reset(bd)
						sr.reset(bd)
						cast := func(o, d Vec3, what string, px, py int) {
							t0, t1, hit := rayBox(o, d, bmin, bmax)
							if !hit {
								return
							}
							t0 = math.Max(t0, 0)
							rays++
							if p := rayAt(o, d, t0+g.step/2); t0+g.step/2 < t1 && sl.beyondBox(p[0], p[1], p[2]) {
								clipped++
							}
							var got, want [4]float64
							got[0], got[1], got[2], got[3] = rr.castRay(&sl, o, d, t0, t1, g.step)
							want[0], want[1], want[2], want[3] = rr.castRayReference(&sr, o, d, t0, t1, g.step, &refLocated)
							for k := range want {
								if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
									t.Fatalf("%s tf %s lit %v view %d block %d %s (%d,%d) o %v d %v: castRay %v, reference %v",
										oc.name, tc.name, lit, vi, bi, what, px, py, o, d, got, want)
								}
							}
							if sl.cell != sr.cell {
								cacheDiffers++
							}
						}
						for py := g.y0; py < g.y1; py++ {
							for px := g.x0; px < g.x1; px++ {
								o, d := view.Ray(px, py)
								cast(o, d, "pixel", px, py)
							}
						}
						if vi == 0 {
							for n, ray := range grazingRays(bd) {
								cast(ray[0], ray[1], "grazing ray", n, 0)
							}
						}
					}
				}
				switch {
				case rays == 0 || refLocated == 0:
					t.Fatalf("%s tf %s: nothing was cast (%d rays, %d located samples)", oc.name, tc.name, rays, refLocated)
				case tc.armed && (oc.sparse && cacheDiffers == 0 || oc.boxed && clipped == 0):
					t.Errorf("%s tf %s lit %v: of %d rays %d skipped their last samples, %d started outside the box",
						oc.name, tc.name, lit, rays, cacheDiffers, clipped)
				case !tc.armed && (cacheDiffers != 0 || clipped != 0):
					t.Errorf("%s tf %s lit %v: %d rays skipped, %d were clipped though density at 0 is positive",
						oc.name, tc.name, lit, cacheDiffers, clipped)
				}
			}
		}
	}
}

// TestCastRowsMatchesReference is the oracle of everything around the
// kernel — the fragment rectangle, the trimmed pixel loop, the hoisted ray
// set-up: for the same block sets, transfer functions and cameras, the
// fragment projectBlockWith and castRows produce has the reference
// rectangle and the reference's pixels, bit for bit, including the pixels
// that must stay untouched. Armed sparse sets must trim pixels; a disarmed
// table and a box that is the whole block must trim none.
//
// Mutation-checked: with the trimmed rectangle shrunk by one pixel on any
// of its four sides, or with rowRay adding the column term to the origin
// before the row term, this test fails.
func TestCastRowsMatchesReference(t *testing.T) {
	const size = 40
	for _, oc := range oracleCases(t) {
		for _, tc := range oracleTFs() {
			rr := NewRenderer()
			rr.TF = tc.tf
			rr.Lighting = true
			rr.Prepare()
			located, trimmed, lit := 0, 0, 0
			for vi, view := range leapViews(size, size) {
				view.Prepare()
				for py := 0; py < size; py++ {
					row := view.rowOffset(py)
					for px := 0; px < size; px++ {
						o, d := view.rowRay(row, px)
						if wo, wd := referenceRay(&view, px, py); o != wo || d != wd {
							t.Fatalf("view %d pixel (%d,%d): hoisted ray %v %v, reference %v %v", vi, px, py, o, d, wo, wd)
						}
					}
				}
				for bi, bd := range oc.bds {
					frag, g, ok := rr.projectBlockWith(bd, &view, nil)
					if !ok {
						continue
					}
					want := rr.castRowsReference(bd, &view, stepScale*bd.MinCellSize(), &located)
					if frag.X0 != want.X0 || frag.Y0 != want.Y0 || frag.Img.W != want.Img.W || frag.Img.H != want.Img.H {
						t.Fatalf("%s tf %s view %d block %d: fragment %d,%d %dx%d, reference %d,%d %dx%d", oc.name, tc.name, vi, bi,
							frag.X0, frag.Y0, frag.Img.W, frag.Img.H, want.X0, want.Y0, want.Img.W, want.Img.H)
					}
					var s sampler
					s.reset(bd)
					rr.castRows(bd, &view, frag, g, g.y0, g.y1, &s)
					for i, v := range want.Img.Pix {
						if math.Float32bits(frag.Img.Pix[i]) != math.Float32bits(v) {
							px, py := i/4%want.Img.W, i/4/want.Img.W
							t.Fatalf("%s tf %s view %d block %d pixel (%d,%d) of rect %+v: castRows %v, reference %v", oc.name, tc.name, vi, bi,
								frag.X0+px, frag.Y0+py, g, frag.Img.Pix[i&^3:i&^3+4], want.Img.Pix[i&^3:i&^3+4])
						}
						if i%4 == 3 && v > 0 {
							lit++
						}
					}
					trimmed += (g.x1-g.x0)*(g.y1-g.y0) - (g.tx1-g.tx0)*(g.ty1-g.ty0)
				}
			}
			switch {
			case located == 0 || lit == 0:
				t.Fatalf("%s tf %s: nothing was rendered (%d located samples, %d lit pixels)", oc.name, tc.name, located, lit)
			case tc.armed && oc.boxed && trimmed == 0:
				t.Errorf("%s tf %s: no pixel trimmed", oc.name, tc.name)
			case (!tc.armed || !oc.sparse) && trimmed != 0:
				t.Errorf("%s tf %s: %d pixels trimmed though nothing can be clipped", oc.name, tc.name, trimmed)
			}
		}
	}
}

// TestOccupiedBoxFollowsTheTable pins when the occupied box may be
// believed: a block that was extracted but not projected since reads as
// open on every side — never as the zero value, never as the previous
// frame's box — and a sampler aimed at it neither clips nor leaps, so
// castRay still equals the reference.
func TestOccupiedBoxFollowsTheTable(t *testing.T) {
	m := gradedRenderMesh(t)
	b := m.Tree.Blocks(0)[0]
	level := m.Tree.MaxDepth()
	bd, err := ExtractBlockData(m, ballField(m, Vec3{0.5, 0.5, 0.5}, 0.2, 0, 0), b, level)
	if err != nil {
		t.Fatal(err)
	}
	isOpen := func(when string) {
		t.Helper()
		if lo, hi := bd.occupied(); lo != openLo || hi != openHi {
			t.Fatalf("%s: occupied box %v..%v, want open", when, lo, hi)
		}
	}
	isOpen("extracted, never projected")
	rr := NewRenderer()
	rr.Prepare()
	view := OrbitView(32, 32, 30, 35)
	view.Prepare()
	if _, _, ok := rr.projectBlockWith(bd, &view, nil); !ok {
		t.Fatal("block skipped")
	}
	lo, hi := bd.occupied()
	for i := 0; i < 3; i++ {
		if !(lo[i] > 0.2 && lo[i] < 0.5 && hi[i] > 0.5 && hi[i] < 0.8) {
			t.Fatalf("projected: occupied box %v..%v does not bound the ball", lo, hi)
		}
	}
	// Re-extraction empties the table; the box fields still hold the ball's.
	if err := ExtractBlockDataInto(bd, m, waveField(m), b, level); err != nil {
		t.Fatal(err)
	}
	isOpen("re-extracted")
	var sl sampler
	var sr referenceSampler
	sl.reset(bd)
	sr.reset(bd)
	bmin, bmax := bd.Root.Bounds()
	step := stepScale * bd.MinCellSize()
	located := 0
	for py := 0; py < view.Height; py++ {
		for px := 0; px < view.Width; px++ {
			o, d := view.Ray(px, py)
			t0, t1, hit := rayBox(o, d, bmin, bmax)
			if !hit {
				continue
			}
			var got, want [4]float64
			got[0], got[1], got[2], got[3] = rr.castRay(&sl, o, d, math.Max(t0, 0), t1, step)
			want[0], want[1], want[2], want[3] = rr.castRayReference(&sr, o, d, math.Max(t0, 0), t1, step, &located)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("pixel (%d,%d): castRay %v through an unprojected block, reference %v", px, py, got, want)
				}
			}
			if sl.cell != sr.cell {
				t.Fatalf("pixel (%d,%d): a sample was skipped in an unprojected block", px, py)
			}
		}
	}
	if located == 0 {
		t.Fatal("nothing was cast")
	}
}

// TestEmptyRegionTableMatchesBruteForce checks the table build against
// its definitions, cell by cell: a non-empty cell is in no region; an empty
// cell's region is the coarsest ancestor inside the block under which
// every cell is empty; the occupied box bounds exactly the cells with a
// corner that is neither 0 nor NaN, its sides on the domain boundary open.
// The block maximum folded into the build must be MaxValue's.
func TestEmptyRegionTableMatchesBruteForce(t *testing.T) {
	m := gradedRenderMesh(t)
	mixed := ballField(m, Vec3{0.45, 0.5, 0.55}, 0.15, 0, 0)
	for i := range mixed {
		if p := m.Nodes[i].Pos(); p[0] > 0.8 && p[1] < 0.1 {
			mixed[i] = -1 // empty cells that are occupied all the same
		}
	}
	fields := [][]float32{
		ballField(m, Vec3{0.3, 0.35, 0.25}, 0.22, 0, 0),
		ballField(m, Vec3{0.6, 0.5, 0.5}, 0.3, 0.2, -0.5),
		ballField(m, Vec3{0.5, 0.5, 0.5}, 0.12, 0, float32(math.NaN())),
		mixed,
		constField(m, 0),
		waveField(m),
	}
	empties, finiteSides := 0, 0
	for fi, f := range fields {
		for _, blockLevel := range []uint8{0, 1, 2} {
			for bi, b := range m.Tree.Blocks(blockLevel) {
				bd, err := ExtractBlockData(m, f, b, m.Tree.MaxDepth())
				if err != nil {
					t.Fatal(err)
				}
				if mx := bd.buildEmptyRegions(true); mx != maxValue(bd) {
					t.Fatalf("field %d bl%d block %d: build max %v, MaxValue %v", fi, blockLevel, bi, mx, maxValue(bd))
				}
				empty := make([]bool, len(bd.Cells))
				wantLo, wantHi := Vec3{1, 1, 1}, Vec3{0, 0, 0} // no cell occupied
				for i, c := range bd.Cells {
					empty[i] = true
					occupied := false
					for _, v := range bd.Vals[i] {
						empty[i] = empty[i] && !(v > 0)
						occupied = occupied || v > 0 || v < 0
					}
					if occupied {
						lo, hi := c.Bounds()
						for k := 0; k < 3; k++ {
							wantLo[k], wantHi[k] = math.Min(wantLo[k], lo[k]), math.Max(wantHi[k], hi[k])
						}
					}
				}
				for k := 0; k < 3; k++ {
					if wantLo[k] <= 0 {
						wantLo[k] = math.Inf(-1)
					}
					if wantHi[k] >= 1 {
						wantHi[k] = math.Inf(1)
					}
					if wantLo[k] > 0 && wantLo[k] < wantHi[k] {
						finiteSides++
					}
				}
				if lo, hi := bd.occupied(); lo != wantLo || hi != wantHi {
					t.Fatalf("field %d bl%d block %d: occupied box %v..%v, want %v..%v", fi, blockLevel, bi, lo, hi, wantLo, wantHi)
				}
				allEmptyUnder := func(a octree.Cell) bool {
					for j, c := range bd.Cells {
						if a.Contains(c) && !empty[j] {
							return false
						}
					}
					return true
				}
				for i, c := range bd.Cells {
					want := uint8(notEmpty)
					if empty[i] {
						empties++
						want = c.Level
						for want > bd.Root.Level && allEmptyUnder(c.AncestorAt(want-1)) {
							want--
						}
					}
					if bd.region[i] != want {
						t.Fatalf("field %d bl%d block %d cell %v: region level %d, want %d", fi, blockLevel, bi, c, bd.region[i], want)
					}
				}
				bd.buildEmptyRegions(false)
				for i, lvl := range bd.region {
					if lvl != notEmpty {
						t.Fatalf("field %d bl%d block %d cell %d: disarmed table holds region level %d", fi, blockLevel, bi, i, lvl)
					}
				}
				if lo, hi := bd.occupied(); lo != openLo || hi != openHi {
					t.Fatalf("field %d bl%d block %d: disarmed occupied box %v..%v, want open", fi, blockLevel, bi, lo, hi)
				}
			}
		}
	}
	if empties == 0 || finiteSides == 0 {
		t.Fatalf("%d empty cells, %d finite box sides in any field", empties, finiteSides)
	}
}

// TestMarchToRepeatsTheAdditions pins that marchTo lands on castRay's own
// sequence t, t+step, (t+step)+step, ... and not on t + k*step, which
// rounds differently after a few steps. It searches random starts and
// steps for a k where the two forms differ and asks marchTo for the last
// sample before the (k+1)th, which must be the repeated-addition one —
// with an end just short of it, and with t1 there instead.
//
// Mutation-checked: with marchTo computing t + k*step, this test fails.
func TestMarchToRepeatsTheAdditions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	found := 0
	for trial := 0; trial < 200; trial++ {
		t0 := rng.Float64() * 2
		step := 1e-3 + rng.Float64()*0.05
		seq := []float64{t0}
		for k := 1; k < 400; k++ {
			seq = append(seq, seq[k-1]+step)
			if seq[k] == t0+float64(k)*step {
				continue
			}
			found++
			if got := marchTo(t0, seq[k]+step/2, math.Inf(1), step); got != seq[k] {
				t.Fatalf("marchTo(%v, end past sample %d, step %v) = %v, repeated addition %v, t+k*step %v",
					t0, k, step, got, seq[k], t0+float64(k)*step)
			}
			if got := marchTo(t0, math.Inf(1), seq[k]+step/2, step); got != seq[k] {
				t.Fatalf("marchTo(%v, t1 past sample %d, step %v) = %v, repeated addition %v", t0, k, step, got, seq[k])
			}
			break
		}
	}
	if found < 100 {
		t.Fatalf("only %d of 200 sequences round differently within 400 steps", found)
	}
}

// minOver returns the smallest of n interleaved timings of each of two
// scans, after a warm-up of both — what the wall-clock gates compare.
func minOver(n int, a, b func() float64) (ta, tb float64) {
	a()
	b()
	ta, tb = math.Inf(1), math.Inf(1)
	for trial := 0; trial < n; trial++ {
		ta = math.Min(ta, a())
		tb = math.Min(tb, b())
	}
	return ta, tb
}

// TestCastRayLeapSpeedupGate holds the speedup leaping exists for: on the
// sparse field the kernel must beat the reference loop by 1.5x (nominal >=
// 2.5x). Like the other wall-clock gates it only asserts under
// REPRO_PERF_ASSERT=1 and takes the minimum over interleaved windows.
func TestCastRayLeapSpeedupGate(t *testing.T) {
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		t.Skip("set REPRO_PERF_ASSERT=1 to enforce the castRay leap speedup gate")
	}
	m := uniformMesh(4)
	bd, err := ExtractBlockData(m, centeredBall(m), m.Tree.Blocks(0)[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	rr := NewRenderer()
	rr.Lighting = true
	rr.Prepare()
	view := DefaultView(96, 96)
	view.Prepare()
	_, g, ok := rr.projectBlockWith(bd, &view, nil)
	if !ok {
		t.Fatal("sparse block skipped")
	}
	bmin, bmax := bd.Root.Bounds()
	var s sampler
	var sr referenceSampler
	s.reset(bd)
	sr.reset(bd)
	scan := func(cast func(o, d Vec3, t0, t1 float64)) func() float64 {
		return func() float64 {
			start := time.Now()
			for py := g.y0; py < g.y1; py++ {
				for px := g.x0; px < g.x1; px++ {
					o, d := view.Ray(px, py)
					if t0, t1, hit := rayBox(o, d, bmin, bmax); hit {
						cast(o, d, math.Max(t0, 0), t1)
					}
				}
			}
			return time.Since(start).Seconds()
		}
	}
	located := 0
	leap, ref := minOver(6,
		scan(func(o, d Vec3, t0, t1 float64) { _, _, _, sinkRay = rr.castRay(&s, o, d, t0, t1, g.step) }),
		scan(func(o, d Vec3, t0, t1 float64) {
			_, _, _, sinkRay = rr.castRayReference(&sr, o, d, t0, t1, g.step, &located)
		}))
	t.Logf("castRay over a sparse block: kernel %.3gs, reference %.3gs (%.2fx)", leap, ref, ref/leap)
	if ref < 1.5*leap {
		t.Errorf("castRay leap speedup regressed: kernel %.3gs vs reference %.3gs (%.2fx, want >= 2.5x nominal / 1.5x gate)",
			leap, ref, ref/leap)
	}
}

// TestCastRayClipSpeedupGate holds the speedup clipping to the occupied box
// exists for, on top of leaping: casting the surface-layer block with its
// box must beat casting it with the box opened (same kernel, same leaps, no
// clip, no trimmed pixel) by 1.5x. Same protocol as the leap gate.
func TestCastRayClipSpeedupGate(t *testing.T) {
	if os.Getenv("REPRO_PERF_ASSERT") != "1" {
		t.Skip("set REPRO_PERF_ASSERT=1 to enforce the castRay clip speedup gate")
	}
	m := uniformMesh(5)
	bd, err := ExtractBlockData(m, surfaceLayer(m), m.Tree.Blocks(0)[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	rr := NewRenderer()
	rr.Lighting = true
	rr.Prepare()
	view := DefaultView(128, 128)
	view.Prepare()
	frag, g, ok := rr.projectBlockWith(bd, &view, nil)
	if !ok {
		t.Fatal("surface-layer block skipped")
	}
	open := g
	open.tx0, open.ty0, open.tx1, open.ty1 = g.x0, g.y0, g.x1, g.y1
	var s, so sampler
	s.reset(bd)
	so.reset(bd)
	so.olo, so.ohi = openLo, openHi
	scan := func(g blockRect, s *sampler) func() float64 {
		return func() float64 {
			start := time.Now()
			rr.castRows(bd, &view, frag, g, g.y0, g.y1, s)
			return time.Since(start).Seconds()
		}
	}
	clipped, unclipped := minOver(6, scan(g, &s), scan(open, &so))
	t.Logf("castRows over a surface-layer block: clipped %.3gs, box opened %.3gs (%.2fx)", clipped, unclipped, unclipped/clipped)
	if unclipped < 1.5*clipped {
		t.Errorf("castRay clip speedup regressed: clipped %.3gs vs box opened %.3gs (%.2fx, want >= 1.5x)",
			clipped, unclipped, unclipped/clipped)
	}
}

// maxValue is the plain scan buildEmptyRegions folds into its pass.
func maxValue(b *BlockData) float32 {
	var mx float32
	for i := range b.Vals {
		for _, v := range b.Vals[i] {
			if v > mx {
				mx = v
			}
		}
	}
	return mx
}

package render

// Regression harness for empty-region leaping in castRay. The pre-leap
// marching loop lives on here, verbatim, as the oracle: castRay must
// reproduce it bit for bit on every ray while demonstrably skipping the
// point locations the oracle performs; the empty-region table is checked
// against a brute-force scan; and a REPRO_PERF_ASSERT gate holds the
// speedup the leap exists for.

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/octree"
)

// castRayReference is castRay as it was before leaping: every sample of
// the sequence is located, interpolated and looked up. located counts the
// samples that fell inside a cell.
func (r *Renderer) castRayReference(s *sampler, o, d Vec3, t0, t1, step float64, located *int) (cr, cg, cb, ca float32) {
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
		alpha := 1 - math.Exp(-density*r.DensityScale*step)
		if r.Lighting {
			g := s.gradient(p)
			gl := math.Sqrt(dot(g, g))
			if gl > 1e-9 {
				n := scale(g, 1/gl)
				diff := dot(n, r.LightDir)
				if diff < 0 {
					diff = -diff // double-sided shading for volumes
				}
				shade := r.Ambient + (1-r.Ambient)*diff
				er *= shade
				eg *= shade
				eb *= shade
			} else {
				er *= r.Ambient
				eg *= r.Ambient
				eb *= r.Ambient
			}
		}
		w := (1 - aa) * alpha
		ar += w * er
		ag += w * eg
		ab += w * eb
		aa += w
		if aa >= r.EarlyTermination {
			break
		}
	}
	return float32(ar), float32(ag), float32(ab), float32(aa)
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

// leapViews are the cameras of the oracle test: generic orbits, the three
// axis-aligned directions (a ray-direction component of exactly 0, or of
// ~6e-17 where cos(90°) rounds), and a perspective view.
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

// TestCastRayLeapMatchesReference is the tolerance-0 oracle: on adaptive
// meshes, with randomized sparse 8-bit fields, for every camera of
// leapViews, every block (all touch the domain boundary, whose faces are
// inclusive), lit and unlit, castRay returns the reference loop's pixel
// bit for bit. That leaps happen is read off the sampler: the two kernels
// locate the same points whenever they locate at all, so their cached
// cells can only differ after a ray whose last located samples the leap
// kernel skipped. A transfer function with density at 0 must disarm the
// table, and then the caches never differ.
func TestCastRayLeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	deep := mesh.FromTree(octree.Build(5, func(c octree.Cell) bool {
		if c.Level < 2 {
			return true
		}
		ctr := c.Center()
		return math.Abs(ctr[0]-0.6) < 0.2 && math.Abs(ctr[1]-0.4) < 0.2 && ctr[2] < 0.5
	}).Balance21(), 1000, nil)
	meshes := []*mesh.Mesh{gradedRenderMesh(t), deep}
	dense := NewTransferFunction([]TFPoint{
		{S: 0, R: 0.1, G: 0.1, B: 0.3, Density: 0.4},
		{S: 1, R: 1, G: 0.5, B: 0, Density: 30},
	})
	tfs := []struct {
		name  string
		tf    *TransferFunction
		armed bool
	}{
		{"seismic", SeismicTF(), true}, {"gray", GrayTF(), true}, {"hot", HotTF(), true}, {"dense", dense, false},
	}
	const size = 40
	for mi, m := range meshes {
		c := Vec3{0.3 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64()}
		radius := 0.18 + 0.12*rng.Float64()
		fields := [][]float32{
			ballField(m, c, radius, 0, 0),
			ballField(m, c, radius+0.1, radius-0.05, 0),
			ballField(m, c, radius, 0, -0.25),
			ballField(m, c, radius, 0, float32(math.NaN())),
		}
		level := m.Tree.MaxDepth()
		for fi, f := range fields {
			var bds []*BlockData
			for _, b := range m.Tree.Blocks(1) {
				bd, err := ExtractBlockData(m, f, b, level)
				if err != nil {
					t.Fatal(err)
				}
				bds = append(bds, bd)
			}
			for _, tc := range tfs {
				for _, lit := range []bool{false, true} {
					rr := NewRenderer()
					rr.TF = tc.tf
					rr.Lighting = lit
					rr.Prepare()
					rays, refLocated, cacheDiffers := 0, 0, 0
					for vi, view := range leapViews(size, size) {
						view.Prepare()
						for bi, bd := range bds {
							_, g, ok := rr.projectBlockWith(bd, &view, nil)
							if !ok {
								continue
							}
							bmin, bmax := bd.Root.Bounds()
							var sl, sr sampler
							sl.reset(bd)
							sr.reset(bd)
							for py := g.y0; py < g.y1; py++ {
								for px := g.x0; px < g.x1; px++ {
									o, d := view.Ray(px, py)
									t0, t1, hit := rayBox(o, d, bmin, bmax)
									if !hit {
										continue
									}
									t0 = math.Max(t0, 0)
									rays++
									var got, want [4]float32
									got[0], got[1], got[2], got[3] = rr.castRay(&sl, o, d, t0, t1, g.step)
									want[0], want[1], want[2], want[3] = rr.castRayReference(&sr, o, d, t0, t1, g.step, &refLocated)
									for k := range want {
										if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
											t.Fatalf("mesh %d field %d tf %s lit %v view %d block %d pixel (%d,%d): castRay %v, reference %v",
												mi, fi, tc.name, lit, vi, bi, px, py, got, want)
										}
									}
									if sl.cell != sr.cell {
										cacheDiffers++
									}
								}
							}
						}
					}
					switch {
					case rays == 0 || refLocated == 0:
						t.Fatalf("mesh %d field %d tf %s: nothing was cast (%d rays, %d located samples)", mi, fi, tc.name, rays, refLocated)
					case tc.armed && cacheDiffers == 0:
						t.Errorf("mesh %d field %d tf %s lit %v: no ray leapt over its last samples in %d rays", mi, fi, tc.name, lit, rays)
					case !tc.armed && cacheDiffers != 0:
						t.Errorf("mesh %d field %d tf %s lit %v: %d rays leapt though density at 0 is positive", mi, fi, tc.name, lit, cacheDiffers)
					}
				}
			}
		}
	}
}

// TestEmptyRegionTableMatchesBruteForce checks the table build against
// its definition, cell by cell: a non-empty cell is in no region; an empty
// cell's region is the coarsest ancestor inside the block under which
// every cell is empty. The block maximum folded into the build must be
// MaxValue's.
func TestEmptyRegionTableMatchesBruteForce(t *testing.T) {
	m := gradedRenderMesh(t)
	fields := [][]float32{
		ballField(m, Vec3{0.3, 0.35, 0.25}, 0.22, 0, 0),
		ballField(m, Vec3{0.6, 0.5, 0.5}, 0.3, 0.2, -0.5),
		constField(m, 0),
		waveField(m),
	}
	empties := 0
	for fi, f := range fields {
		for _, blockLevel := range []uint8{0, 1, 2} {
			for bi, b := range m.Tree.Blocks(blockLevel) {
				bd, err := ExtractBlockData(m, f, b, m.Tree.MaxDepth())
				if err != nil {
					t.Fatal(err)
				}
				if mx := bd.buildEmptyRegions(true); mx != bd.MaxValue() {
					t.Fatalf("field %d bl%d block %d: build max %v, MaxValue %v", fi, blockLevel, bi, mx, bd.MaxValue())
				}
				empty := make([]bool, len(bd.Cells))
				for i := range bd.Cells {
					empty[i] = true
					for _, v := range bd.Vals[i] {
						empty[i] = empty[i] && !(v > 0)
					}
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
			}
		}
	}
	if empties == 0 {
		t.Fatal("no empty cell in any field")
	}
}

// TestCastRayLeapSpeedupGate holds the speedup leaping exists for: on the
// sparse field the leap kernel must beat the reference loop by 1.5x
// (nominal >= 2.5x). Like the other wall-clock gates it only asserts under
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
	s.reset(bd)
	scan := func(cast func(o, d Vec3, t0, t1 float64)) float64 {
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
	located := 0
	runLeap := func(o, d Vec3, t0, t1 float64) { _, _, _, sinkAlpha = rr.castRay(&s, o, d, t0, t1, g.step) }
	runRef := func(o, d Vec3, t0, t1 float64) {
		_, _, _, sinkAlpha = rr.castRayReference(&s, o, d, t0, t1, g.step, &located)
	}
	scan(runLeap)
	scan(runRef) // warm up
	leap, ref := math.Inf(1), math.Inf(1)
	for trial := 0; trial < 6; trial++ {
		leap = math.Min(leap, scan(runLeap))
		ref = math.Min(ref, scan(runRef))
	}
	t.Logf("castRay over a sparse block: leap %.3gs, reference %.3gs (%.2fx)", leap, ref, ref/leap)
	if ref < 1.5*leap {
		t.Errorf("castRay leap speedup regressed: leap %.3gs vs reference %.3gs (%.2fx, want >= 2.5x nominal / 1.5x gate)",
			leap, ref, ref/leap)
	}
}

package render

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

// benchRaySetup prepares a level-4 block and the ray through the pixel that
// point at projects to. The dense field (waveField) has no empty cell, so
// its ray never leaps and pays only the per-sample branches; the sparse one
// (centeredBall) is zero outside a ball, the surface one (surfaceLayer)
// outside a thin slab — both with the empty-region table and the occupied
// box built as a projection would.
func benchRaySetup(b testing.TB, lighting bool, field string, at Vec3) (*Renderer, *sampler, Vec3, Vec3, float64, float64, float64) {
	b.Helper()
	m := uniformMesh(4)
	f := map[string]func(*mesh.Mesh) []float32{"dense": waveField, "sparse": centeredBall, "surface": surfaceLayer}[field](m)
	bd, err := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 4)
	if err != nil {
		b.Fatal(err)
	}
	rr := NewRenderer()
	rr.Lighting = lighting
	rr.Prepare()
	if field != "dense" {
		bd.buildEmptyRegions(true)
	}
	view := DefaultView(256, 256)
	view.Prepare()
	step := stepScale * bd.MinCellSize()
	px, py := view.Project(at)
	o, d := view.Ray(int(math.Round(px)), int(math.Round(py)))
	bmin, bmax := bd.Root.Bounds()
	t0, t1, hit := rayBox(o, d, bmin, bmax)
	if !hit {
		b.Fatal("ray misses the block")
	}
	if t0 < 0 {
		t0 = 0
	}
	s := &sampler{}
	s.reset(bd)
	return rr, s, o, d, t0, t1, step
}

var sinkAlpha float32

// sinkRay keeps castRay's opacity alive in the benchmarks and gates.
var sinkRay float64

// domainCentre is where the central ray of the benchmarks aims.
var domainCentre = Vec3{0.5, 0.5, 0.5}

func benchCastRay(b *testing.B, lighting bool, field string, at Vec3) {
	rr, s, o, d, t0, t1, step := benchRaySetup(b, lighting, field, at)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, sinkRay = rr.castRay(s, o, d, t0, t1, step)
	}
}

// BenchmarkCastRay reports ns per full ray integration (and allocs/op,
// which must be zero) through a level-4 block at the default step.
func BenchmarkCastRay(b *testing.B) { benchCastRay(b, false, "dense", domainCentre) }

// BenchmarkCastRayLit is BenchmarkCastRay with gradient Phong lighting.
func BenchmarkCastRayLit(b *testing.B) { benchCastRay(b, true, "dense", domainCentre) }

// BenchmarkCastRaySparse is BenchmarkCastRay through the sparse field,
// where most of the ray is leapt.
func BenchmarkCastRaySparse(b *testing.B) { benchCastRay(b, false, "sparse", domainCentre) }

// BenchmarkCastRaySparseLit is BenchmarkCastRaySparse with lighting.
func BenchmarkCastRaySparseLit(b *testing.B) { benchCastRay(b, true, "sparse", domainCentre) }

// BenchmarkCastRows ray-casts every row of a level-4 block of the dense
// field at 256², the shape the workloads run — tens of thousands of rays,
// one sampler carried across the rows — unlit and lit, and reports
// ns/sample besides ns/op. The samples are those the reference loop
// locates (castRowsReference), which on this dense field, with no empty
// cell and the whole block occupied, are exactly the samples the kernel
// evaluates; lighting does not change where a ray terminates.
func BenchmarkCastRows(b *testing.B) {
	m := uniformMesh(4)
	bd, err := ExtractBlockData(m, waveField(m), m.Tree.Blocks(0)[0], 4)
	if err != nil {
		b.Fatal(err)
	}
	view := DefaultView(256, 256)
	view.Prepare()
	for _, lit := range []bool{false, true} {
		b.Run(map[bool]string{false: "unlit", true: "lit"}[lit], func(b *testing.B) {
			rr := NewRenderer()
			rr.Lighting = lit
			rr.Prepare()
			frag, g, ok := rr.projectBlockWith(bd, &view, nil)
			if !ok {
				b.Fatal("block skipped")
			}
			samples := 0
			rr.castRowsReference(bd, &view, g.step, &samples)
			var s sampler
			s.reset(bd)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr.castRows(bd, &view, frag, g, g.y0, g.y1, &s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(samples), "ns/sample")
		})
	}
}

// clippedRays aim at the surface-layer block's occupied box ([0.25, 0.75) in
// x and y, [0.25, 0.375) in z): the first ray passes the box by and ends on
// its first sample, the second cuts a corner of it, the third crosses its
// middle.
var clippedRays = []struct {
	name string
	at   Vec3
}{
	{"miss", Vec3{0.1, 0.1, 0.9}},
	{"graze", Vec3{0.26, 0.26, 0.26}},
	{"cross", Vec3{0.5, 0.5, 0.3125}},
}

// BenchmarkCastRayClipped is BenchmarkCastRayLit through the surface layer,
// where the ray is clipped to the occupied box.
func BenchmarkCastRayClipped(b *testing.B) {
	for _, r := range clippedRays {
		b.Run(r.name, func(b *testing.B) { benchCastRay(b, true, "surface", r.at) })
	}
}

// BenchmarkBuildEmptyRegions measures the per-frame, per-block table build
// (which replaced the MaxValue scan of every projection) over a 4096-cell
// block: the dense field has no empty cell, the sparse one is mostly
// regions.
func BenchmarkBuildEmptyRegions(b *testing.B) {
	m := uniformMesh(4)
	for _, tc := range []struct {
		name string
		f    []float32
	}{{"dense", waveField(m)}, {"sparse", centeredBall(m)}} {
		bd, err := ExtractBlockData(m, tc.f, m.Tree.Blocks(0)[0], 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkAlpha = bd.buildEmptyRegions(true)
			}
		})
	}
}

// BenchmarkRenderBlock measures one full block render (projection, tile
// dispatch, casting) at the renderer's default worker count.
func BenchmarkRenderBlock(b *testing.B) {
	m := uniformMesh(4)
	f := waveField(m)
	bd, err := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 4)
	if err != nil {
		b.Fatal(err)
	}
	rr := NewRenderer()
	view := DefaultView(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frag := rr.RenderBlock(bd, &view); frag == nil {
			b.Fatal("no fragment")
		}
	}
}

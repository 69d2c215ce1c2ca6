package render

import (
	"testing"
)

// benchRaySetup prepares a block and one central ray through it. The
// dense field (waveField) has no empty cell, so its ray never leaps and
// pays only the per-sample branch; the sparse one (centeredBall) is zero
// outside a ball the ray crosses, with the empty-region table built as a
// projection would.
func benchRaySetup(b testing.TB, lighting, sparse bool) (*Renderer, *sampler, Vec3, Vec3, float64, float64, float64) {
	b.Helper()
	m := uniformMesh(4)
	f := waveField(m)
	if sparse {
		f = centeredBall(m)
	}
	bd, err := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 4)
	if err != nil {
		b.Fatal(err)
	}
	rr := NewRenderer()
	rr.Lighting = lighting
	rr.Prepare()
	if sparse {
		bd.buildEmptyRegions(true)
	}
	view := DefaultView(256, 256)
	view.Prepare()
	step := rr.StepScale * bd.MinCellSize()
	o, d := view.Ray(128, 128)
	bmin, bmax := bd.Root.Bounds()
	t0, t1, hit := rayBox(o, d, bmin, bmax)
	if !hit {
		b.Fatal("central ray misses the block")
	}
	if t0 < 0 {
		t0 = 0
	}
	s := &sampler{}
	s.reset(bd)
	return rr, s, o, d, t0, t1, step
}

var sinkAlpha float32

func benchCastRay(b *testing.B, lighting, sparse bool) {
	rr, s, o, d, t0, t1, step := benchRaySetup(b, lighting, sparse)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, sinkAlpha = rr.castRay(s, o, d, t0, t1, step)
	}
}

// BenchmarkCastRay reports ns per full ray integration (and allocs/op,
// which must be zero) through a level-4 block at the default step.
func BenchmarkCastRay(b *testing.B) { benchCastRay(b, false, false) }

// BenchmarkCastRayLit is BenchmarkCastRay with gradient Phong lighting.
func BenchmarkCastRayLit(b *testing.B) { benchCastRay(b, true, false) }

// BenchmarkCastRaySparse is BenchmarkCastRay through the sparse field,
// where most of the ray is leapt.
func BenchmarkCastRaySparse(b *testing.B) { benchCastRay(b, false, true) }

// BenchmarkCastRaySparseLit is BenchmarkCastRaySparse with lighting.
func BenchmarkCastRaySparseLit(b *testing.B) { benchCastRay(b, true, true) }

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

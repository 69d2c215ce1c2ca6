package render

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/img"
	"repro/internal/mesh"
	wpool "repro/internal/workers"
)

// waveField is a smooth non-trivial field covering the full TF range.
func waveField(m *mesh.Mesh) []float32 {
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		f[i] = float32(0.5 + 0.5*math.Sin(5*p[0])*math.Cos(4*p[1])*(1-p[2]))
	}
	return f
}

// workerCounts returns {1, 2, NumCPU} deduplicated.
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// TestRenderParallelMatchesSerial is the parity guarantee of the parallel
// engine: for every worker count, lighting mode and early-termination
// setting, RenderParallelWith must reproduce RenderSerial pixel-exactly
// (tolerance 0 — the parallel path runs the identical arithmetic).
func TestRenderParallelMatchesSerial(t *testing.T) {
	m := uniformMesh(3)
	f := waveField(m)
	cases := []struct {
		name     string
		lighting bool
		early    float64
	}{
		{"plain", false, 0.99},
		{"lighting", true, 0.99},
		{"early-termination", false, 0.25},
		{"lit-early-termination", true, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := NewRenderer()
			rr.Lighting = tc.lighting
			rr.EarlyTermination = tc.early
			vs := DefaultView(56, 56)
			want, err := RenderSerial(rr, m, f, 1, 3, &vs)
			if err != nil {
				t.Fatal(err)
			}
			var visible int
			for i := 3; i < len(want.Pix); i += 4 {
				if want.Pix[i] > 0 {
					visible++
				}
			}
			if visible == 0 {
				t.Fatal("reference image empty; parity test is vacuous")
			}
			for _, k := range workerCounts() {
				vp := DefaultView(56, 56)
				got, err := RenderParallelWith(rr, m, f, 1, 3, &vp, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := img.MaxAbsDiff(want, got); d != 0 {
					t.Errorf("workers=%d: max abs diff %g, want pixel-exact", k, d)
				}
			}
		})
	}
}

// TestRenderParallelNilScratchResultsOwned pins the "a nil-scratch result
// is the caller's" contract, which rests on the private scratch being
// dropped on return: two consecutive nil-scratch frames must not share
// pixel storage, and the first must survive the second.
func TestRenderParallelNilScratchResultsOwned(t *testing.T) {
	m := uniformMesh(3)
	rr := NewRenderer()
	va, vb := DefaultView(48, 48), DefaultView(48, 48)
	a, err := RenderParallelWith(rr, m, waveField(m), 1, 3, &va, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep := a.Clone()
	b, err := RenderParallelWith(rr, m, constField(m, 0.9), 1, 3, &vb, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || &a.Pix[0] == &b.Pix[0] {
		t.Fatal("consecutive nil-scratch frames alias each other")
	}
	if img.MaxAbsDiff(a, b) == 0 {
		t.Fatal("the two fields render identically; the survival check is vacuous")
	}
	if d := img.MaxAbsDiff(keep, a); d != 0 {
		t.Fatalf("first nil-scratch frame changed under the second (max abs %g)", d)
	}
}

// TestRenderParallelPooledMatchesSerial extends the parity guarantee to
// the persistent worker pool: dispatching the extraction/cast/composite
// fan-outs on an ExtractScratch.Pool must reproduce RenderSerial
// pixel-exactly (tolerance 0), across repeated frames on the same pool.
func TestRenderParallelPooledMatchesSerial(t *testing.T) {
	m := uniformMesh(3)
	f := waveField(m)
	rr := NewRenderer()
	vs := DefaultView(56, 56)
	want, err := RenderSerial(rr, m, f, 1, 3, &vs)
	if err != nil {
		t.Fatal(err)
	}
	var scratch ExtractScratch
	scratch.Pool = wpool.New(3)
	defer scratch.Pool.Close()
	for frame := 0; frame < 3; frame++ {
		vp := DefaultView(56, 56)
		got, err := RenderParallelWith(rr, m, f, 1, 3, &vp, 3, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if d := img.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("frame %d: pooled render differs from serial (max abs %g)", frame, d)
		}
	}
}

func TestRenderParallelPropagatesError(t *testing.T) {
	m := uniformMesh(2)
	short := make([]float32, 1) // too short for the node count
	v := DefaultView(16, 16)
	if _, err := RenderParallelWith(NewRenderer(), m, short, 1, 2, &v, 4, nil); err == nil {
		t.Fatal("extraction error swallowed by the worker pool")
	}
}

// TestRenderBlockTileParallelMatchesSerial checks the in-block scanline
// band splitting against the Workers: 1 block renderer.
func TestRenderBlockTileParallelMatchesSerial(t *testing.T) {
	m := uniformMesh(3)
	f := waveField(m)
	bd, err := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewRenderer()
	serial.Workers = 1
	vs := DefaultView(96, 96)
	want := serial.RenderBlock(bd, &vs)
	if want == nil {
		t.Fatal("no reference fragment")
	}
	par := NewRenderer()
	par.Workers = 4
	vp := DefaultView(96, 96)
	got := par.RenderBlock(bd, &vp)
	if got == nil {
		t.Fatal("no parallel fragment")
	}
	if got.X0 != want.X0 || got.Y0 != want.Y0 {
		t.Fatalf("fragment origin %d,%d vs %d,%d", got.X0, got.Y0, want.X0, want.Y0)
	}
	if d := img.MaxAbsDiff(want.Img, got.Img); d != 0 {
		t.Errorf("tile-parallel block differs: max abs diff %g", d)
	}
}

// TestCompositeFragmentsStripParallel checks the strip compositor against
// the serial order for overlapping fragments.
func TestCompositeFragmentsStripParallel(t *testing.T) {
	const w, h = 200, 200
	var frags []*Fragment
	for i := 0; i < 7; i++ {
		f := &Fragment{X0: i * 13, Y0: i * 9, VisRank: 6 - i, Img: img.New(90, 120)}
		for p := 0; p < len(f.Img.Pix); p += 4 {
			a := float32((p/4+i)%97) / 97
			f.Img.Pix[p] = 0.5 * a
			f.Img.Pix[p+3] = a
		}
		frags = append(frags, f)
	}
	want := compositeFragmentsWith(w, h, frags, 1, nil)
	for _, k := range []int{0, 2, 3, 8} {
		got := compositeFragmentsWith(w, h, frags, k, nil)
		if d := img.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("workers=%d: strip compositing differs: %g", k, d)
		}
	}
}

// TestTFLUTMatchesLookup bounds the baked-table error against the exact
// piecewise-linear evaluation and checks the exact endpoints.
func TestTFLUTMatchesLookup(t *testing.T) {
	tf := SeismicTF()
	lut := tf.BuildLUT(tfLUTSize)
	if _, _, _, d := lut.Lookup(0); d != 0 {
		t.Error("LUT entry 0 not transparent")
	}
	r1, _, _, d1 := tf.Lookup(1)
	lr, _, _, ld := lut.Lookup(2) // clamped above range
	if lr != r1 || ld != d1 {
		t.Error("LUT clamp differs from Lookup clamp")
	}
	for i := 0; i <= 10000; i++ {
		s := float64(i) / 10000
		_, _, _, want := tf.Lookup(s)
		_, _, _, got := lut.Lookup(s)
		if math.Abs(got-want) > 45.0/tfLUTSize { // max slope * bin width
			t.Fatalf("LUT density at %v: %v vs %v", s, got, want)
		}
	}
}

// TestRendererKeepsExplicitZeroAmbient is the defaults() regression test:
// a NewRenderer-built renderer must keep an explicitly set Ambient of 0,
// while a zero-value literal still gets the default.
func TestRendererKeepsExplicitZeroAmbient(t *testing.T) {
	rr := NewRenderer()
	rr.Ambient = 0
	rr.Lighting = true
	m := uniformMesh(2)
	f := constField(m, 0.9)
	bd, _ := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 2)
	view := DefaultView(24, 24)
	if frag := rr.RenderBlock(bd, &view); frag == nil {
		t.Fatal("no fragment")
	}
	if rr.Ambient != 0 {
		t.Errorf("explicit Ambient=0 overwritten to %v", rr.Ambient)
	}
	zv := &Renderer{}
	zv.defaults()
	if zv.Ambient != 0.35 {
		t.Errorf("zero-value renderer Ambient = %v, want default 0.35", zv.Ambient)
	}
}

// TestRenderParallelWorkerSweepSmoke exercises odd worker counts (more
// workers than blocks, more than rows) for crash/race coverage.
func TestRenderParallelWorkerSweepSmoke(t *testing.T) {
	m := uniformMesh(2)
	f := waveField(m)
	vs := DefaultView(20, 20)
	want, err := RenderSerial(NewRenderer(), m, f, 1, 2, &vs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 17, 64} {
		v := DefaultView(20, 20)
		got, err := RenderParallelWith(NewRenderer(), m, f, 1, 2, &v, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := img.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("workers=%d differs: %g", k, d)
		}
	}
}

func ExampleRenderParallelWith() {
	m := uniformMesh(2)
	f := constField(m, 0.8)
	view := DefaultView(32, 32)
	im, _ := RenderParallelWith(NewRenderer(), m, f, 1, 2, &view, 0, nil)
	fmt.Println(im.W, im.H)
	// Output: 32 32
}

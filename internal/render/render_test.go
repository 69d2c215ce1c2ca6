package render

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/octree"
)

func TestVecHelpers(t *testing.T) {
	if cross(Vec3{1, 0, 0}, Vec3{0, 1, 0}) != (Vec3{0, 0, 1}) {
		t.Error("cross broken")
	}
	n := norm(Vec3{3, 0, 4})
	if math.Abs(n[0]-0.6) > 1e-12 || math.Abs(n[2]-0.8) > 1e-12 {
		t.Errorf("norm = %v", n)
	}
	if norm(Vec3{0, 0, 0}) != (Vec3{0, 0, 1}) {
		t.Error("zero norm fallback")
	}
}

func TestRayBox(t *testing.T) {
	o := Vec3{0.5, 0.5, -1}
	d := Vec3{0, 0, 1}
	t0, t1, hit := rayBox(o, d, Vec3{0, 0, 0}, Vec3{1, 1, 1})
	if !hit || math.Abs(t0-1) > 1e-12 || math.Abs(t1-2) > 1e-12 {
		t.Errorf("t0=%v t1=%v hit=%v", t0, t1, hit)
	}
	if _, _, hit := rayBox(Vec3{2, 2, -1}, d, Vec3{0, 0, 0}, Vec3{1, 1, 1}); hit {
		t.Error("miss reported as hit")
	}
	// Parallel ray inside slab.
	_, _, hit = rayBox(Vec3{0.5, 0.5, 0.5}, Vec3{1, 0, 0}, Vec3{0, 0, 0}, Vec3{1, 1, 1})
	if !hit {
		t.Error("axis-parallel interior ray missed")
	}
}

func TestProjectRayInverse(t *testing.T) {
	v := View{Dir: Vec3{0.3, -0.2, 0.9}, Up: Vec3{0, 1, 0}, Width: 64, Height: 48}
	o, _ := v.Ray(10, 20)
	x, y := v.Project(o)
	if math.Abs(x-10) > 1e-9 || math.Abs(y-20) > 1e-9 {
		t.Errorf("Project(Ray(10,20)) = %v,%v", x, y)
	}
}

func TestTFLookup(t *testing.T) {
	tf := NewTransferFunction([]TFPoint{
		{S: 0, R: 0, G: 0, B: 0, Density: 0},
		{S: 1, R: 1, G: 0.5, B: 0, Density: 10},
	})
	r, g, _, d := tf.Lookup(0.5)
	if math.Abs(r-0.5) > 1e-12 || math.Abs(g-0.25) > 1e-12 || math.Abs(d-5) > 1e-12 {
		t.Errorf("midpoint lookup = %v %v %v", r, g, d)
	}
	// Clamping.
	r, _, _, _ = tf.Lookup(2)
	if r != 1 {
		t.Errorf("above-range lookup r=%v", r)
	}
	r, _, _, d = tf.Lookup(-1)
	if r != 0 || d != 0 {
		t.Errorf("below-range lookup r=%v d=%v", r, d)
	}
}

func TestTFTable(t *testing.T) {
	tab := SeismicTF().BuildLUT(256).tab
	if len(tab) != 256 {
		t.Fatalf("table len = %d", len(tab))
	}
	if tab[0][3] != 0 {
		t.Error("zero entry should be transparent")
	}
	if tab[255][3] <= tab[128][3] {
		t.Error("density not increasing toward peak")
	}
}

// uniformMesh builds a level-`l` regular mesh with a constant field value.
func uniformMesh(l uint8) *mesh.Mesh {
	tree := octree.Build(l, func(c octree.Cell) bool { return true })
	return mesh.FromTree(tree, 1000, nil)
}

func constField(m *mesh.Mesh, v float32) []float32 {
	f := make([]float32, m.NumNodes())
	for i := range f {
		f[i] = v
	}
	return f
}

// sampleAt interpolates bd's field at unit point p the way a ray's sample
// does; ok is false outside the block.
func sampleAt(bd *BlockData, p Vec3) (v float64, ok bool) {
	var s sampler
	s.reset(bd)
	if !s.find(p[0], p[1], p[2]) {
		return 0, false
	}
	return s.sample(p[0], p[1], p[2]), true
}

func TestSampleConstantField(t *testing.T) {
	m := uniformMesh(2)
	f := constField(m, 0.75)
	blocks := m.Tree.Blocks(1)
	bd, err := ExtractBlockData(m, f, blocks[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	min, max := bd.Root.Bounds()
	p := Vec3{(min[0] + max[0]) / 2, (min[1] + max[1]) / 2, (min[2] + max[2]) / 2}
	v, ok := sampleAt(bd, p)
	if !ok || math.Abs(v-0.75) > 1e-6 {
		t.Errorf("sample = %v, ok=%v", v, ok)
	}
	// Outside the block.
	_, ok = sampleAt(bd, Vec3{0.99, 0.99, 0.99})
	if ok {
		t.Error("sample outside block succeeded")
	}
}

func TestSampleLinearFieldExact(t *testing.T) {
	// Trilinear interpolation reproduces a linear field exactly.
	m := uniformMesh(3)
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		f[i] = float32(0.2*p[0] + 0.5*p[1] + 0.3*p[2])
	}
	blocks := m.Tree.Blocks(0)
	bd, _ := ExtractBlockData(m, f, blocks[0], 3)
	pts := []Vec3{{0.1, 0.2, 0.3}, {0.55, 0.71, 0.13}, {0.9, 0.9, 0.9}}
	for _, p := range pts {
		v, ok := sampleAt(bd, p)
		want := 0.2*p[0] + 0.5*p[1] + 0.3*p[2]
		if !ok || math.Abs(v-want) > 1e-5 {
			t.Errorf("sample(%v) = %v, want %v", p, v, want)
		}
	}
}

func TestGradientOfLinearField(t *testing.T) {
	m := uniformMesh(3)
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		f[i] = float32(0.2*p[0] + 0.5*p[1] + 0.3*p[2])
	}
	bd, _ := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 3)
	p := Vec3{0.4, 0.5, 0.6}
	var s sampler
	s.reset(bd)
	if !s.find(p[0], p[1], p[2]) {
		t.Fatal("sample missed inside block")
	}
	var g Vec3
	g[0], g[1], g[2] = s.gradient(p[0], p[1], p[2])
	want := Vec3{0.2, 0.5, 0.3}
	for i := 0; i < 3; i++ {
		if math.Abs(g[i]-want[i]) > 1e-4 {
			t.Errorf("gradient[%d] = %v, want %v", i, g[i], want[i])
		}
	}
}

func TestExtractAdaptiveLevelReducesCells(t *testing.T) {
	m := uniformMesh(4) // 4096 leaves
	f := constField(m, 0.5)
	blocks := m.Tree.Blocks(1)
	full, err := ExtractBlockData(m, f, blocks[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := ExtractBlockData(m, f, blocks[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumCells() != 512 { // one level-1 block of a level-4 tree: 8^3
		t.Errorf("full cells = %d, want 512", full.NumCells())
	}
	if coarse.NumCells() != 8 { // at level 2 inside a level-1 block
		t.Errorf("coarse cells = %d, want 8", coarse.NumCells())
	}
}

func TestBlockNodeIDsShrinkWithLevel(t *testing.T) {
	m := uniformMesh(4)
	blocks := m.Tree.Blocks(1)
	full := BlockNodeIDs(m, blocks[0], 4)
	coarse := BlockNodeIDs(m, blocks[0], 2)
	if len(coarse) >= len(full) {
		t.Errorf("adaptive fetch set not smaller: %d vs %d", len(coarse), len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i-1] >= full[i] {
			t.Fatal("node ids not sorted")
		}
	}
}

// TestBlockCornersMatchExtraction: on a graded mesh at every level,
// BlockTables builds the template ExtractBlockData builds (no values) and
// names each cell's corners as CornerIDs does (a leaf's through its
// element), and CornerNodes' node set is their sorted set, its local table
// indexing each corner in it, as BlockNodeIDs returns it.
func TestBlockCornersMatchExtraction(t *testing.T) {
	m := gradedRenderMesh(t)
	seen, pos := make([]uint64, (m.NumNodes()+63)/64), make([]int32, m.NumNodes())
	for level := uint8(0); level <= m.Tree.MaxDepth(); level++ {
		for _, b := range m.Tree.Blocks(1) {
			want, err := ExtractBlockData(m, make([]float32, m.NumNodes()), b, level)
			if err != nil {
				t.Fatal(err)
			}
			want.Vals = nil
			bd, corners, err := BlockTables(m, b, level, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bd, want) {
				t.Fatalf("level %d block %v: template differs from ExtractBlockData's", level, b.Root)
			}
			if len(corners) != len(bd.Cells) {
				t.Fatalf("level %d block %v: %d corner sets for %d cells", level, b.Root, len(corners), len(bd.Cells))
			}
			var all []int32
			for i, cell := range bd.Cells {
				if want := m.CornerIDs(cell); corners[i] != want {
					t.Fatalf("level %d cell %v: corners %v, want %v", level, cell, corners[i], want)
				}
				all = append(all, corners[i][:]...)
			}
			slices.Sort(all)
			ids, local := CornerNodes(corners, seen, pos)
			if !slices.Equal(ids, slices.Compact(all)) || !slices.Equal(BlockNodeIDs(m, b, level), ids) {
				t.Fatalf("level %d block %v: node set %v, want %v", level, b.Root, ids, all)
			}
			for i := range corners {
				for k, id := range corners[i] {
					if ids[local[i][k]] != id {
						t.Fatalf("level %d cell %v: local corner %d names node %d, want %d", level, bd.Cells[i], k, ids[local[i][k]], id)
					}
				}
			}
		}
	}
}

func TestRenderBlockProducesPixels(t *testing.T) {
	m := uniformMesh(3)
	f := constField(m, 0.9) // strongly visible
	bd, _ := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 3)
	view := DefaultView(64, 64)
	r := NewRenderer()
	frag := r.RenderBlock(bd, &view)
	if frag == nil {
		t.Fatal("no fragment")
	}
	var litPixels int
	for i := 3; i < len(frag.Img.Pix); i += 4 {
		if frag.Img.Pix[i] > 0.1 {
			litPixels++
		}
	}
	if litPixels < 100 {
		t.Errorf("only %d lit pixels", litPixels)
	}
}

func TestRenderZeroFieldIsTransparent(t *testing.T) {
	m := uniformMesh(2)
	f := constField(m, 0)
	view := DefaultView(32, 32)
	out, err := RenderSerial(NewRenderer(), m, f, 1, 2, &view)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < len(out.Pix); i += 4 {
		if out.Pix[i] != 0 {
			t.Fatal("zero field produced visible pixels")
		}
	}
}

func TestSerialRenderBlockLevelInvariance(t *testing.T) {
	// Rendering with different block decompositions must give the same
	// image (compositing order is handled by visibility ranks).
	m := uniformMesh(3)
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		f[i] = float32(p[0] * p[1] * (1 - p[2]))
	}
	view := View{Dir: Vec3{0.3, 0.4, 0.85}, Up: Vec3{0, -1, 0}, Width: 48, Height: 48}
	r := NewRenderer()
	a, err := RenderSerial(r, m, f, 0, 3, &view)
	if err != nil {
		t.Fatal(err)
	}
	view2 := view
	b, err := RenderSerial(r, m, f, 2, 3, &view2)
	if err != nil {
		t.Fatal(err)
	}
	// Blockwise marching restarts the ray at block boundaries, so sampling
	// phases differ slightly; the images must still agree closely.
	if d := img.RMSE(a, b); d > 0.02 {
		t.Errorf("block-level decomposition changed image: RMSE=%v", d)
	}
}

func TestAdaptiveRenderingFasterAndSimilar(t *testing.T) {
	m := uniformMesh(4)
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		f[i] = float32(0.5 + 0.5*math.Sin(6*p[0])*math.Cos(6*p[1])*(1-p[2]))
	}
	view := DefaultView(64, 64)
	r := NewRenderer()
	full, err := RenderSerial(r, m, f, 1, 4, &view)
	if err != nil {
		t.Fatal(err)
	}
	v2 := view
	coarse, err := RenderSerial(r, m, f, 1, 2, &v2)
	if err != nil {
		t.Fatal(err)
	}
	// Same overall structure: images correlate strongly.
	if d := img.RMSE(full, coarse); d > 0.15 {
		t.Errorf("adaptive level 2 image too different: RMSE=%v", d)
	}
}

func TestLightingChangesImage(t *testing.T) {
	m := uniformMesh(3)
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		f[i] = float32(p[0])
	}
	view := DefaultView(32, 32)
	r := NewRenderer()
	plain, _ := RenderSerial(r, m, f, 1, 3, &view)
	r2 := NewRenderer()
	r2.Lighting = true
	v2 := view
	lit, _ := RenderSerial(r2, m, f, 1, 3, &v2)
	if img.RMSE(plain, lit) == 0 {
		t.Error("lighting had no effect")
	}
}

func TestMagnitude(t *testing.T) {
	v := []float32{3, 0, 4, 0, 0, 0}
	mags := MagnitudeInto(nil, v)
	if len(mags) != 2 || math.Abs(float64(mags[0]-5)) > 1e-6 || mags[1] != 0 {
		t.Errorf("magnitudes = %v", mags)
	}
}

func TestEnhanceTemporal(t *testing.T) {
	cur := []float32{0.5, 0.2}
	prev := []float32{0.1, 0.2}
	out := EnhanceTemporalInto(nil, cur, prev, 2)
	if math.Abs(float64(out[0]-(0.5+2*0.4))) > 1e-6 {
		t.Errorf("enhanced[0] = %v", out[0])
	}
	if out[1] != 0.2 {
		t.Errorf("unchanged value was modified: %v", out[1])
	}
	// Ownership regression (PR 4): the no-enhancement cases must return a
	// copy, never cur itself — a caller mutating the result used to corrupt
	// the source field.
	for _, tc := range []struct {
		name string
		prev []float32
		gain float32
	}{{"nil-prev", nil, 2}, {"zero-gain", prev, 0}} {
		got := EnhanceTemporalInto(nil, cur, tc.prev, tc.gain)
		if &got[0] == &cur[0] {
			t.Errorf("%s: result aliases cur", tc.name)
		}
		if got[0] != cur[0] || got[1] != cur[1] {
			t.Errorf("%s: values changed without enhancement: %v", tc.name, got)
		}
		got[0] = 99
		if cur[0] == 99 {
			t.Errorf("%s: mutating the result corrupted cur", tc.name)
		}
	}
}

// TestIntoVariantsMatchAllocatingPaths pins the decode chain's reused-
// destination calls (too-small, oversized and dirty buffers, and the
// in-place dst-aliases-input form the fetch loop uses) bit-exactly to the
// nil-destination (allocating) calls.
func TestIntoVariantsMatchAllocatingPaths(t *testing.T) {
	vec := make([]float32, 3*257)
	for i := range vec {
		vec[i] = float32(math.Sin(float64(i)*0.7)) * float32(i%13)
	}
	mag := MagnitudeInto(nil, vec)
	magInto := MagnitudeInto(make([]float32, 1), vec)
	prev := make([]float32, len(mag))
	for i := range prev {
		prev[i] = mag[i] * 0.8
	}
	checkF32 := func(name string, want, got []float32) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: len %d vs %d", name, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s[%d]: %v vs %v", name, i, want[i], got[i])
			}
		}
	}
	checkF32("magnitude", mag, magInto)
	enh := EnhanceTemporalInto(nil, mag, prev, 3)
	enhInPlace := append([]float32(nil), mag...)
	checkF32("enhance", enh, EnhanceTemporalInto(enhInPlace, enhInPlace, prev, 3))
	lo, hi := MinMax(mag)
	q := QuantizeInto(nil, enh, lo, hi)
	qInto := QuantizeInto(make([]uint8, 4096), enh, lo, hi)
	if len(q) != len(qInto) {
		t.Fatalf("quantize len %d vs %d", len(q), len(qInto))
	}
	for i := range q {
		if q[i] != qInto[i] {
			t.Fatalf("quantize[%d]: %d vs %d", i, q[i], qInto[i])
		}
	}
	// Degenerate range must clear a dirty reused buffer, not keep stale bytes.
	dirty := QuantizeInto([]uint8{7, 7, 7}, []float32{1, 2, 3}, 5, 5)
	for _, v := range dirty {
		if v != 0 {
			t.Fatalf("degenerate QuantizeInto left stale value %d", v)
		}
	}
	checkF32("dequantize", DequantizeInto(nil, q), DequantizeInto(make([]float32, 2), q))
}

func TestQuantizeRoundTrip(t *testing.T) {
	vals := []float32{0, 0.25, 0.5, 0.75, 1}
	q := QuantizeInto(nil, vals, 0, 1)
	d := DequantizeInto(nil, q)
	for i := range vals {
		if math.Abs(float64(d[i]-vals[i])) > 1.0/255 {
			t.Errorf("quantize roundtrip[%d]: %v -> %v", i, vals[i], d[i])
		}
	}
	if q[0] != 0 || q[4] != 255 {
		t.Errorf("range ends: %v", q)
	}
}

func TestQuantizeDegenerateRange(t *testing.T) {
	q := QuantizeInto(nil, []float32{1, 2, 3}, 5, 5)
	for _, v := range q {
		if v != 0 {
			t.Error("degenerate range should quantize to zero")
		}
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float32{3, -2, 7, 0})
	if lo != -2 || hi != 7 {
		t.Errorf("minmax = %v %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("empty minmax nonzero")
	}
}

func TestOrbitView(t *testing.T) {
	// Elevation 90 looks straight down (-z is up in screen terms: the view
	// direction is +z since z grows downward into the ground).
	v := OrbitView(64, 64, 0, 90)
	d := v.ViewDir()
	if math.Abs(d[2]-1) > 1e-9 {
		t.Errorf("top-down dir = %v", d)
	}
	// Azimuth rotates the horizontal component.
	v0 := OrbitView(64, 64, 0, 30)
	v90 := OrbitView(64, 64, 90, 30)
	d0, d90 := v0.ViewDir(), v90.ViewDir()
	if math.Abs(d0[2]-d90[2]) > 1e-9 {
		t.Error("elevation changed with azimuth")
	}
	dot2 := d0[0]*d90[0] + d0[1]*d90[1]
	if math.Abs(dot2) > 1e-9 {
		t.Errorf("90-degree azimuth not orthogonal in plane: %v", dot2)
	}
	// Rays through different pixels are parallel (orthographic).
	_, ra := v.Ray(0, 0)
	_, rb := v.Ray(63, 63)
	if ra != rb {
		t.Error("orthographic rays not parallel")
	}
}

func TestPerspectiveView(t *testing.T) {
	v := View{Dir: Vec3{0, 0, 1}, Up: Vec3{0, -1, 0}, Width: 64, Height: 64, FOVDeg: 40}
	// Rays through different pixels diverge (not parallel).
	_, ra := v.Ray(0, 32)
	_, rb := v.Ray(63, 32)
	if ra == rb {
		t.Fatal("perspective rays are parallel")
	}
	// All rays originate at the eye.
	oa, _ := v.Ray(0, 0)
	ob, _ := v.Ray(63, 63)
	if oa != ob {
		t.Fatal("perspective rays have different origins")
	}
	// Project inverts Ray for points on the image plane: walk a ray to the
	// plane (distance eyeDist along dir) and project back.
	for _, px := range [][2]int{{5, 9}, {32, 32}, {60, 2}} {
		o, d := v.Ray(px[0], px[1])
		// Point on the central plane: t such that dot(o+td-eye, dir)=eyeDist.
		tPlane := v.eyeDist / dot(d, v.ViewDir())
		p := add(o, scale(d, tPlane))
		x, y := v.Project(p)
		if math.Abs(x-float64(px[0])) > 1e-6 || math.Abs(y-float64(px[1])) > 1e-6 {
			t.Errorf("Project(Ray(%v)) = %v,%v", px, x, y)
		}
	}
}

func TestPerspectiveRenderWorks(t *testing.T) {
	m := uniformMesh(3)
	f := make([]float32, m.NumNodes())
	for i, g := range m.Nodes {
		p := g.Pos()
		f[i] = float32(p[0] * (1 - p[2]))
	}
	view := View{Dir: Vec3{0.3, 0.4, 0.85}, Up: Vec3{0, -1, 0}, Width: 48, Height: 48, FOVDeg: 35}
	im, err := RenderSerial(NewRenderer(), m, f, 1, 3, &view)
	if err != nil {
		t.Fatal(err)
	}
	var visible int
	for i := 3; i < len(im.Pix); i += 4 {
		if im.Pix[i] > 0.05 {
			visible++
		}
	}
	if visible < 50 {
		t.Errorf("perspective render nearly empty: %d visible pixels", visible)
	}
	// And differs from the orthographic image.
	ortho := view
	ortho.FOVDeg = 0
	ov, err := RenderSerial(NewRenderer(), m, f, 1, 3, &ortho)
	if err != nil {
		t.Fatal(err)
	}
	if img.RMSE(im, ov) == 0 {
		t.Error("perspective identical to orthographic")
	}
}

func TestTFPresets(t *testing.T) {
	for _, name := range []string{"seismic", "gray", "hot", "bogus"} {
		tf := TFByName(name)
		if tf == nil {
			t.Fatalf("nil TF for %q", name)
		}
		_, _, _, d := tf.Lookup(1)
		if d <= 0 {
			t.Errorf("%s: peak density %v", name, d)
		}
		_, _, _, d0 := tf.Lookup(0)
		if d0 != 0 {
			t.Errorf("%s: zero not transparent (%v)", name, d0)
		}
	}
}

func TestCloseUpExtent(t *testing.T) {
	// A smaller Extent zooms in: the same block projects to a larger rect.
	m := uniformMesh(2)
	f := constField(m, 0.8)
	wide := DefaultView(64, 64)
	zoom := DefaultView(64, 64)
	zoom.Extent = 0.5
	bd, _ := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 2)
	r := NewRenderer()
	fw := r.RenderBlock(bd, &wide)
	fz := r.RenderBlock(bd, &zoom)
	if fz == nil || fw == nil {
		t.Fatal("missing fragments")
	}
	if fz.Img.W*fz.Img.H <= fw.Img.W*fw.Img.H {
		t.Errorf("zoomed fragment not larger: %dx%d vs %dx%d", fz.Img.W, fz.Img.H, fw.Img.W, fw.Img.H)
	}
}

func TestEmptySpaceSkipping(t *testing.T) {
	m := uniformMesh(2)
	f := constField(m, 0) // fully transparent under the seismic TF
	bd, _ := ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 2)
	view := DefaultView(32, 32)
	if frag := NewRenderer().RenderBlock(bd, &view); frag != nil {
		t.Error("empty block produced a fragment")
	}
	if mx := bd.buildEmptyRegions(true); mx != 0 {
		t.Errorf("buildEmptyRegions max = %v", mx)
	}

	// A half-empty block renders, and its empty half is one region per
	// level-1 octant rather than per cell.
	for i, g := range m.Nodes {
		if g.Pos()[0] > 0.5 {
			f[i] = 0.8
		}
	}
	bd, _ = ExtractBlockData(m, f, m.Tree.Blocks(0)[0], 2)
	if frag := NewRenderer().RenderBlock(bd, &view); frag == nil {
		t.Fatal("half-empty block produced no fragment")
	}
	for i, c := range bd.Cells {
		want := uint8(notEmpty)
		if _, max := c.Bounds(); max[0] <= 0.5 {
			want = 1
		}
		if bd.region[i] != want {
			t.Errorf("half-empty block, cell %v: region level %d, want %d", c, bd.region[i], want)
		}
	}

	// Zeroing Vals in place — the pipeline's degraded-frame path — must
	// leave no stale table behind: the next projection sees one empty
	// region, the block itself, and skips it.
	clear(bd.Vals)
	if frag := NewRenderer().RenderBlock(bd, &view); frag != nil {
		t.Error("zeroed block produced a fragment")
	}
	for i, lvl := range bd.region {
		if lvl != bd.Root.Level {
			t.Errorf("zeroed block, cell %d: region level %d, want the block's %d", i, lvl, bd.Root.Level)
		}
	}
}

func TestTransparentBelow(t *testing.T) {
	tf := SeismicTF()
	if !tf.TransparentBelow(0) {
		t.Error("zero should be transparent")
	}
	if tf.TransparentBelow(0.5) {
		t.Error("mid-range should not be transparent")
	}
	// Non-monotone TF: opaque band in the middle only.
	band := NewTransferFunction([]TFPoint{
		{S: 0, Density: 0}, {S: 0.4, Density: 5}, {S: 0.6, Density: 0}, {S: 1, Density: 0},
	})
	if band.TransparentBelow(0.5) {
		t.Error("band TF: 0.5 crosses the opaque band")
	}
	if !band.TransparentBelow(0.0) {
		t.Error("band TF: 0 is transparent")
	}
	// Even though the max value itself is transparent, the range is not.
	if band.TransparentBelow(1.0) {
		t.Error("band TF: [0,1] contains the opaque band")
	}
}

// Ray is rowOffset + rowRay for one pixel, the form the camera tests and
// the frozen castRay oracles address rays in.
func (v *View) Ray(x, y int) (origin, dir Vec3) {
	v.prepare()
	return v.rowRay(v.rowOffset(y), x)
}

package quadtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build([]Sample{{X: 2, Y: 0}}, 4); err == nil {
		t.Error("out-of-range sample accepted")
	}
	if _, err := Build([]Sample{{X: math.NaN(), Y: 0}}, 4); err == nil {
		t.Error("NaN sample accepted")
	}
}

func TestNearestExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]Sample, 300)
	for i := range samples {
		samples[i] = Sample{X: rng.Float64(), Y: rng.Float64(), VX: rng.Float64(), VY: rng.Float64()}
	}
	tr, err := Build(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		x, y := rng.Float64(), rng.Float64()
		got := tr.Nearest(x, y)
		best, bd := -1, math.Inf(1)
		for i, s := range samples {
			d := (s.X-x)*(s.X-x) + (s.Y-y)*(s.Y-y)
			if d < bd {
				bd, best = d, i
			}
		}
		if got != best {
			gs := samples[got]
			gd := (gs.X-x)*(gs.X-x) + (gs.Y-y)*(gs.Y-y)
			if math.Abs(gd-bd) > 1e-15 { // ties are acceptable
				t.Fatalf("Nearest(%v,%v) = %d (d=%v), want %d (d=%v)", x, y, got, gd, best, bd)
			}
		}
	}
}

func TestNearestEmpty(t *testing.T) {
	tr, _ := Build(nil, 4)
	if tr.Nearest(0.5, 0.5) != -1 {
		t.Error("empty tree returned a sample")
	}
}

func TestNearestQuick(t *testing.T) {
	f := func(seed int64, qx, qy float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		samples := make([]Sample, n)
		for i := range samples {
			samples[i] = Sample{X: rng.Float64(), Y: rng.Float64()}
		}
		tr, err := Build(samples, 2)
		if err != nil {
			return false
		}
		x := math.Abs(math.Mod(qx, 1))
		y := math.Abs(math.Mod(qy, 1))
		if math.IsNaN(x) || math.IsNaN(y) {
			x, y = 0.5, 0.5
		}
		got := tr.Nearest(x, y)
		bd := math.Inf(1)
		for _, s := range samples {
			d := (s.X-x)*(s.X-x) + (s.Y-y)*(s.Y-y)
			if d < bd {
				bd = d
			}
		}
		gs := samples[got]
		gd := (gs.X-x)*(gs.X-x) + (gs.Y-y)*(gs.Y-y)
		return gd <= bd+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDuplicatePointsDoNotRecurseForever(t *testing.T) {
	samples := make([]Sample, 50)
	for i := range samples {
		samples[i] = Sample{X: 0.25, Y: 0.75, VX: float64(i)}
	}
	tr, err := Build(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nearest(0.25, 0.75) < 0 {
		t.Error("nearest failed on duplicates")
	}
}

func TestResampleConstantField(t *testing.T) {
	var samples []Sample
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			samples = append(samples, Sample{X: float64(i) / 9, Y: float64(j) / 9, VX: 2, VY: -1})
		}
	}
	tr, _ := Build(samples, 4)
	g, err := tr.Resample(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.VX {
		if g.VX[i] != 2 || g.VY[i] != -1 {
			t.Fatalf("grid[%d] = (%v,%v)", i, g.VX[i], g.VY[i])
		}
	}
	vx, vy := g.At(0.33, 0.77)
	if vx != 2 || vy != -1 {
		t.Errorf("At = (%v,%v)", vx, vy)
	}
}

func TestResampleRecoversSmoothField(t *testing.T) {
	// Dense scattered samples of a smooth field: the resampled grid should
	// approximate it.
	rng := rand.New(rand.NewSource(8))
	var samples []Sample
	f := func(x, y float64) (float64, float64) { return math.Sin(3 * y), math.Cos(3 * x) }
	for i := 0; i < 3000; i++ {
		x, y := rng.Float64(), rng.Float64()
		vx, vy := f(x, y)
		samples = append(samples, Sample{X: x, Y: y, VX: vx, VY: vy})
	}
	tr, _ := Build(samples, 8)
	g, err := tr.Resample(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	n := 0
	for j := 0; j < 24; j++ {
		for i := 0; i < 24; i++ {
			x, y := float64(i)/23, float64(j)/23
			wx, wy := f(x, y)
			errSum += math.Hypot(g.VX[j*24+i]-wx, g.VY[j*24+i]-wy)
			n++
		}
	}
	if avg := errSum / float64(n); avg > 0.15 {
		t.Errorf("average resample error %v too high", avg)
	}
}

func TestResampleErrors(t *testing.T) {
	tr, _ := Build([]Sample{{X: 0.5, Y: 0.5}}, 4)
	if _, err := tr.Resample(1, 8); err == nil {
		t.Error("degenerate grid accepted")
	}
	empty, _ := Build(nil, 4)
	if _, err := empty.Resample(8, 8); err == nil {
		t.Error("empty tree resample succeeded")
	}
}

func TestGridAtClamps(t *testing.T) {
	g := &Grid{W: 2, H: 2, VX: []float64{1, 2, 3, 4}, VY: make([]float64, 4)}
	vx, _ := g.At(-0.5, 0)
	if vx != 1 {
		t.Errorf("clamped At = %v", vx)
	}
	vx, _ = g.At(1.5, 1.5)
	if vx != 4 {
		t.Errorf("clamped At = %v", vx)
	}
}

// --- PR 3: rebuild / value-update / resample-into reuse ---------------------

func randSamples(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{X: rng.Float64(), Y: rng.Float64(), VX: rng.NormFloat64(), VY: rng.NormFloat64()}
	}
	return out
}

// TestRebuildMatchesFreshBuild: re-inserting a different sample set through
// the arena must answer every query exactly like a freshly built tree, and
// resampled grids must be identical — at the size the tree resampled
// before the rebuild (whose remembered grid-point map is now stale and must
// have been dropped), at another size, and back; a value update in between
// must keep the map and still resample like a fresh build.
func TestRebuildMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tree, err := Build(randSamples(rng, 200), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Resample(20, 20); err != nil { // leave a map behind for gen 0 to invalidate
		t.Fatal(err)
	}
	for gen := 0; gen < 4; gen++ {
		samples := randSamples(rng, 120+60*gen)
		if err := tree.Rebuild(samples); err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(append([]Sample(nil), samples...), 4)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 300; q++ {
			x, y := rng.Float64(), rng.Float64()
			if got, want := tree.Nearest(x, y), fresh.Nearest(x, y); got != want {
				t.Fatalf("gen %d: Nearest(%v,%v) = %d, fresh build says %d", gen, x, y, got, want)
			}
		}
		resampleBoth := func(what string, w, h int) {
			t.Helper()
			g1, err := tree.Resample(w, h)
			if err != nil {
				t.Fatal(err)
			}
			g2, err := fresh.Resample(w, h)
			if err != nil {
				t.Fatal(err)
			}
			sameGridBits(t, fmt.Sprintf("gen %d %s %dx%d", gen, what, w, h), g1, g2)
		}
		resampleBoth("after rebuild", 20, 20)
		resampleBoth("resized", 13, 9)
		if tree.nearW != 13 || tree.nearH != 9 {
			t.Fatalf("gen %d: map is for %dx%d after a 13x9 resample", gen, tree.nearW, tree.nearH)
		}
		resampleBoth("resized back", 20, 20)
		// New values on the same positions, to both trees: the map stays
		// (same backing array, same size) and the gather reads the new values.
		mapWas := &tree.near[0]
		for i := range samples {
			samples[i].VX, samples[i].VY = rng.NormFloat64(), rng.NormFloat64()
		}
		if err := tree.Rebuild(samples); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Rebuild(append([]Sample(nil), samples...)); err != nil {
			t.Fatal(err)
		}
		if tree.nearW != 20 || tree.nearH != 20 || &tree.near[0] != mapWas {
			t.Fatalf("gen %d: a value update dropped the resample map", gen)
		}
		if fresh.nearW != 20 || fresh.nearH != 20 {
			t.Fatalf("gen %d: a same-position Rebuild dropped the resample map", gen)
		}
		resampleBoth("after value update", 20, 20)
	}
}

// TestRebuildValidates: out-of-range samples must be rejected by Rebuild
// exactly as by Build.
func TestRebuildValidates(t *testing.T) {
	tree, err := Build([]Sample{{X: 0.5, Y: 0.5}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Rebuild([]Sample{{X: 1.5, Y: 0.5}}); err == nil {
		t.Error("out-of-range sample accepted by Rebuild")
	}
}

// TestUpdateValuesInPlace: a same-position Rebuild must flow the new values
// through to queries without touching topology.
func TestUpdateValuesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	samples := randSamples(rng, 100)
	tree, err := Build(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Update values through the tree's own slice (the pipeline's pattern).
	for i := range samples {
		samples[i].VX, samples[i].VY = float64(i), -float64(i)
	}
	arenaWas := tree.arenaUsed
	if err := tree.Rebuild(samples); err != nil {
		t.Fatal(err)
	}
	if tree.arenaUsed != arenaWas {
		t.Error("same-position Rebuild re-inserted the samples")
	}
	g, err := tree.Resample(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.VX[8*16+8] != samples[tree.Nearest(8.0/15, 8.0/15)].VX {
		t.Error("updated values not visible in resample")
	}
}

// TestLICStepTreeAllocFree is the quadtree half of the PR 3 LIC-step gate:
// once built, a per-timestep value update plus a full regular-grid resample
// allocates nothing.
func TestLICStepTreeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	samples := randSamples(rng, 300)
	tree, err := Build(samples, 8)
	if err != nil {
		t.Fatal(err)
	}
	var g Grid
	if err := tree.ResampleInto(&g, 32, 32); err != nil {
		t.Fatal(err)
	}
	step := 0
	avg := testing.AllocsPerRun(20, func() {
		step++
		for i := range samples {
			samples[i].VX = float64(step + i)
		}
		if err := tree.Rebuild(samples); err != nil {
			t.Fatal(err)
		}
		if err := tree.ResampleInto(&g, 32, 32); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state quadtree LIC step allocates %v, want 0", avg)
	}
}

// TestRebuildArenaReuse: a topology-changing rebuild at steady state (same
// sample count cycling between two position sets) must stop allocating once
// the arena has grown to cover both shapes.
func TestRebuildArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randSamples(rng, 200)
	b := randSamples(rng, 200)
	tree, err := Build(append([]Sample(nil), a...), 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Sample, 200)
	// Warm both topologies.
	copy(buf, b)
	if err := tree.Rebuild(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, a)
	if err := tree.Rebuild(buf); err != nil {
		t.Fatal(err)
	}
	flip := 0
	avg := testing.AllocsPerRun(20, func() {
		flip++
		if flip%2 == 0 {
			copy(buf, a)
		} else {
			copy(buf, b)
		}
		if err := tree.Rebuild(buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state topology rebuild allocates %v, want 0", avg)
	}
}

// TestRebuildDetectsAliasedMove: mutating a position through the slice the
// tree owns must still be detected — the position snapshot, not the
// (self-aliased) samples, is the comparison baseline.
func TestRebuildDetectsAliasedMove(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	samples := randSamples(rng, 80)
	tree, err := Build(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Resample(24, 24); err != nil { // remember a map over the unmoved set
		t.Fatal(err)
	}
	samples[7].X = samples[7].X/2 + 0.25
	// Rebuild must notice, fall through to a full re-insert, and then
	// answer like a fresh build over the moved set.
	if err := tree.Rebuild(samples); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(append([]Sample(nil), samples...), 4)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		x, y := rng.Float64(), rng.Float64()
		if got, want := tree.Nearest(x, y), fresh.Nearest(x, y); got != want {
			t.Fatalf("Nearest(%v,%v) = %d after aliased-move rebuild, fresh build says %d", x, y, got, want)
		}
	}
	// ... and resample like one: the map remembered before the move is stale.
	var got Grid
	if err := tree.ResampleInto(&got, 24, 24); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Resample(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	sameGridBits(t, "resample after aliased-move rebuild", &got, want)
}

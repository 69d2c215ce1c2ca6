package octree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y, z uint16) bool {
		m := Morton(uint32(x), uint32(y), uint32(z))
		a, b, c := UnMorton(m)
		return a == uint32(x) && b == uint32(y) && c == uint32(z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonOrderIsZOrder(t *testing.T) {
	// In Z-order, (0,0,0) < (1,0,0) < (0,1,0) < (1,1,0) < (0,0,1) ...
	seq := [][3]uint32{
		{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
	}
	var prev uint64
	for i, p := range seq {
		m := Morton(p[0], p[1], p[2])
		if i > 0 && m <= prev {
			t.Errorf("Morton%v = %d not > previous %d", p, m, prev)
		}
		prev = m
	}
}

func TestCellKeyRoundTrip(t *testing.T) {
	f := func(x, y, z uint16, lvl uint8) bool {
		l := lvl % (MaxLevel + 1)
		n := uint32(1) << l
		c := Cell{X: uint32(x) % n, Y: uint32(y) % n, Z: uint32(z) % n, Level: l}
		return CellFromKey(c.Key()) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParentChildInverse(t *testing.T) {
	c := Cell{X: 3, Y: 5, Z: 2, Level: 3}
	for i := 0; i < 8; i++ {
		ch := c.Child(i)
		if ch.Parent() != c {
			t.Errorf("child %d of %v has parent %v", i, c, ch.Parent())
		}
		if !c.Contains(ch) {
			t.Errorf("%v does not Contain its child %v", c, ch)
		}
	}
}

func TestAncestorKeyPrecedesDescendants(t *testing.T) {
	f := func(x, y, z uint16, lvl uint8, child uint8) bool {
		l := lvl % MaxLevel
		n := uint32(1) << l
		c := Cell{X: uint32(x) % n, Y: uint32(y) % n, Z: uint32(z) % n, Level: l}
		ch := c.Child(int(child % 8))
		return c.Key() < ch.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBoundsAndContainsPoint(t *testing.T) {
	c := Cell{X: 1, Y: 0, Z: 1, Level: 1}
	min, max := c.Bounds()
	if min != [3]float64{0.5, 0, 0.5} || max != [3]float64{1, 0.5, 1} {
		t.Errorf("bounds = %v..%v", min, max)
	}
	if !c.ContainsPoint([3]float64{0.75, 0.25, 0.75}) {
		t.Error("center-ish point not contained")
	}
	if c.ContainsPoint([3]float64{0.25, 0.25, 0.75}) {
		t.Error("outside point contained")
	}
	// Domain boundary belongs to the last cell.
	if !c.ContainsPoint([3]float64{1.0, 0.0, 1.0}) {
		t.Error("domain max corner not contained in boundary cell")
	}
}

// TestCellSizeExact pins the bit-assembled Size to the division it
// replaced, for every level, and Bounds — which the renderer's sample
// positions are computed from — to the same products and sums on a sweep of
// coordinates that includes both ends of every level.
func TestCellSizeExact(t *testing.T) {
	for l := uint8(0); l <= MaxLevel; l++ {
		want := 1.0 / float64(uint32(1)<<l)
		if got := (Cell{Level: l}).Size(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("level %d: Size %x, want %x", l, math.Float64bits(got), math.Float64bits(want))
		}
		n := uint32(1) << l
		for _, x := range []uint32{0, 1, n / 3, n / 2, n - 2, n - 1} {
			if x >= n {
				continue // n-2 wraps at level 0
			}
			c := Cell{X: x, Y: n - 1 - x, Z: x / 2, Level: l}
			min, max := c.Bounds()
			for i, v := range [3]uint32{c.X, c.Y, c.Z} {
				lo := float64(v) * want
				if math.Float64bits(min[i]) != math.Float64bits(lo) || math.Float64bits(max[i]) != math.Float64bits(lo+want) {
					t.Fatalf("%v axis %d: bounds %v..%v, want %v..%v", c, i, min[i], max[i], lo, lo+want)
				}
			}
		}
	}
}

func TestCellAtInverse(t *testing.T) {
	f := func(px, py, pz float64, lvl uint8) bool {
		wrap := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0.5
			}
			f := math.Abs(math.Mod(v, 1)) // fractional part in [0,1)
			if f >= 1 {
				f = 0
			}
			return f
		}
		p := [3]float64{wrap(px), wrap(py), wrap(pz)}
		l := lvl % (MaxLevel + 1)
		c := CellAt(p, l)
		return c.Valid() && c.ContainsPoint(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNeighbor(t *testing.T) {
	c := Cell{X: 0, Y: 0, Z: 0, Level: 2}
	if _, ok := c.Neighbor(-1, 0, 0); ok {
		t.Error("neighbor outside domain reported ok")
	}
	nb, ok := c.Neighbor(1, 0, 0)
	if !ok || nb != (Cell{X: 1, Y: 0, Z: 0, Level: 2}) {
		t.Errorf("neighbor = %v, %v", nb, ok)
	}
}

// buildTestTree refines around a corner point to produce mixed levels.
func buildTestTree(max uint8) *Tree {
	return Build(max, func(c Cell) bool {
		min, _ := c.Bounds()
		return min[0] < 0.26 && min[1] < 0.26 && min[2] < 0.26
	})
}

func TestBuildCoversDomainDisjointly(t *testing.T) {
	tr := buildTestTree(4)
	// Total volume of leaves must be exactly 1.
	var vol float64
	for _, c := range tr.Leaves {
		s := c.Size()
		vol += s * s * s
	}
	if vol < 0.999999 || vol > 1.000001 {
		t.Errorf("leaf volume = %v, want 1", vol)
	}
	// Every sampled point maps to exactly one leaf that contains it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		leaf, ok := findLeaf(tr, p)
		if !ok {
			t.Fatalf("no leaf for %v", p)
		}
		if !leaf.ContainsPoint(p) {
			t.Fatalf("leaf %v does not contain %v", leaf, p)
		}
	}
}

func TestLeavesSortedByKey(t *testing.T) {
	tr := buildTestTree(4)
	for i := 1; i < len(tr.Leaves); i++ {
		if tr.Leaves[i-1].Key() >= tr.Leaves[i].Key() {
			t.Fatalf("leaves not strictly sorted at %d", i)
		}
	}
}

func TestBalance21(t *testing.T) {
	// Refine a single deep corner; the raw tree grossly violates 2:1.
	tr := Build(6, func(c Cell) bool {
		min, _ := c.Bounds()
		return min[0] < 0.02 && min[1] < 0.02 && min[2] < 0.02
	})
	bal := tr.Balance21()
	if bal.Len() < tr.Len() {
		t.Fatalf("balancing lost leaves: %d -> %d", tr.Len(), bal.Len())
	}
	// Check: for every leaf and direction, the containing neighbor leaf
	// differs by at most one level.
	for _, c := range bal.Leaves {
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					nb, ok := c.Neighbor(dx, dy, dz)
					if !ok {
						continue
					}
					leaf, ok := findLeaf(bal, nb.Center())
					if !ok {
						t.Fatalf("no leaf at neighbor of %v", c)
					}
					diff := int(c.Level) - int(leaf.Level)
					if diff > 1 {
						t.Fatalf("2:1 violated: %v vs neighbor leaf %v", c, leaf)
					}
				}
			}
		}
	}
	// Volume still 1.
	var vol float64
	for _, c := range bal.Leaves {
		s := c.Size()
		vol += s * s * s
	}
	if vol < 0.999999 || vol > 1.000001 {
		t.Errorf("balanced volume = %v", vol)
	}
}

func TestBlocksPartition(t *testing.T) {
	tr := buildTestTree(4)
	blocks := tr.Blocks(2)
	seen := make(map[int]bool)
	for _, b := range blocks {
		for _, li := range b.Leaves {
			if seen[li] {
				t.Fatalf("leaf %d in two blocks", li)
			}
			seen[li] = true
			leaf := tr.Leaves[li]
			if leaf.Level >= b.Root.Level && !b.Root.Contains(leaf) {
				t.Fatalf("leaf %v not under block root %v", leaf, b.Root)
			}
		}
	}
	if len(seen) != tr.Len() {
		t.Errorf("blocks cover %d of %d leaves", len(seen), tr.Len())
	}
	// Block roots sorted.
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1].Root.Key() >= blocks[i].Root.Key() {
			t.Error("block roots not sorted")
		}
	}
}

func TestVisibilityOrderFrontToBack(t *testing.T) {
	tr := buildTestTree(3)
	dirs := [][3]float64{
		{0, 0, 1}, {0, 0, -1}, {1, 0, 0}, {0.5, 0.3, 0.8}, {-0.4, 0.9, -0.2},
	}
	for _, dir := range dirs {
		ord := VisibilityOrder(tr.Leaves, dir)
		if len(ord) != tr.Len() {
			t.Fatalf("order has %d entries, want %d", len(ord), tr.Len())
		}
		seen := make(map[int]bool)
		for _, i := range ord {
			seen[i] = true
		}
		if len(seen) != tr.Len() {
			t.Fatal("visibility order is not a permutation")
		}
		// Axis-aligned views: projections must be monotone within columns.
		// General check: for any two cells where one is strictly behind the
		// other along dir AND they overlap in the perpendicular plane, the
		// front one must come first.
		for a := 0; a < len(ord); a++ {
			for b := a + 1; b < len(ord); b++ {
				ca, cb := tr.Leaves[ord[a]], tr.Leaves[ord[b]]
				if overlapsPerp(ca, cb, dir) && behind(ca, cb, dir) {
					t.Fatalf("dir %v: %v (pos %d) drawn before %v (pos %d) but is behind it",
						dir, ca, a, cb, b)
				}
			}
		}
	}
}

// behind reports whether a is strictly behind b along dir (a's near face
// beyond b's far face).
func behind(a, b Cell, dir [3]float64) bool {
	amin, amax := a.Bounds()
	bmin, bmax := b.Bounds()
	proj := func(min, max [3]float64, lo bool) float64 {
		var s float64
		for i := 0; i < 3; i++ {
			v := min[i]
			if (dir[i] > 0) != lo {
				v = max[i]
			}
			s += dir[i] * v
		}
		return s
	}
	return proj(amin, amax, true) >= proj(bmin, bmax, false)-1e-12
}

// overlapsPerp reports whether the projections of a and b perpendicular to
// dir overlap (approximately, by axis overlap on the two non-dominant axes
// for axis-ish views; for the general case we use bounding-box overlap in
// the plane spanned by two vectors orthogonal to dir).
func overlapsPerp(a, b Cell, dir [3]float64) bool {
	// Conservative: check overlap of projections on two axes least aligned
	// with dir.
	amin, amax := a.Bounds()
	bmin, bmax := b.Bounds()
	type ax struct {
		i int
		d float64
	}
	axes := []ax{{0, abs(dir[0])}, {1, abs(dir[1])}, {2, abs(dir[2])}}
	// Pick the two axes with smallest |dir| component.
	if axes[0].d > axes[1].d {
		axes[0], axes[1] = axes[1], axes[0]
	}
	if axes[1].d > axes[2].d {
		axes[1], axes[2] = axes[2], axes[1]
	}
	if axes[0].d > axes[1].d {
		axes[0], axes[1] = axes[1], axes[0]
	}
	for _, x := range axes[:2] {
		if amax[x.i] <= bmin[x.i]+1e-12 || bmax[x.i] <= amin[x.i]+1e-12 {
			return false
		}
	}
	return true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestVisibilityOrderSingleCell(t *testing.T) {
	ord := VisibilityOrder([]Cell{Root}, [3]float64{0, 0, 1})
	if len(ord) != 1 || ord[0] != 0 {
		t.Errorf("order of root = %v", ord)
	}
}

// ContainsPoint reports whether the unit-cube point p is inside the cell
// (min-inclusive, max-exclusive; the domain boundary at 1.0 belongs to the
// last cell).
func (c Cell) ContainsPoint(p [3]float64) bool {
	min, max := c.Bounds()
	for i := 0; i < 3; i++ {
		hi := max[i]
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

// findLeaf returns the leaf of t that contains unit-cube point p.
func findLeaf(t *Tree, p [3]float64) (Cell, bool) {
	for _, c := range t.Leaves {
		if c.ContainsPoint(p) {
			return c, true
		}
	}
	return Cell{}, false
}

// The inverses of Morton and Cell.Key: the round-trip tests prove the
// forward maps injective with them; nothing else decodes a key.

// compact1By2 is the inverse of part1By2.
func compact1By2(v uint64) uint32 {
	v &= 0x1249249249249249
	v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3
	v = (v ^ (v >> 4)) & 0x100f00f00f00f00f
	v = (v ^ (v >> 8)) & 0x1f0000ff0000ff
	v = (v ^ (v >> 16)) & 0x1f00000000ffff
	v = (v ^ (v >> 32)) & 0x1fffff
	return uint32(v)
}

// UnMorton splits a Morton code back into coordinates.
func UnMorton(m uint64) (x, y, z uint32) {
	return compact1By2(m), compact1By2(m >> 1), compact1By2(m >> 2)
}

// CellFromKey reconstructs a Cell from its Key.
func CellFromKey(k uint64) Cell {
	level := uint8(k & 31)
	x, y, z := UnMorton(k >> 5)
	s := MaxLevel - level
	return Cell{X: x >> s, Y: y >> s, Z: z >> s, Level: level}
}

// Package quadtree organizes the ground-surface mesh nodes for the 2D
// vector-field visualization (paper Section 4.3): a point-region quadtree
// over the scattered surface nodes supports nearest-sample queries, and
// Resample derives the regular-grid vector field the LIC computation needs.
package quadtree

import (
	"fmt"
	"math"

	"repro/internal/pool"
)

// Sample is one scattered data point: a position in the unit square and a
// 2D vector value.
type Sample struct {
	X, Y   float64
	VX, VY float64
}

// node is one quadtree cell; either a leaf holding up to cap samples or an
// internal node with 4 children.
type node struct {
	x0, y0, size float64
	samples      []int
	children     *[4]node
}

// Tree is a point-region quadtree over the unit square. The node storage
// is arena-backed so Rebuild can re-insert a new timestep's samples without
// reallocating the structure (see Rebuild).
type Tree struct {
	samples []Sample
	root    node
	leafCap int
	maxDep  int

	// arena holds every child block ever allocated by this tree; arenaUsed
	// is the rebuild cursor, so re-inserting reuses the blocks (and their
	// leaves' sample-index slices) in allocation order.
	arena     []*[4]node
	arenaUsed int

	// posX/posY snapshot the sample positions at (re)build time, so the
	// moved-sample check in Rebuild stays meaningful even
	// when the caller mutates and passes back the tree-owned slice (the
	// pipeline's pattern — comparing samples against themselves would be
	// vacuous).
	posX, posY []float64

	// near maps each point of the last nearW×nearH grid ResampleInto served
	// to its nearest sample. Positions only change through rebuild, which
	// drops the map (nearW = 0); until then a resample at that size is a
	// gather, not w*h tree searches.
	near         []int32
	nearW, nearH int
}

// Build constructs the quadtree. leafCap bounds samples per leaf (default
// 8).
func Build(samples []Sample, leafCap int) (*Tree, error) {
	if leafCap <= 0 {
		leafCap = 8
	}
	t := &Tree{leafCap: leafCap, maxDep: 24}
	if err := t.rebuild(samples); err != nil {
		return nil, err
	}
	return t, nil
}

// rebuild validates and re-inserts samples, reusing arena node blocks.
func (t *Tree) rebuild(samples []Sample) error {
	for i, s := range samples {
		if s.X < 0 || s.X > 1 || s.Y < 0 || s.Y > 1 || math.IsNaN(s.X) || math.IsNaN(s.Y) {
			return fmt.Errorf("quadtree: sample %d at (%v,%v) outside unit square", i, s.X, s.Y)
		}
	}
	t.samples = samples
	t.posX = pool.Grow(t.posX, len(samples))
	t.posY = pool.Grow(t.posY, len(samples))
	for i := range samples {
		t.posX[i], t.posY[i] = samples[i].X, samples[i].Y
	}
	t.arenaUsed = 0
	t.nearW, t.nearH = 0, 0
	t.root = node{x0: 0, y0: 0, size: 1, samples: t.root.samples[:0]}
	for i := range samples {
		t.insert(&t.root, i, 0)
	}
	return nil
}

// setValues copies the vector values of samples (one per sample of the
// tree) into the tree, stopping at the first sample that moved, and returns
// that sample's index, len(samples) when none did. Positions are compared
// against the build-time snapshot, not t.samples — the caller may be
// handing back the tree-owned slice.
func (t *Tree) setValues(samples []Sample) int {
	for i := range samples {
		if samples[i].X != t.posX[i] || samples[i].Y != t.posY[i] {
			return i
		}
		t.samples[i].VX, t.samples[i].VY = samples[i].VX, samples[i].VY
	}
	return len(samples)
}

// Rebuild re-inserts the given samples into the tree. When every position
// matches the build-time snapshot only the vector values are replaced (the
// node arrays and the resample map are reused untouched) — the
// per-timestep path of the surface-LIC loop, where the scattered node
// positions are static and only the velocities change; otherwise the tree is rebuilt from
// the node arena, reusing every previously allocated block and leaf slice.
// Either way a steady-state animation loop allocates nothing once the arena
// has grown. A failed Rebuild leaves the topology as it was, but the values
// of the samples before the first moved one may already be the new ones.
func (t *Tree) Rebuild(samples []Sample) error {
	if len(samples) == len(t.samples) && t.setValues(samples) == len(samples) {
		return nil
	}
	return t.rebuild(samples)
}

// newChildren takes the next child block from the arena, growing it only
// when every previously allocated block is in use.
func (t *Tree) newChildren() *[4]node {
	if t.arenaUsed < len(t.arena) {
		blk := t.arena[t.arenaUsed]
		t.arenaUsed++
		return blk
	}
	blk := new([4]node)
	t.arena = append(t.arena, blk)
	t.arenaUsed++
	return blk
}

// Len returns the number of samples.
func (t *Tree) Len() int { return len(t.samples) }

func (t *Tree) insert(n *node, si int, depth int) {
	if n.children == nil {
		n.samples = append(n.samples, si)
		if len(n.samples) > t.leafCap && depth < t.maxDep {
			t.split(n)
		}
		return
	}
	t.insert(t.childFor(n, si), si, depth+1)
}

func (t *Tree) childFor(n *node, si int) *node {
	s := t.samples[si]
	h := n.size / 2
	ix, iy := 0, 0
	if s.X >= n.x0+h {
		ix = 1
	}
	if s.Y >= n.y0+h {
		iy = 1
	}
	return &n.children[ix+2*iy]
}

func (t *Tree) split(n *node) {
	h := n.size / 2
	blk := t.newChildren()
	blk[0] = node{x0: n.x0, y0: n.y0, size: h, samples: blk[0].samples[:0]}
	blk[1] = node{x0: n.x0 + h, y0: n.y0, size: h, samples: blk[1].samples[:0]}
	blk[2] = node{x0: n.x0, y0: n.y0 + h, size: h, samples: blk[2].samples[:0]}
	blk[3] = node{x0: n.x0 + h, y0: n.y0 + h, size: h, samples: blk[3].samples[:0]}
	n.children = blk
	old := n.samples
	n.samples = n.samples[:0]
	for _, si := range old {
		t.childFor(n, si).samples = append(t.childFor(n, si).samples, si)
	}
}

// Nearest returns the index of the sample closest to (x, y), or -1 for an
// empty tree. Standard best-first quadtree search with pruning. (A plain
// method recursion rather than a closure, so the per-pixel resample loop
// allocates nothing.)
func (t *Tree) Nearest(x, y float64) int {
	best := -1
	bestD := math.Inf(1)
	t.nearest(&t.root, x, y, &best, &bestD)
	return best
}

func (t *Tree) nearest(n *node, x, y float64, best *int, bestD *float64) {
	// Prune: minimum possible distance from (x,y) to the cell.
	dx := math.Max(0, math.Max(n.x0-x, x-(n.x0+n.size)))
	dy := math.Max(0, math.Max(n.y0-y, y-(n.y0+n.size)))
	if dx*dx+dy*dy >= *bestD {
		return
	}
	if n.children != nil {
		// Visit the child containing the query first.
		h := n.size / 2
		ix, iy := 0, 0
		if x >= n.x0+h {
			ix = 1
		}
		if y >= n.y0+h {
			iy = 1
		}
		first := ix + 2*iy
		t.nearest(&n.children[first], x, y, best, bestD)
		for c := 0; c < 4; c++ {
			if c != first {
				t.nearest(&n.children[c], x, y, best, bestD)
			}
		}
		return
	}
	for _, si := range n.samples {
		s := t.samples[si]
		d := (s.X-x)*(s.X-x) + (s.Y-y)*(s.Y-y)
		if d < *bestD {
			*bestD = d
			*best = si
		}
	}
}

// Grid is a regular 2D vector field resampled from the quadtree.
type Grid struct {
	W, H   int
	VX, VY []float64
}

// clamp01 clamps x to [0,1] with the results math.Max(0, math.Min(x, 1))
// gives: -0 becomes +0, NaN stays NaN.
func clamp01(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return x
}

// At returns the bilinearly interpolated vector at unit coordinates (x,y).
func (g *Grid) At(x, y float64) (vx, vy float64) {
	xs, ys := [1]float64{x}, [1]float64{y}
	var vxs, vys [1]float64
	g.AtBatch(xs[:], ys[:], vxs[:], vys[:])
	return vxs[0], vys[0]
}

// AtBatch sets (vx[i], vy[i]) to At(x[i], y[i]) for every i < len(x), bit
// for bit; y, vx and vy must be at least as long as x. The points are
// independent, so a caller with several (the LIC kernel's lanes) has their
// interpolations overlap instead of waiting out one call per point.
func (g *Grid) AtBatch(x, y, vx, vy []float64) {
	y, vx, vy = y[:len(x)], vx[:len(x)], vy[:len(x)]
	sx, sy := float64(g.W-1), float64(g.H-1)
	for p := range x {
		fx := clamp01(x[p]) * sx
		fy := clamp01(y[p]) * sy
		ix := int(fx)
		iy := int(fy)
		if ix >= g.W-1 {
			ix = g.W - 2
		}
		if iy >= g.H-1 {
			iy = g.H - 2
		}
		tx := fx - float64(ix)
		ty := fy - float64(iy)
		i := iy*g.W + ix
		j := i + g.W
		vx[p] = g.VX[i]*(1-tx)*(1-ty) + g.VX[i+1]*tx*(1-ty) + g.VX[j]*(1-tx)*ty + g.VX[j+1]*tx*ty
		vy[p] = g.VY[i]*(1-tx)*(1-ty) + g.VY[i+1]*tx*(1-ty) + g.VY[j]*(1-tx)*ty + g.VY[j+1]*tx*ty
	}
}

// Resample derives a w×h regular-grid vector field by nearest-sample lookup
// through the quadtree — the step the paper performs on the input
// processors before LIC ("a 2D regular-grid vector field is derived using
// the underlying quadtree").
func (t *Tree) Resample(w, h int) (*Grid, error) {
	g := &Grid{}
	if err := t.ResampleInto(g, w, h); err != nil {
		return nil, err
	}
	return g, nil
}

// ResampleInto is Resample writing into an existing grid, reusing its
// buffers — the steady-state path of the per-timestep LIC loop, which
// allocates nothing once the grid has grown to size. The nearest-sample
// searches run on the first call at a given (w, h) after a (re)build; later
// calls gather through the remembered map.
func (t *Tree) ResampleInto(g *Grid, w, h int) error {
	if w < 2 || h < 2 {
		return fmt.Errorf("quadtree: resample grid %dx%d too small", w, h)
	}
	if t.Len() == 0 {
		return fmt.Errorf("quadtree: resampling an empty tree")
	}
	g.W, g.H = w, h
	g.VX = pool.Grow(g.VX, w*h)
	g.VY = pool.Grow(g.VY, w*h)
	if t.nearW != w || t.nearH != h {
		t.near = pool.Grow(t.near, w*h)
		for j := 0; j < h; j++ {
			y := float64(j) / float64(h-1)
			for i := 0; i < w; i++ {
				x := float64(i) / float64(w-1)
				t.near[j*w+i] = int32(t.Nearest(x, y))
			}
		}
		t.nearW, t.nearH = w, h
	}
	for k, si := range t.near {
		g.VX[k] = t.samples[si].VX
		g.VY[k] = t.samples[si].VY
	}
	return nil
}

package render

// RenderScratch (PR 5) closes the renderer's last per-frame allocations:
// the fragment/rect/tile slices RenderBlocksWith used to build per call,
// the Fragment structs themselves (pooled here, released by whoever
// consumes them via ReleaseFragments), the fan-out closures (prebound to
// the scratch, like lic.Scratch's band closure), and the compositing
// order/canvas buffers. With a scratch and its persistent worker pool, a
// steady-state rendered frame allocates nothing.
//
// Ownership follows docs/ownership.md: the scratch is per-rank and serves
// one frame at a time; the fragment list RenderBlocksWith returns and the
// image compositeFragmentsWith produces are borrows valid until the next
// call on the same scratch; pooled fragments return to the scratch when
// their consumer calls ReleaseFragments.

import (
	"sync"

	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/pool"
	wpool "repro/internal/workers"
)

// renderJob carries one frame's projection/casting arguments to the
// prebound fan-out closures without capturing them in fresh closures.
type renderJob struct {
	r     *Renderer
	bds   []*BlockData
	view  *View
	frags []*Fragment
	rects []blockRect
	tiles []tileJob
}

// stripJob carries one frame's strip-compositing arguments to the
// prebound strip closure.
type stripJob struct {
	out     *img.Image
	ordered []*Fragment
	band, h int
}

// RenderScratch holds one rank's reusable per-frame rendering state for
// RenderBlocksWith (and the compositing tail of RenderParallelWith): the
// per-block fragment and rectangle tables, the tile list, the pooled
// Fragment structs with their pixel buffers, the frozen camera copy, and
// the prebound fan-out closures. A scratch belongs to one rank and serves
// one frame at a time; the fragments it produces stay valid until their
// consumer releases them with ReleaseFragments, which returns them to this
// scratch's pool — the consumer release is what lets a pipelined frame
// outlive the render call without copying. See docs/ownership.md.
type RenderScratch struct {
	// Pool, when set, is the persistent worker pool the projection, tile
	// and strip fan-outs dispatch on instead of spawning goroutines every
	// frame. Like the scratch itself it must belong to one rank.
	Pool *wpool.Pool

	frags   []*Fragment
	rects   []blockRect
	tiles   []tileJob
	ordered []*Fragment
	frame   *img.Image // own allocation: a nil-scratch caller keeping it must not pin the scratch
	view    View
	pool    pool.Pool[Fragment]

	job    renderJob
	projFn func(int)
	castFn func(int)
	strip  stripJob
	stripF func(int)
}

// getFragment takes a fragment for a w×h block projection at (x0, y0) from
// the pool, reusing its struct, image header and (cleared) pixel buffer.
func (s *RenderScratch) getFragment(x0, y0, w, h int) *Fragment {
	f := s.pool.Get()
	f.owner = &s.pool
	f.X0, f.Y0, f.VisRank = x0, y0, 0
	n := 4 * w * h
	f.store.Pix = pool.Grow(f.store.Pix, n)
	clear(f.store.Pix)
	f.store.W, f.store.H = w, h
	f.Img = &f.store
	return f
}

// extractJob carries one frame's block-extraction arguments to the
// prebound extraction closure of RenderParallelWith.
type extractJob struct {
	m        *mesh.Mesh
	scalar   []float32
	blocks   []octree.Block
	level    uint8
	bds      []*BlockData
	mu       sync.Mutex
	firstErr error
}

// frameTables returns the static per-frame tables of a RenderParallelWith
// frame — the block partition and each block's front-to-back visibility
// rank — caching them in the scratch keyed on (tree, blockLevel, view
// direction). The mesh partition must be static while cached, the same
// requirement the scratch's extraction slots already impose.
func frameTables(m *mesh.Mesh, blockLevel uint8, dir Vec3, s *ExtractScratch) ([]octree.Block, []int) {
	if s.tablesOK && s.tree == m.Tree && s.tblLevel == blockLevel && s.dir == dir {
		return s.blocks, s.rank
	}
	blocks := m.Tree.Blocks(blockLevel)
	cells := make([]octree.Cell, len(blocks))
	for i, b := range blocks {
		cells[i] = b.Root
	}
	order := octree.VisibilityOrder(cells, dir)
	rank := make([]int, len(blocks))
	for vis, bi := range order {
		rank[bi] = vis
	}
	s.blocks, s.rank = blocks, rank
	s.tree, s.tblLevel, s.dir, s.tablesOK = m.Tree, blockLevel, dir, true
	return blocks, rank
}

package render

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/pool"
	wpool "repro/internal/workers"
)

// BlockData is the render-ready form of one octree block at a chosen
// resolution level: the block's cells (leaves, or their ancestors when
// rendering adaptively at a coarser level) with the eight corner scalar
// values of each cell. This is what the input processors extract from the
// raw node array and ship to the rendering processors.
//
// Cells are disjoint, inside Root and stored in ascending octree Key
// (Morton preorder) order — the order extraction produces naturally. Point
// location is one load from a voxel→cell directory over the root (see
// buildDir and find), built beside the flat key array, so a BlockData
// holds no maps and steady-state re-extraction into an existing BlockData
// allocates nothing.
//
// Rendering a block rebuilds its empty-region table, so one BlockData is
// rendered by one frame at a time (within a frame the table is read-only
// and any number of goroutines may cast through it). The pipeline never
// projects a silent block (Vals all +0 under a transfer function
// transparent at 0), so the table left from its last live frame is never
// read.
type BlockData struct {
	Root  octree.Cell
	Cells []octree.Cell
	Vals  [][8]float32 // corner values per cell, x-fastest corner order

	keys    []uint64 // Cells[i].Key(), strictly ascending
	finest  uint8    // the finest cell level, 0 without cells
	indexed bool

	// dir is the voxel→cell directory (buildDir): one entry per voxel of
	// the root at level dirLevel, x fastest, 1<<sideBits voxels a side;
	// dirLo is the root's anchor at that level.
	dir      []int32
	dirLevel uint8
	sideBits uint8
	dirLo    [3]uint32

	// region is the per-frame empty-region table (buildEmptyRegions):
	// region[i] is the level of the largest octree ancestor of Cells[i]
	// inside the block under which every cell is empty, or notEmpty. Every
	// projection rebuilds it from Vals; the buffer is kept across frames.
	region []uint8
	// occLo..occHi is the occupied box the same pass yields; read it through
	// occupied, which knows when it describes Vals.
	occLo, occHi Vec3
}

// notEmpty marks a cell that lies in no empty region.
const notEmpty = 0xff

// NumCells returns the cell count.
func (b *BlockData) NumCells() int { return len(b.Cells) }

// buildEmptyRegions rebuilds the empty-region table and the occupied box
// from Vals and returns the block's largest corner value — the renderer's
// empty-space test: a block whose maximum maps to zero density cannot
// contribute any pixels and is skipped wholesale. A cell is empty when none of its 8 corners is > 0;
// armed is false when the transfer function gives such values a positive
// density, and then the table holds no empty regions and the box is open on
// every side.
//
// The occupied box bounds the cells that have a corner other than 0 or NaN
// — every non-empty cell, and every cell in which interpolating, or
// extrapolating for a point that find clamped into the domain, could yield
// anything but 0 or NaN. A side that lies on the domain boundary is open
// (-Inf, +Inf): the boundary cell owns every point beyond it, 1.0 included.
// So a point for which beyondBox holds contributes nothing, wherever it is:
// find puts it in no cell or in one whose index range on that axis lies
// outside the box's (clamping moves an index only towards the box side that
// is open), hence in a cell of zeros and NaNs, whose trilinear form is 0 or
// NaN at any parameter, which TFLUT.Lookup maps to entry 0, whose density
// is <= 0 when armed.
//
// Cells are disjoint and in Morton preorder, so their anchor-code ranges
// are disjoint and ascending: an ancestor of a cell in a run of consecutive
// empty cells holds nothing but empty cells exactly when its code range
// stays clear of the non-empty cells on either side of the run.
//
//repro:allocfree
func (b *BlockData) buildEmptyRegions(armed bool) float32 {
	b.index()
	n := len(b.Cells)
	b.region = pool.Grow(b.region, n) //repro:allow allocfree: amortized growth, kept across frames
	region := b.region
	var mx float32
	// The occupied box. The last cell goes in first: in Morton order it
	// holds the root's max corner as the first cell holds the min corner, so
	// where both are occupied — any dense block — the box is the whole
	// block after one cell, and no later cell needs looking at.
	box, whole := noAnchors, noAnchors
	whole.add(b.Root)
	if armed && n > 0 && cellOccupied(&b.Vals[n-1]) {
		box.add(b.Cells[n-1])
	}
	growing := armed
	for i := range region {
		// The max and the or are spelt out flat, and the or taken whether
		// needed or not: as loops and behind the branch this pass, which
		// every block pays every frame, was 30% slower.
		vv := &b.Vals[i]
		cmx := max0(max0(max0(vv[0], vv[1]), max0(vv[2], vv[3])), max0(max0(vv[4], vv[5]), max0(vv[6], vv[7])))
		region[i] = notEmpty
		if cmx > 0 {
			mx = max(mx, cmx)
		} else if armed {
			region[i] = 0 // its region's level, once the pass below has grown it
		}
		if bits := orBits(vv); growing && (cmx > 0 || bits<<1 != 0 && cellOccupied(vv)) {
			box.add(b.Cells[i])
			growing = box != whole
		}
	}
	b.occLo, b.occHi = openLo, openHi
	for k := 0; armed && k < 3; k++ {
		if box.lo[k] > 0 {
			b.occLo[k] = float64(box.lo[k]) / gridN
		}
		if box.hi[k] < gridN {
			b.occHi[k] = float64(box.hi[k]) / gridN
		}
	}
	// Grow every cell of each run [i, runEnd) of empty cells into its
	// coarsest ancestor inside the block whose codes lie in [lo, hi): past
	// the non-empty cell before the run and short of the one after it. A
	// key is octree.Cell.Key: the anchor's Morton code <<5 | level.
	keys := b.keys
	for i := 0; i < n; {
		if region[i] == notEmpty {
			i++
			continue
		}
		runEnd := i + 1
		for runEnd < n && region[runEnd] != notEmpty {
			runEnd++
		}
		lo, hi := uint64(0), uint64(math.MaxUint64)
		if i > 0 {
			lo = keys[i-1]>>5 + codeSpan(uint8(keys[i-1]&31))
		}
		if runEnd < n {
			hi = keys[runEnd] >> 5
		}
		for i < runEnd {
			code, lvl := keys[i]>>5, uint8(keys[i]&31)
			end := code + codeSpan(lvl)
			for l := b.Root.Level; l < lvl; l++ {
				span := codeSpan(l)
				if start := code &^ (span - 1); start >= lo && start+span <= hi {
					lvl, end = l, start+span
					break
				}
			}
			for ; i < runEnd && keys[i]>>5 < end; i++ {
				region[i] = lvl
			}
		}
	}
	return mx
}

// max0 returns the larger of a and b where that is > 0, else 0.
func max0(a, b float32) float32 {
	var m float32
	if a > m {
		m = a
	}
	if b > m {
		m = b
	}
	return m
}

// cellOccupied reports whether a corner value is neither 0 nor NaN.
func cellOccupied(vv *[8]float32) bool {
	for _, v := range vv {
		if v > 0 || v < 0 {
			return true
		}
	}
	return false
}

// orBits ors the corner values' bit patterns: a sign bit at most when every
// one is +0 or -0 — the cheap way to tell most unoccupied cells.
func orBits(vv *[8]float32) uint32 {
	return math.Float32bits(vv[0]) | math.Float32bits(vv[1]) | math.Float32bits(vv[2]) | math.Float32bits(vv[3]) |
		math.Float32bits(vv[4]) | math.Float32bits(vv[5]) | math.Float32bits(vv[6]) | math.Float32bits(vv[7])
}

// anchorBox is an axis-aligned box in anchor coordinates
// (octree.Cell.Anchor); noAnchors is the empty one.
type anchorBox struct{ lo, hi [3]uint32 }

var noAnchors = anchorBox{lo: [3]uint32{gridN, gridN, gridN}}

// add extends the box to hold cell c.
func (a *anchorBox) add(c octree.Cell) {
	x, y, z := c.Anchor()
	size := uint32(1) << (octree.MaxLevel - c.Level)
	a.lo[0], a.lo[1], a.lo[2] = min(a.lo[0], x), min(a.lo[1], y), min(a.lo[2], z)
	a.hi[0], a.hi[1], a.hi[2] = max(a.hi[0], x+size), max(a.hi[1], y+size), max(a.hi[2], z+size)
}

// gridN is the number of anchor coordinates per axis.
const gridN = 1 << octree.MaxLevel

// openLo..openHi is the occupied box that clips nothing.
var openLo, openHi = Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)}, Vec3{math.Inf(1), math.Inf(1), math.Inf(1)}

// occupied returns the block's occupied box (see buildEmptyRegions), open on
// every side unless the last table build still describes Vals: the box of a
// block that was extracted but not projected since clips nothing.
func (b *BlockData) occupied() (lo, hi Vec3) {
	if len(b.region) != len(b.Cells) {
		return openLo, openHi
	}
	return b.occLo, b.occHi
}

// codeSpan is the number of anchor Morton codes a cell of the given level
// covers.
func codeSpan(level uint8) uint64 { return 1 << (3 * (octree.MaxLevel - level)) }

// index builds the point-location index: the flat array of cell keys and
// the directory (buildDir). Extraction fills the keys inline; this lazy path
// serves a BlockData whose Cells were assembled directly. Cells must be
// inside Root and in ascending Key order, which every extraction-derived
// cell list is; other cells panic rather than silently mislocate samples.
func (b *BlockData) index() {
	if b.indexed {
		return
	}
	b.keys = b.keys[:0]
	b.finest = 0
	for i, c := range b.Cells {
		k := c.Key()
		if i > 0 && k <= b.keys[i-1] {
			panic(fmt.Sprintf("render: BlockData cells out of key order at %d (%v)", i, c))
		}
		if !b.Root.Contains(c) {
			panic(fmt.Sprintf("render: BlockData cell %v outside its root %v", c, b.Root))
		}
		b.keys = append(b.keys, k)
		b.finest = max(b.finest, c.Level)
	}
	b.buildDir()
	b.indexed = true
}

// MinCellSize returns the smallest cell edge in the block (unit cube).
func (b *BlockData) MinCellSize() float64 {
	b.index()
	return octree.Cell{Level: b.finest}.Size()
}

// dirBits caps the directory at 1<<dirBits voxels a side below the root:
// at most 4,096 entries, 16 KiB, per block.
const dirBits = 4

// buildDir rebuilds the voxel→cell directory from Cells and finest. Its
// level D is the block's finest level, or Root.Level+dirBits when that is
// coarser. A voxel inside a cell of level <= D — every voxel when D is the
// finest level — holds that cell's index; any other voxel holds a tagged
// entry -(j+1), where j is the first cell in key order inside the voxel, or
// len(Cells) when no cell is.
//
//repro:allocfree
func (b *BlockData) buildDir() {
	d := min(max(b.finest, b.Root.Level), b.Root.Level+dirBits)
	bits := d - b.Root.Level
	side := 1 << bits
	b.dirLevel, b.sideBits = d, bits
	b.dirLo = [3]uint32{b.Root.X << bits, b.Root.Y << bits, b.Root.Z << bits}
	b.dir = pool.Grow(b.dir, side*side*side) //repro:allow allocfree: amortized growth, kept across frames
	miss := -int32(len(b.Cells)) - 1
	for i := range b.dir {
		b.dir[i] = miss
	}
	for i, c := range b.Cells {
		switch {
		case c.Level == d: // one voxel: the common case, kept flat
			b.dir[b.voxel(c.X, c.Y, c.Z)] = int32(i)
			continue
		case c.Level > d:
			a := c.AncestorAt(d)
			if v := &b.dir[b.voxel(a.X, a.Y, a.Z)]; *v == miss {
				*v = -int32(i) - 1
			}
			continue
		}
		s := d - c.Level
		n := uint32(1) << s
		x, y, z := c.X<<s, c.Y<<s, c.Z<<s
		for vz := z; vz < z+n; vz++ {
			for vy := y; vy < y+n; vy++ {
				row := b.dir[b.voxel(x, vy, vz):][:n]
				for v := range row {
					row[v] = int32(i)
				}
			}
		}
	}
}

// voxel returns the directory position of the voxel with level-dirLevel
// coordinates x, y, z inside the root.
func (b *BlockData) voxel(x, y, z uint32) int {
	x, y, z = x-b.dirLo[0], y-b.dirLo[1], z-b.dirLo[2]
	return int((z<<b.sideBits|y)<<b.sideBits | x)
}

// find locates the cell containing the unit point p = (x, y, z), or -1. It
// takes p's finest-level cell f = CellAt(p, MaxLevel) and shifts it to its
// voxel at the directory's level D. The shift is exact: scaling by a power
// of two is, so floor(v·2^16) >> (16-D) = floor(v·2^D), clamping
// included, and the voxel is CellAt(p, D). One unsigned test rejects a voxel outside the
// root (below the anchor, the subtraction wraps). A voxel inside a cell
// holds its index, and that cell is the one containing p: cells are
// disjoint. Only a block finer than Root.Level+dirBits has voxels that
// hold several cells; their tagged entry -(j+1) names the first, and
// because the cells are key-sorted (Morton preorder) the one containing p,
// if any, is the predecessor of f's key among the cells from j on. The
// point comes as scalars, like the rest of the per-sample path (castRay).
//
//repro:allocfree
func (b *BlockData) find(x, y, z float64) int {
	b.index()
	f := octree.CellAt(Vec3{x, y, z}, octree.MaxLevel)
	sh := octree.MaxLevel - b.dirLevel
	vx, vy, vz := f.X>>sh-b.dirLo[0], f.Y>>sh-b.dirLo[1], f.Z>>sh-b.dirLo[2]
	if (vx|vy|vz)>>b.sideBits != 0 {
		return -1
	}
	e := b.dir[(vz<<b.sideBits|vy)<<b.sideBits|vx]
	if e >= 0 {
		return int(e)
	}
	j := int(-e - 1)
	k := f.Key()
	lo, hi := j, len(b.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == j || !b.Cells[lo-1].Contains(f) {
		return -1
	}
	return lo - 1
}

// ExtractScratch holds reusable per-block extraction targets for frame
// loops: slot i keeps the BlockData extracted for block i of the previous
// frame, so re-extracting the same partition does zero allocations once the
// buffers have grown to size. A scratch must not be shared by two frames in
// flight — the returned BlockData are only valid until the next extraction
// into the same slot. Distinct slots may be filled concurrently (the worker
// pool does) as long as Grow ran first.
//
// RenderParallelWith additionally stages a whole frame's working state
// here: the cached block partition and visibility ranks (recomputed when
// the mesh, block level or view direction changes), the frozen camera
// copy, the prebound extraction closure, and the embedded RenderScratch
// that owns the fragment and compositing buffers — which is what makes a
// steady-state fixed-view frame loop allocation-free end to end. Buffer
// ownership follows docs/ownership.md.
type ExtractScratch struct {
	bds []*BlockData

	// Pool, when set, is the persistent worker pool RenderParallelWith
	// dispatches its extraction, casting and compositing fan-outs on
	// instead of spawning goroutines every frame. Like the scratch itself
	// it must belong to one rank (one frame in flight).
	Pool *wpool.Pool

	// render owns the per-frame fragment/tile/strip staging; its Pool is
	// synced from Pool at the top of every RenderParallelWith frame.
	render RenderScratch

	// Cached static frame tables and their cache key (see frameTables).
	tree     *octree.Tree
	tblLevel uint8
	dir      Vec3
	tablesOK bool
	blocks   []octree.Block
	rank     []int

	// Per-frame staging: the frozen camera, the extraction fan-out job and
	// its prebound closure, the per-block output list and the kept
	// (visible) fragment list.
	view   View
	exJob  extractJob
	exFn   func(int)
	bdsOut []*BlockData
	kept   []*Fragment
}

// Grow ensures the scratch has at least n slots. Call before filling slots
// from multiple goroutines.
func (s *ExtractScratch) Grow(n int) {
	for len(s.bds) < n {
		s.bds = append(s.bds, new(BlockData))
	}
}

// Slot returns the i-th reusable BlockData, growing the scratch as needed.
func (s *ExtractScratch) Slot(i int) *BlockData {
	s.Grow(i + 1)
	return s.bds[i]
}

// ExtractBlockData builds the render-ready data for one block of the mesh
// at the given level: cells are the block's leaves, coarsened to `level`
// when they are finer (adaptive rendering), and corner values are gathered
// from the node scalar array. Scalar must be indexed by node id.
func ExtractBlockData(m *mesh.Mesh, scalar []float32, block octree.Block, level uint8) (*BlockData, error) {
	bd := &BlockData{}
	if err := ExtractBlockDataInto(bd, m, scalar, block, level); err != nil {
		return nil, err
	}
	return bd, nil
}

// ExtractBlockDataInto is ExtractBlockData writing into an existing
// BlockData, reusing its cell, value and index buffers — the steady-state
// path of an animation loop, which allocates nothing once the buffers have
// grown. Duplicate coarsened cells are eliminated by comparing against the
// previous cell: block leaves arrive in octree Key order, so every leaf
// coarsening to the same ancestor is consecutive and no map is needed.
//
//repro:allocfree
func ExtractBlockDataInto(bd *BlockData, m *mesh.Mesh, scalar []float32, block octree.Block, level uint8) error {
	if len(scalar) < m.NumNodes() {
		return fmt.Errorf("render: scalar array has %d entries for %d nodes", len(scalar), m.NumNodes())
	}
	bd.Root = block.Root
	bd.Cells = bd.Cells[:0]
	bd.Vals = bd.Vals[:0]
	bd.keys = bd.keys[:0]
	bd.region = bd.region[:0] // describes the previous Vals
	bd.finest = 0
	bd.indexed = false // until the directory describes Cells
	if level < block.Root.Level {
		level = block.Root.Level // cells cannot be coarser than the block
	}
	for _, li := range block.Leaves {
		leaf := m.Tree.Leaves[li]
		cell := leaf
		if leaf.Level > level {
			cell = leaf.AncestorAt(level)
		}
		k := cell.Key()
		if n := len(bd.keys); n > 0 {
			if k == bd.keys[n-1] {
				continue // consecutive leaves of the same coarsened cell
			}
			if k < bd.keys[n-1] {
				return fmt.Errorf("render: block leaves out of key order at cell %v", cell)
			}
		}
		var vals [8]float32
		if cell == leaf {
			for i, nid := range m.Elems[li].N {
				vals[i] = scalar[nid]
			}
		} else {
			for i, nid := range m.CornerIDs(cell) {
				if nid < 0 {
					return fmt.Errorf("render: missing corner node %v for cell %v", mesh.CellCorner(cell, i), cell)
				}
				vals[i] = scalar[nid]
			}
		}
		bd.Cells = append(bd.Cells, cell)
		bd.Vals = append(bd.Vals, vals)
		bd.keys = append(bd.keys, k)
		bd.finest = max(bd.finest, cell.Level)
	}
	bd.buildDir()
	bd.indexed = true
	return nil
}

// BlockTables builds the static half of the block's BlockData at the
// given level — the cells, keys and point-location directory
// ExtractBlockData builds, with no Vals — and appends to corners each
// cell's corner node ids in mesh.CellCorner order, returning both. It is
// one walk of the block's leaves, so a coarsened cell's corners are looked
// up once (CornerIDs; a leaf's are its element's). A corner the mesh has
// no node for is an error.
func BlockTables(m *mesh.Mesh, block octree.Block, level uint8, corners [][8]int32) (*BlockData, [][8]int32, error) {
	bd := &BlockData{Root: block.Root}
	level = max(level, block.Root.Level) // cells cannot be coarser than the block
	for _, li := range block.Leaves {
		leaf := m.Tree.Leaves[li]
		cell := leaf
		if leaf.Level > level {
			cell = leaf.AncestorAt(level)
		}
		k := cell.Key()
		if n := len(bd.keys); n > 0 {
			if k == bd.keys[n-1] {
				continue // consecutive leaves of the same coarsened cell
			}
			if k < bd.keys[n-1] {
				return nil, nil, fmt.Errorf("render: block leaves out of key order at cell %v", cell)
			}
		}
		ids := m.Elems[li].N
		if cell != leaf {
			ids = m.CornerIDs(cell)
			if i := slices.Index(ids[:], -1); i >= 0 {
				return nil, nil, fmt.Errorf("render: missing corner node %v for cell %v", mesh.CellCorner(cell, i), cell)
			}
		}
		bd.Cells = append(bd.Cells, cell)
		bd.keys = append(bd.keys, k)
		bd.finest = max(bd.finest, cell.Level)
		corners = append(corners, ids)
	}
	bd.buildDir()
	bd.indexed = true
	return bd, corners, nil
}

// CornerNodes returns the sorted node ids corners name and, for each
// cell, its corners' indexes in that list: the block's node set and its
// corner→local table. seen is a bitset over the mesh's nodes, all clear,
// and is left clear; pos is scratch, one entry per node, each set from the
// list before a corner reads it, so never cleared. A caller building many
// blocks' tables passes the same two to each.
func CornerNodes(corners [][8]int32, seen []uint64, pos []int32) (ids []int32, local [][8]int32) {
	lo, hi, n := len(seen), 0, 0 // the words marked, and the ids
	for i := range corners {
		for _, id := range corners[i] {
			if w, b := int(id/64), uint64(1)<<(id%64); seen[w]&b == 0 {
				seen[w] |= b
				lo, hi, n = min(lo, w), max(hi, w+1), n+1
			}
		}
	}
	ids = make([]int32, 0, n)
	for w := lo; w < hi; w++ {
		for word := seen[w]; word != 0; word &= word - 1 {
			id := int32(64*w + bits.TrailingZeros64(word))
			pos[id] = int32(len(ids))
			ids = append(ids, id)
		}
		seen[w] = 0
	}
	local = make([][8]int32, len(corners))
	for ci := range corners {
		for k, id := range corners[ci] {
			local[ci][k] = pos[id]
		}
	}
	return ids, local
}

// BlockNodeIDs returns the sorted unique node ids needed to extract the
// block at the given level — the read set of adaptive fetching with MPI-IO
// indexed reads — from BlockTables' corners through CornerNodes, as
// core.NewDataset derives it. Where BlockTables fails — leaves out of key
// order, or a corner the mesh has no node for, neither of which a block of
// m.Tree has — it panics.
//
//repro:allow deadexport: bench
func BlockNodeIDs(m *mesh.Mesh, block octree.Block, level uint8) []int32 {
	_, corners, err := BlockTables(m, block, level, nil)
	if err != nil {
		panic(err)
	}
	ids, _ := CornerNodes(corners, make([]uint64, (m.NumNodes()+63)/64), make([]int32, m.NumNodes()))
	return ids
}

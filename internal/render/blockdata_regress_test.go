package render

// PR 2's allocation-regression harness for the per-frame extraction and
// ray-casting path. The legacy map-based extractor is kept here (test-only)
// both as the equivalence reference for the flat-array rewrite and as the
// baseline of BenchmarkExtractBlockData, so the before/after is measured in
// one run. The Alloc tests are the hard gates: future PRs that reintroduce
// per-frame garbage fail loudly.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/octree"
)

var sinkPos int

// extractBlockDataLegacy is the pre-PR-2 ExtractBlockData: a `seen` map for
// coarsening dedup and append-grown output (the BlockData point-location
// map was built lazily on first sample). Kept verbatim as the reference.
func extractBlockDataLegacy(m *mesh.Mesh, scalar []float32, block octree.Block, level uint8) (*BlockData, error) {
	if len(scalar) < m.NumNodes() {
		return nil, fmt.Errorf("render: scalar array has %d entries for %d nodes", len(scalar), m.NumNodes())
	}
	bd := &BlockData{Root: block.Root}
	if level < block.Root.Level {
		level = block.Root.Level
	}
	seen := make(map[octree.Cell]bool)
	for _, li := range block.Leaves {
		leaf := m.Tree.Leaves[li]
		cell := leaf
		if leaf.Level > level {
			cell = leaf.AncestorAt(level)
		}
		if seen[cell] {
			continue
		}
		seen[cell] = true
		var vals [8]float32
		if cell == leaf {
			for i, nid := range m.Elems[li].N {
				vals[i] = scalar[nid]
			}
		} else {
			x, y, z := cell.Anchor()
			step := uint32(1) << (octree.MaxLevel - cell.Level)
			for i := 0; i < 8; i++ {
				g := mesh.GridCoord{
					x + step*uint32(i&1),
					y + step*uint32(i>>1&1),
					z + step*uint32(i>>2&1),
				}
				nid, ok := m.NodeID(g)
				if !ok {
					return nil, fmt.Errorf("render: missing corner node %v for cell %v", g, cell)
				}
				vals[i] = scalar[nid]
			}
		}
		bd.Cells = append(bd.Cells, cell)
		bd.Vals = append(bd.Vals, vals)
	}
	return bd, nil
}

// gradedRenderMesh is a 2:1-balanced mesh refined in one corner, so
// extraction sees mixed leaf levels and the coarsening path.
func gradedRenderMesh(tb testing.TB) *mesh.Mesh {
	tb.Helper()
	tree := octree.Build(4, func(c octree.Cell) bool {
		if c.Level < 2 {
			return true
		}
		min, _ := c.Bounds()
		return min[0] < 0.3 && min[1] < 0.3 && min[2] < 0.3
	}).Balance21()
	return mesh.FromTree(tree, 1000, nil)
}

// TestExtractBlockDataMatchesLegacy: the flat-array extractor must produce
// exactly the legacy cells and values (same order, bit-identical) on
// uniform and graded meshes at every render level, including the
// consecutive-duplicate coarsening dedup that replaced the `seen` map.
func TestExtractBlockDataMatchesLegacy(t *testing.T) {
	meshes := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"uniform4", uniformMesh(4)},
		{"graded", gradedRenderMesh(t)},
	}
	for _, tc := range meshes {
		f := waveField(tc.m)
		depth := tc.m.Tree.MaxDepth()
		for _, blockLevel := range []uint8{0, 1, 2} {
			for lvl := uint8(0); lvl <= depth; lvl++ {
				for bi, b := range tc.m.Tree.Blocks(blockLevel) {
					want, wantErr := extractBlockDataLegacy(tc.m, f, b, lvl)
					got, err := ExtractBlockData(tc.m, f, b, lvl)
					if wantErr != nil {
						// e.g. a coarse corner node missing on a graded
						// mesh: the rewrite must fail the same way.
						if err == nil {
							t.Fatalf("%s bl%d lvl%d block%d: legacy failed (%v), rewrite succeeded",
								tc.name, blockLevel, lvl, bi, wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s bl%d lvl%d block%d: %v", tc.name, blockLevel, lvl, bi, err)
					}
					if len(got.Cells) != len(want.Cells) {
						t.Fatalf("%s bl%d lvl%d block%d: %d cells, legacy %d",
							tc.name, blockLevel, lvl, bi, len(got.Cells), len(want.Cells))
					}
					for i := range want.Cells {
						if got.Cells[i] != want.Cells[i] || got.Vals[i] != want.Vals[i] {
							t.Fatalf("%s bl%d lvl%d block%d: cell %d differs", tc.name, blockLevel, lvl, bi, i)
						}
					}
				}
			}
		}
	}
}

// deepRenderMesh is refined to level 5 in a box off the centre, so that the
// level-0 block (root level 0) is finer than its directory (level 4) in
// part and holds coarse cells elsewhere.
func deepRenderMesh() *mesh.Mesh {
	return mesh.FromTree(octree.Build(5, func(c octree.Cell) bool {
		if c.Level < 2 {
			return true
		}
		ctr := c.Center()
		return math.Abs(ctr[0]-0.6) < 0.2 && math.Abs(ctr[1]-0.4) < 0.2 && ctr[2] < 0.5
	}).Balance21(), 1000, nil)
}

// cellsAt returns the block's cells at the given render level the way
// extraction lists them — its leaves, coarsened to level, each once — as a
// BlockData with no values, indexed on first use.
func cellsAt(tree *octree.Tree, b octree.Block, level uint8) *BlockData {
	bd := &BlockData{Root: b.Root}
	for _, li := range b.Leaves {
		c := tree.Leaves[li]
		if c.Level > level {
			c = c.AncestorAt(level)
		}
		if n := len(bd.Cells); n == 0 || bd.Cells[n-1] != c {
			bd.Cells = append(bd.Cells, c)
		}
	}
	return bd
}

// findProbes returns the points TestFindMatchesLegacyScan and FuzzFind's
// seeds locate in bd: on every face of every cell and one ulp to either
// side of it (at the cell's centre on the other two axes), and for the
// block as a whole its corners, its centre with one coordinate at 1.0,
// afterOne, 0, -0, negative, one root width outside, and far beyond the
// domain (65,536 and above, where an unclamped CellAt overflowed, and ±Inf).
func findProbes(bd *BlockData) []Vec3 {
	var ps []Vec3
	for _, c := range bd.Cells {
		lo, hi := c.Bounds()
		ctr := c.Center()
		for i := 0; i < 3; i++ {
			for _, f := range []float64{lo[i], hi[i]} {
				for _, v := range []float64{math.Nextafter(f, -1), f, math.Nextafter(f, 2)} {
					p := Vec3(ctr)
					p[i] = v
					ps = append(ps, p)
				}
			}
		}
	}
	rlo, rhi := bd.Root.Bounds()
	ctr, w := Vec3(bd.Root.Center()), bd.Root.Size()
	ps = append(ps, rlo, rhi, Vec3{1, 1, 1}, Vec3{afterOne, afterOne, afterOne}, Vec3{-1, -1, -1})
	for i := 0; i < 3; i++ {
		for _, v := range []float64{1, afterOne, 0, math.Copysign(0, -1), -1e-300, -0.5, -65536,
			ctr[i] - w, ctr[i] + w, 1.5, 65535.5, 65536, 1 << 32, 1e15, math.Inf(1), math.Inf(-1)} {
			p := ctr
			p[i] = v
			ps = append(ps, p)
		}
	}
	return ps
}

// TestFindMatchesLegacyScan: the directory find, and referenceFind — the
// predecessor search the castRay oracle locates with — must each locate
// exactly the cell the legacy per-level probe found (CellAt at every level
// from the root's, looked up in a map of the cells), at every findProbes
// point. The blocks are every block of the graded and the deep mesh at
// block levels 0 to 2, extracted at every render level from the block's own
// to the mesh depth; a uniform level-5 block at block level 0, whose every
// voxel holds eight cells; and each of those with every third cell left
// out, indexed lazily, so that voxels hold no cell or only part of one.
//
// Mutation-checked: with find reading the directory one voxel off, the
// root anchor not subtracted, or a tagged entry returned as a hit, this
// test fails (and FuzzFind's seeds do).
func TestFindMatchesLegacyScan(t *testing.T) {
	var bds []*BlockData
	add := func(bd *BlockData) {
		gappy := &BlockData{Root: bd.Root}
		for i, c := range bd.Cells {
			if i%3 != 1 {
				gappy.Cells = append(gappy.Cells, c)
			}
		}
		bds = append(bds, bd, gappy)
	}
	for _, m := range []*mesh.Mesh{gradedRenderMesh(t), deepRenderMesh()} {
		f := waveField(m)
		for _, blockLevel := range []uint8{0, 1, 2} {
			for _, b := range m.Tree.Blocks(blockLevel) {
				for lvl := b.Root.Level; lvl <= m.Tree.MaxDepth(); lvl++ {
					bd, err := ExtractBlockData(m, f, b, lvl)
					if err != nil {
						bd = cellsAt(m.Tree, b, lvl) // a coarse corner node is missing
					}
					add(bd)
				}
			}
		}
	}
	u := uniformMesh(5)
	add(cellsAt(u.Tree, u.Tree.Blocks(0)[0], 5))
	deepVoxels, hits := 0, 0
	for _, bd := range bds {
		bd.index()
		for _, e := range bd.dir {
			if e < 0 && int(-e-1) < len(bd.Cells) {
				deepVoxels++
			}
		}
		pos := make(map[octree.Cell]int, len(bd.Cells))
		for i, c := range bd.Cells {
			pos[c] = i
		}
		legacy := func(p Vec3) int {
			for l := bd.Root.Level; l <= octree.MaxLevel; l++ {
				if i, ok := pos[octree.CellAt(p, l)]; ok {
					return i
				}
			}
			return -1
		}
		for _, p := range findProbes(bd) {
			want := legacy(p)
			if got := bd.find(p[0], p[1], p[2]); got != want {
				t.Fatalf("block %v (%d cells, directory level %d): find(%v) = %d, legacy scan %d", bd.Root, len(bd.Cells), bd.dirLevel, p, got, want)
			}
			if got := referenceFind(bd, p); got != want {
				t.Fatalf("block %v (%d cells): referenceFind(%v) = %d, legacy scan %d", bd.Root, len(bd.Cells), p, got, want)
			}
			if want >= 0 {
				hits++
			}
		}
	}
	if deepVoxels == 0 || hits == 0 {
		t.Fatalf("%d voxels took the deep branch, %d probes hit a cell", deepVoxels, hits)
	}
}

// FuzzFind holds the directory find to referenceFind for arbitrary float64
// triples, NaN and the infinities included, on every block of the graded
// and the deep mesh at block levels 0 and 1 — blocks whose directory is as
// fine as their cells, and the deep mesh's level-0 block, which is finer.
// The seeds are findProbes' face, ulp and far-out points for one coarse and
// one deep cell of that block, and NaN in each coordinate.
func FuzzFind(f *testing.F) {
	var bds []*BlockData
	for _, m := range []*mesh.Mesh{gradedRenderMesh(f), deepRenderMesh()} {
		for _, blockLevel := range []uint8{0, 1} {
			for _, b := range m.Tree.Blocks(blockLevel) {
				bds = append(bds, cellsAt(m.Tree, b, m.Tree.MaxDepth()))
			}
		}
	}
	var deep *BlockData // the deep mesh's level-0 block
	for _, bd := range bds {
		if bd.index(); bd.finest > bd.dirLevel {
			deep = bd
		}
	}
	if deep == nil {
		f.Fatal("no block is finer than its directory")
	}
	seed := &BlockData{Root: deep.Root, Cells: []octree.Cell{deep.Cells[0], deep.Cells[len(deep.Cells)-1]}}
	for _, c := range deep.Cells {
		if c.Level == deep.finest {
			seed.Cells[1] = c
			break
		}
	}
	for _, p := range findProbes(seed) {
		f.Add(p[0], p[1], p[2])
	}
	nan := math.NaN()
	f.Add(nan, 0.5, 0.5)
	f.Add(0.25, nan, 0.75)
	f.Add(0.1, 0.2, nan)
	f.Add(nan, nan, nan)
	f.Fuzz(func(t *testing.T, x, y, z float64) {
		p := Vec3{x, y, z}
		for _, bd := range bds {
			if got, want := bd.find(x, y, z), referenceFind(bd, p); got != want {
				t.Fatalf("block %v (directory level %d): find(%v) = %d, referenceFind %d", bd.Root, bd.dirLevel, p, got, want)
			}
		}
	})
}

// BenchmarkFind measures point location alone (0 allocs/op) at random
// points of three blocks of a mesh refined to level 6 in one corner and
// 2:1-balanced around it: the uniform level-6 block at block level 2, every
// voxel of its directory a cell; its graded neighbour; and the level-1 block
// holding both, one level finer than its directory can be, so that an
// eighth of its samples take the deep branch.
func BenchmarkFind(b *testing.B) {
	tree := octree.Build(6, func(c octree.Cell) bool {
		lo, _ := c.Bounds()
		return c.Level < 2 || lo[0] < 0.25 && lo[1] < 0.25 && lo[2] < 0.25
	}).Balance21()
	block := func(root octree.Cell) *BlockData {
		for _, bl := range tree.Blocks(root.Level) {
			if bl.Root == root {
				return cellsAt(tree, bl, 6)
			}
		}
		b.Fatalf("no block %v", root)
		return nil
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name string
		bd   *BlockData
	}{
		{"uniform", block(octree.Cell{Level: 2})},
		{"graded", block(octree.Cell{X: 1, Level: 2})},
		{"deep", block(octree.Cell{Level: 1})},
	} {
		lo, hi := tc.bd.Root.Bounds()
		ps := make([]Vec3, 4096)
		for i := range ps {
			for k := 0; k < 3; k++ {
				ps[i][k] = lo[k] + rng.Float64()*(hi[k]-lo[k])
			}
		}
		tc.bd.index()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := &ps[i&(len(ps)-1)]
				sinkPos = tc.bd.find(p[0], p[1], p[2])
			}
		})
	}
}

// TestExtractBlockDataIntoAllocFree is the PR 2 acceptance gate: with a
// reused BlockData, steady-state re-extraction allocates nothing.
func TestExtractBlockDataIntoAllocFree(t *testing.T) {
	m := uniformMesh(4)
	f := waveField(m)
	block := m.Tree.Blocks(1)[0]
	bd := &BlockData{}
	if err := ExtractBlockDataInto(bd, m, f, block, 4); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := ExtractBlockDataInto(bd, m, f, block, 4); err != nil {
			t.Fatal(err)
		}
		// Sampling must not allocate either (index is built inline).
		if bd.find(0.1, 0.1, 0.1) < 0 {
			t.Fatal("sample missed inside block")
		}
	})
	if avg != 0 {
		t.Errorf("steady-state ExtractBlockDataInto allocates %v per frame, want 0", avg)
	}
}

// TestCastRayAllocFree locks in PR 1's zero-allocation ray integration, in
// both unlit and lit (analytic gradient) modes, on the dense field, on the
// sparse one whose ray leaps, and on the surface layer whose rays are
// clipped to the occupied box (one that misses it, one that grazes it, one
// that crosses it).
func TestCastRayAllocFree(t *testing.T) {
	rays := []struct {
		field string
		at    Vec3
	}{{"dense", domainCentre}, {"sparse", domainCentre}}
	for _, r := range clippedRays {
		rays = append(rays, struct {
			field string
			at    Vec3
		}{"surface", r.at})
	}
	for _, ray := range rays {
		for _, lit := range []bool{false, true} {
			rr, s, o, d, t0, t1, step := benchRaySetup(t, lit, ray.field, ray.at)
			if avg := testing.AllocsPerRun(20, func() {
				_, _, _, sinkRay = rr.castRay(s, o, d, t0, t1, step)
			}); avg != 0 {
				t.Errorf("castRay(lit=%v, %s at %v) allocates %v per ray, want 0", lit, ray.field, ray.at, avg)
			}
		}
	}
}

// renderBlocksAllocBudget is the per-frame allocation ceiling for a full
// nil-scratch RenderBlocksWith pass over a prepared block set (64 blocks,
// 128x128). The cost is the private scratch: bookkeeping plus one fragment
// per visible block — block data comes from the caller — so the budget is a
// small multiple of the block count. Reintroducing per-cell or
// per-pixel garbage blows through it by orders of magnitude.
const renderBlocksAllocBudget = 2000

// TestRenderBlocksAllocBudget enforces the ceiling, on the dense field, on
// the sparse one (whose projections fill the empty-region tables) and on
// the surface layer (whose pixel loops are trimmed to the occupied boxes).
func TestRenderBlocksAllocBudget(t *testing.T) {
	m := uniformMesh(4)
	for _, tc := range []struct {
		name string
		f    []float32
	}{{"dense", waveField(m)}, {"sparse", centeredBall(m)}, {"surface", surfaceLayer(m)}} {
		name, f := tc.name, tc.f
		var scratch ExtractScratch
		blocks := m.Tree.Blocks(2)
		bds := make([]*BlockData, len(blocks))
		for i, b := range blocks {
			if err := ExtractBlockDataInto(scratch.Slot(i), m, f, b, 4); err != nil {
				t.Fatal(err)
			}
			bds[i] = scratch.Slot(i)
		}
		rr := NewRenderer()
		rr.Prepare()
		view := DefaultView(128, 128)
		view.Prepare()
		avg := testing.AllocsPerRun(10, func() {
			rr.RenderBlocksWith(bds, &view, 2, nil)
		})
		t.Logf("RenderBlocks %s frame: %.0f allocs (budget %d)", name, avg, renderBlocksAllocBudget)
		if avg > renderBlocksAllocBudget {
			t.Errorf("RenderBlocks %s frame allocates %v, budget %d", name, avg, renderBlocksAllocBudget)
		}
	}
}

// TestRenderParallelWithScratchMatchesSerial: frame loops through a reused
// scratch must stay pixel-exact against the serial reference, including on
// the second frame when every buffer is being reused with different data.
func TestRenderParallelWithScratchMatchesSerial(t *testing.T) {
	m := gradedRenderMesh(t)
	fields := [][]float32{waveField(m), constField(m, 0.6)}
	var scratch ExtractScratch
	rr := NewRenderer()
	for fi, f := range fields {
		view := DefaultView(64, 64)
		want, err := RenderSerial(rr, m, f, 1, m.Tree.MaxDepth(), &view)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			v := DefaultView(64, 64)
			got, err := RenderParallelWith(rr, m, f, 1, m.Tree.MaxDepth(), &v, workers, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if d := img.MaxAbsDiff(want, got); d != 0 {
				t.Errorf("frame %d workers %d: scratch render differs from serial (max abs %g)", fi, workers, d)
			}
		}
	}
}

// BenchmarkExtractBlockData measures one 4096-cell block extraction:
// `scratch` is the steady-state path (must report 0 allocs/op), `fresh`
// allocates a new BlockData per frame, `legacy-map` is the pre-PR-2
// map-based extractor kept above.
func BenchmarkExtractBlockData(b *testing.B) {
	m := uniformMesh(5)
	f := waveField(m)
	block := m.Tree.Blocks(1)[0]
	b.Run("scratch", func(b *testing.B) {
		bd := &BlockData{}
		if err := ExtractBlockDataInto(bd, m, f, block, 5); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ExtractBlockDataInto(bd, m, f, block, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExtractBlockData(m, f, block, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy-map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bd, err := extractBlockDataLegacy(m, f, block, 5)
			if err != nil {
				b.Fatal(err)
			}
			// The legacy render path then built the point-location map.
			pos := make(map[octree.Cell]int, len(bd.Cells))
			for ci, c := range bd.Cells {
				pos[c] = ci
			}
			sinkPos = len(pos)
		}
	})
}

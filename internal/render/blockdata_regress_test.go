package render

// PR 2's allocation-regression harness for the per-frame extraction and
// ray-casting path. The legacy map-based extractor is kept here (test-only)
// both as the equivalence reference for the flat-array rewrite and as the
// baseline of BenchmarkExtractBlockData, so the before/after is measured in
// one run. The Alloc tests are the hard gates: future PRs that reintroduce
// per-frame garbage fail loudly.

import (
	"fmt"
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
				nid, ok := m.NodeIndex[g]
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

// TestFindMatchesLegacyScan: the predecessor binary search must locate
// exactly the cell the legacy per-level map probe found, for points inside,
// outside and on the boundaries of the block.
func TestFindMatchesLegacyScan(t *testing.T) {
	m := gradedRenderMesh(t)
	f := waveField(m)
	for _, b := range m.Tree.Blocks(1) {
		bd, err := ExtractBlockData(m, f, b, m.Tree.MaxDepth())
		if err != nil {
			t.Fatal(err)
		}
		// Legacy probe: try CellAt(p, l) for every level, coarse to fine.
		legacy := func(p Vec3) int {
			for l := bd.Root.Level; l <= octree.MaxLevel; l++ {
				c := octree.CellAt(p, l)
				for i, cc := range bd.Cells {
					if cc == c {
						return i
					}
				}
			}
			return -1
		}
		min, max := bd.Root.Bounds()
		probe := func(p Vec3) {
			t.Helper()
			if got, want := bd.find(p), legacy(p); got != want {
				t.Fatalf("find(%v) = %d, legacy scan %d", p, got, want)
			}
		}
		for i := 0; i <= 8; i++ {
			fr := float64(i) / 8
			probe(Vec3{min[0] + fr*(max[0]-min[0]), min[1] + fr*(max[1]-min[1]), min[2] + fr*(max[2]-min[2])})
			probe(Vec3{min[0] + fr*(max[0]-min[0]), max[1] - fr*(max[1]-min[1]), min[2]})
		}
		probe(Vec3{-0.5, 0.5, 0.5})
		probe(Vec3{1.5, 0.25, 0.25})
		probe(Vec3{min[0], min[1], min[2]})
		probe(Vec3{max[0], max[1], max[2]})
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
		if bd.find(Vec3{0.1, 0.1, 0.1}) < 0 {
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
				_, _, _, sinkAlpha = rr.castRay(s, o, d, t0, t1, step)
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

package core

// The committed read-and-gather plan is the contract between the input
// ranks and the renderers (PR 24): these tests hold Dataset.commitPlan to it
// directly, without running a pipeline.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// planStrategies are the three shapes a part plan takes.
var planStrategies = []struct {
	name string
	mod  func(*Options)
}{
	{"collective", func(o *Options) { o.ReadStrategy = ReadCollective }},
	{"adaptive", func(o *Options) { o.AdaptiveFetch = true }},
	{"contiguous", func(o *Options) {}},
}

// requirePlanContract fails unless d's committed plan is the contract
// TestGatherPlanPartitions spells out.
func requirePlanContract(t *testing.T, name string, d *Dataset) {
	t.Helper()
	covered := make([][]int, len(d.blockNodeIDs))
	for bi, ids := range d.blockNodeIDs {
		covered[bi] = make([]int, len(ids))
	}
	for p, ids := range d.partIDs {
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("%s: part %d ids not strictly ascending at %d", name, p, i)
			}
		}
		var viewed []int32
		for _, seg := range d.dense[p].view.Segments() {
			for off := seg.Off; off < seg.Off+seg.Len; off += quake.BytesPerNode {
				viewed = append(viewed, int32(off/quake.BytesPerNode))
			}
		}
		if !slices.Equal(viewed, ids) {
			t.Fatalf("%s: part %d's view selects %d node records, not its %d ids", name, p, len(viewed), len(ids))
		}
		for r := range d.rblocks {
			g := d.gather[p][r]
			at := 0
			for _, run := range g.runs {
				if d.owner[run.Block] != r {
					t.Fatalf("%s: part %d ships renderer %d block %d, which renderer %d owns", name, p, r, run.Block, d.owner[run.Block])
				}
				ids := d.blockNodeIDs[run.Block]
				if run.Off < 0 || run.Len < 1 || int(run.Off+run.Len) > len(ids) {
					t.Fatalf("%s: run %+v outside block's %d nodes", name, run, len(ids))
				}
				reads := func(k int32) bool { _, ok := slices.BinarySearch(d.partIDs[p], ids[k]); return ok }
				if run.Off > 0 && reads(run.Off-1) || int(run.Off+run.Len) < len(ids) && reads(run.Off+run.Len) {
					t.Fatalf("%s: part %d renderer %d: run %+v of block %d stops beside a node the part reads", name, p, r, run, run.Block)
				}
				for k := run.Off; k < run.Off+run.Len; k++ {
					covered[run.Block][k]++
					if got := d.partIDs[p][g.src[at]]; got != ids[k] {
						t.Fatalf("%s: part %d renderer %d: src says node %d for block %d node %d (id %d)", name, p, r, got, run.Block, k, ids[k])
					}
					at++
				}
			}
			if at != len(g.src) {
				t.Fatalf("%s: part %d renderer %d: runs hold %d values, src %d", name, p, r, at, len(g.src))
			}
		}
	}
	for bi, counts := range covered {
		if k := slices.IndexFunc(counts, func(n int) bool { return n != 1 }); k >= 0 {
			t.Fatalf("%s: node %d of block %d is shipped %d times", name, k, bi, counts[k])
		}
	}
}

// TestGatherPlanPartitions: over every layout of the cross-transport suite
// (and one whose three parts divide nothing evenly), the three read
// strategies and a coarse and the full render level, the plan NewDataset
// commits is the contract: the runs owed to a renderer name its own blocks
// only and, over all parts, cover each block's node list exactly once; src
// points at the id the run claims, so what a part ships is a subset of what
// it reads; a part's ids are strictly ascending and its view selects exactly
// their records, in that order; each run is as long as it can be, stopping
// only at its block's ends or beside a node the part does not read.
// (TestStepPlansContract holds the per-step plans and the declared piece
// sizes.)
//
// Mutation-checked: commitGather recording at[id]+1, counting 4 bytes per
// header, opening a run at every node, committing the view of another
// part's ids and letting a collective part ship the other part's blocks
// each fail here; never closing a run at a
// gap fails TestCommitGatherEnforcesCoverage's interleaved sets (no strategy
// leaves a gap inside a block), as does dropping either coverage check.
func TestGatherPlanPartitions(t *testing.T) {
	store := buildDataset(t, 1)
	for _, l := range []Layout{
		{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1},
		{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1},
		{Groups: 1, IPsPerGroup: 1, Renderers: 3, Outputs: 2},
		{Groups: 1, IPsPerGroup: 1, Renderers: 6, Outputs: 1},
		{Groups: 1, IPsPerGroup: 3, Renderers: 5, Outputs: 1},
	} {
		for _, st := range planStrategies {
			for _, level := range []uint8{2, 255} {
				name := fmt.Sprintf("%+v %s level %d", l, st.name, level)
				opts := smallOpts(16, 16)
				opts.FixedVMax, opts.Level = 1, level
				st.mod(&opts)
				d, err := NewDataset(l, opts, store)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				requirePlanContract(t, name, d)
			}
		}
	}
}

// TestCommitGatherEnforcesCoverage: the invariant is checked when the plan is
// committed, not assumed when a frame is rendered. Part sets that leave a
// block's node to nobody, or give it to two parts, fail commitGather — the
// step NewDataset ends on — with an error naming the node and the block.
// Sets that do partition them pass, however many runs that takes.
func TestCommitGatherEnforcesCoverage(t *testing.T) {
	opts := smallOpts(16, 16)
	opts.FixedVMax = 1
	l := Layout{Groups: 1, IPsPerGroup: 2, Renderers: 3, Outputs: 1}
	d, err := NewDataset(l, opts, buildDataset(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	lower, upper := d.partIDs[0], d.partIDs[1]
	shared := lower[len(lower)-1]
	for _, tc := range []struct {
		name  string
		parts [][]int32
		want  string
	}{
		{"a node nobody reads", [][]int32{lower[:len(lower)-1], upper}, fmt.Sprintf("node %d of block", shared)},
		{"a node two parts read", [][]int32{lower, append([]int32{shared}, upper...)}, fmt.Sprintf("node %d of block", shared)},
	} {
		d.partIDs = tc.parts
		err := d.commitGather(false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: commitGather error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// Part sets no strategy produces — every other node each — still
	// partition the blocks, as many short runs: the plan must say so.
	var even, odd []int32
	for i, id := range append(lower[:len(lower):len(lower)], upper...) {
		if i%2 == 0 {
			even = append(even, id)
		} else {
			odd = append(odd, id)
		}
	}
	d.partIDs = [][]int32{even, odd}
	if err := d.commitGather(false); err != nil {
		t.Fatalf("interleaved part sets: %v", err)
	}
	requirePlanContract(t, "interleaved part sets", d)
}

// TestBlockTablesMatchExtraction: the per-block tables NewDataset builds
// in one walk of each block's leaves are the ones render.ExtractBlockData,
// mesh.CornerIDs and render.BlockNodeIDs give — the template's cells, keys
// and point-location directory (and no values), each cell's corner ids
// through the corner→local table, and the block's node set — at every
// render level from the block level to the mesh depth, on graded,
// basin-like and random meshes.
func TestBlockTablesMatchExtraction(t *testing.T) {
	gen := func(cfg mesh.Config, model mesh.Model) *octree.Tree {
		m, err := mesh.Generate(cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		return m.Tree
	}
	rng := rand.New(rand.NewSource(7))
	trees := map[string]*octree.Tree{
		"graded": octree.Build(5, func(c octree.Cell) bool {
			min, _ := c.Bounds()
			return c.Level < 2 || min[0] < 0.3 && min[1] < 0.3 && min[2] < 0.3
		}).Balance21(),
		"basin":  gen(mesh.Config{Domain: 2000, FMax: 2, PointsPerWave: 4, MaxLevel: 5, MinLevel: 2}, benchBasin{}),
		"random": octree.Build(6, func(c octree.Cell) bool { return c.Level < 1 || rng.Float64() < 0.3 }).Balance21(),
	}
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	for name, tree := range trees {
		m := mesh.FromTree(tree, 2000, nil)
		st := pfs.NewMemStore()
		if err := quake.WriteMesh(st, m); err != nil {
			t.Fatal(err)
		}
		if err := quake.WriteMeta(st, quake.Meta{NumNodes: m.NumNodes(), OutDT: 1}); err != nil {
			t.Fatal(err)
		}
		zeros := make([]float32, m.NumNodes())
		opts := smallOpts(16, 16)
		opts.FixedVMax = 1
		for opts.Level = opts.BlockLevel; opts.Level <= m.Tree.MaxDepth(); opts.Level++ {
			d, err := NewDataset(l, opts, st)
			if err != nil {
				t.Fatal(err)
			}
			for bi, b := range m.Tree.Blocks(opts.BlockLevel) {
				at := fmt.Sprintf("%s level %d block %v", name, opts.Level, b.Root)
				want, err := render.ExtractBlockData(m, zeros, b, opts.Level)
				if err != nil {
					t.Fatal(err)
				}
				want.Vals = nil
				if !reflect.DeepEqual(d.blockBD[bi], want) || !slices.Equal(d.blockCells[bi], want.Cells) {
					t.Fatalf("%s: template differs from ExtractBlockData's", at)
				}
				ids := d.blockNodeIDs[bi]
				if wantIDs := render.BlockNodeIDs(m, b, opts.Level); !slices.Equal(ids, wantIDs) {
					t.Fatalf("%s: node set %v, BlockNodeIDs %v", at, ids, wantIDs)
				}
				local := d.blockCornerLocal[bi]
				if len(local) != len(want.Cells) {
					t.Fatalf("%s: %d local corner sets for %d cells", at, len(local), len(want.Cells))
				}
				for ci, cell := range want.Cells {
					for k, id := range m.CornerIDs(cell) {
						if got := ids[local[ci][k]]; got != id {
							t.Fatalf("%s cell %v: corner %d is node %d, CornerIDs says %d", at, cell, k, got, id)
						}
					}
				}
			}
		}
	}
}

package core

// The committed read-and-gather plan is the contract between the input
// ranks and the renderers (PR 24): these tests hold Dataset.commitPlan to it
// directly, without running a pipeline.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/quake"
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
		for _, seg := range d.partView[p].Segments() {
			for off := seg.Off; off < seg.Off+seg.Len; off += quake.BytesPerNode {
				viewed = append(viewed, int32(off/quake.BytesPerNode))
			}
		}
		if !slices.Equal(viewed, ids) {
			t.Fatalf("%s: part %d's view selects %d node records, not its %d ids", name, p, len(viewed), len(ids))
		}
		for r := range d.rblocks {
			g := d.gather[p][r]
			at, bytes := 0, int64(0)
			for _, run := range g.runs {
				if d.owner[run.Block] != r {
					t.Fatalf("%s: part %d ships renderer %d block %d, which renderer %d owns", name, p, r, run.Block, d.owner[run.Block])
				}
				ids := d.blockNodeIDs[run.Block]
				if run.Off < 0 || run.Len < 1 || int(run.Off+run.Len) > len(ids) {
					t.Fatalf("%s: run %+v outside block's %d nodes", name, run, len(ids))
				}
				for k := run.Off; k < run.Off+run.Len; k++ {
					covered[run.Block][k]++
					if got := d.partIDs[p][g.src[at]]; got != ids[k] {
						t.Fatalf("%s: part %d renderer %d: src says node %d for block %d node %d (id %d)", name, p, r, got, run.Block, k, ids[k])
					}
					at++
				}
				bytes += int64(run.Len) + 8
			}
			if at != len(g.src) {
				t.Fatalf("%s: part %d renderer %d: runs hold %d values, src %d", name, p, r, at, len(g.src))
			}
			if bytes == 0 {
				bytes = 1
			}
			if g.bytes != bytes {
				t.Fatalf("%s: part %d renderer %d declares %d bytes, its runs make %d", name, p, r, g.bytes, bytes)
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
// their records, in that order; and the declared size is a byte per value
// plus eight per run.
//
// Mutation-checked: commitGather recording at[id]+1, counting 4 bytes per
// header, committing the view of another part's ids and letting a collective
// part ship the other part's blocks each fail here; never closing a run at a
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

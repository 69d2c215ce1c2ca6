package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/octree"
)

// The map-based table builder FromTree ran before it keyed nodes by packed
// grid coordinate in an open-addressing table and resolved constraints on
// per-node arrays: a map from grid coordinate to node id, a map from node
// id to raw masters, a closure and a weight map per hanging node, and a
// map from node id to constraint index behind IsHanging. It is the tables'
// only reference (TestFromTreeMatchesFrozen) and restates every helper it
// used, so it shares no code with the builder it judges. It recurses
// forever on a mesh with a leaf at octree.MaxLevel, whose truncated edge
// midpoints hit corner nodes; no test hands it one.

// frozenMesh is what frozenFromTree builds.
type frozenMesh struct {
	Nodes     []GridCoord
	NodeIndex map[GridCoord]int32
	Elems     []Elem
	Hanging   []Constraint
	hangSet   map[int32]int
}

func frozenFromTree(tree *octree.Tree, model Model) *frozenMesh {
	m := &frozenMesh{NodeIndex: make(map[GridCoord]int32)}
	node := func(g GridCoord) int32 {
		if id, ok := m.NodeIndex[g]; ok {
			return id
		}
		id := int32(len(m.Nodes))
		m.Nodes = append(m.Nodes, g)
		m.NodeIndex[g] = id
		return id
	}
	m.Elems = make([]Elem, tree.Len())
	for li, leaf := range tree.Leaves {
		var e Elem
		e.Leaf = leaf
		for i := 0; i < 8; i++ {
			e.N[i] = node(frozenCorner(leaf, i))
		}
		if model != nil {
			e.Mat = model.At(leaf.Center())
		}
		m.Elems[li] = e
	}
	m.frozenFindHanging()
	return m
}

func frozenCorner(c octree.Cell, i int) GridCoord {
	x, y, z := c.Anchor()
	step := uint32(1) << (octree.MaxLevel - c.Level)
	return GridCoord{x + step*uint32(i&1), y + step*uint32(i>>1&1), z + step*uint32(i>>2&1)}
}

var frozenEdges = [12][2]int{
	{0, 1}, {2, 3}, {4, 5}, {6, 7},
	{0, 2}, {1, 3}, {4, 6}, {5, 7},
	{0, 4}, {1, 5}, {2, 6}, {3, 7},
}

var frozenFaces = [6][4]int{
	{0, 2, 4, 6}, {1, 3, 5, 7},
	{0, 1, 4, 5}, {2, 3, 6, 7},
	{0, 1, 2, 3}, {4, 5, 6, 7},
}

func frozenMidpoint(a, b GridCoord) GridCoord {
	return GridCoord{(a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2}
}

func (m *frozenMesh) frozenFindHanging() {
	raw := make(map[int32][]int32)
	for li := range m.Elems {
		e := &m.Elems[li]
		for _, ed := range frozenEdges {
			a, b := m.Nodes[e.N[ed[0]]], m.Nodes[e.N[ed[1]]]
			mid := frozenMidpoint(a, b)
			if id, ok := m.NodeIndex[mid]; ok {
				if _, dup := raw[id]; !dup {
					raw[id] = []int32{e.N[ed[0]], e.N[ed[1]]}
				}
			}
		}
		for _, fc := range frozenFaces {
			a, d := m.Nodes[e.N[fc[0]]], m.Nodes[e.N[fc[3]]]
			ctr := frozenMidpoint(a, d)
			if id, ok := m.NodeIndex[ctr]; ok {
				raw[id] = []int32{e.N[fc[0]], e.N[fc[1]], e.N[fc[2]], e.N[fc[3]]}
			}
		}
	}
	resolve := func(id int32) []int32 {
		seen := map[int32]float64{}
		var walk func(n int32, w float64)
		walk = func(n int32, w float64) {
			if ms, ok := raw[n]; ok && n != id {
				for _, mm := range ms {
					walk(mm, w/float64(len(ms)))
				}
				return
			}
			seen[n] += w
		}
		ms := raw[id]
		for _, mm := range ms {
			walk(mm, 1/float64(len(ms)))
		}
		out := make([]int32, 0, len(seen))
		var w0 float64
		first := true
		uniform := true
		for n, w := range seen {
			if first {
				w0, first = w, false
			} else if math.Abs(w-w0) > 1e-9 {
				uniform = false
			}
			out = append(out, n)
		}
		if !uniform {
			return append([]int32(nil), raw[id]...)
		}
		frozenSortInt32(out)
		return out
	}
	m.hangSet = make(map[int32]int, len(raw))
	ids := make([]int32, 0, len(raw))
	for id := range raw {
		ids = append(ids, id)
	}
	frozenSortInt32(ids)
	for _, id := range ids {
		m.hangSet[id] = len(m.Hanging)
		m.Hanging = append(m.Hanging, Constraint{Node: id, Masters: resolve(id)})
	}
}

func frozenSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (m *frozenMesh) frozenIsHanging(id int32) bool {
	_, ok := m.hangSet[id]
	return ok
}

// basinModel is the repository's basin material (quake's demo dataset and
// quakebench's basinish): Vs rising with depth, a slow hemisphere under
// the centre of the surface.
type basinModel struct{}

func (basinModel) At(p [3]float64) Material {
	vs := 900 + 2000*p[2]
	if d := (p[0]-0.5)*(p[0]-0.5) + (p[1]-0.5)*(p[1]-0.5) + p[2]*p[2]; d < 0.09 {
		vs = 400
	}
	return Material{Rho: 2200, Vs: vs, Vp: 1.8 * vs}
}

// randomTree refines cells at random down to maxLevel, each with
// probability p, from a fixed seed.
func randomTree(seed int64, maxLevel uint8, p float64) *octree.Tree {
	rng := rand.New(rand.NewSource(seed))
	return octree.Build(maxLevel, func(c octree.Cell) bool { return c.Level < 1 || rng.Float64() < p })
}

// TestFromTreeMatchesFrozen holds FromTree to the map-based builder it
// replaced: the same node ids and coordinates, element corners, hanging
// constraints (node and masters, in order), IsHanging answers and node
// lookups, on uniform, graded, basin-like, mixed and random meshes —
// balanced ones, and unbalanced ones whose constraint chains run deeper and
// take the raw-masters fallback.
func TestFromTreeMatchesFrozen(t *testing.T) {
	gen := func(cfg Config, model Model) *octree.Tree {
		m, err := Generate(cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		return m.Tree
	}
	type meshCase struct {
		name  string
		tree  *octree.Tree
		model Model
	}
	cases := []meshCase{
		{"uniform", gen(Config{Domain: 8000, FMax: 1, PointsPerWave: 4, MaxLevel: 5, MinLevel: 1}, uniModel{Material{Rho: 2000, Vs: 2000, Vp: 3600}}), nil},
		{"graded", gen(Config{Domain: 8000, FMax: 1, PointsPerWave: 4, MaxLevel: 6, MinLevel: 2}, gradedModel{}), gradedModel{}},
		{"basin", gen(Config{Domain: 2000, FMax: 3, PointsPerWave: 4, MaxLevel: 6, MinLevel: 3}, basinModel{}), basinModel{}},
		{"mixed", mixedTree(), nil},
		{"root", octree.FromLeaves([]octree.Cell{octree.Root}), nil},
	}
	for seed := int64(1); seed <= 4; seed++ {
		raw := randomTree(seed, 7, 0.3)
		cases = append(cases,
			meshCase{fmt.Sprintf("random%d-balanced", seed), raw.Balance21(), nil},
			meshCase{fmt.Sprintf("random%d-unbalanced", seed), raw, nil})
	}
	fallbacks := 0
	for _, tc := range cases {
		got := FromTree(tc.tree, 1000, tc.model)
		want := frozenFromTree(tc.tree, tc.model)
		if !slices.Equal(got.Nodes, want.Nodes) {
			t.Fatalf("%s: %d nodes differ from the frozen builder's %d", tc.name, len(got.Nodes), len(want.Nodes))
		}
		if !slices.Equal(got.Elems, want.Elems) {
			t.Fatalf("%s: element tables differ", tc.name)
		}
		if len(got.Hanging) != len(want.Hanging) {
			t.Fatalf("%s: %d constraints, frozen %d", tc.name, len(got.Hanging), len(want.Hanging))
		}
		for i, c := range got.Hanging {
			w := want.Hanging[i]
			if c.Node != w.Node || !slices.Equal(c.Masters, w.Masters) {
				t.Fatalf("%s: constraint %d is %v, frozen %v", tc.name, i, c, w)
			}
			if !slices.IsSorted(c.Masters) {
				fallbacks++
			}
		}
		for id := int32(-2); id < int32(len(got.Nodes))+2; id++ {
			if got.IsHanging(id) != want.frozenIsHanging(id) {
				t.Fatalf("%s: IsHanging(%d) = %v", tc.name, id, got.IsHanging(id))
			}
		}
		// Present coordinates, every leaf's edge midpoints and face
		// centres (mostly absent), and coordinates off the grid.
		probe := func(g GridCoord) {
			id, ok := got.NodeID(g)
			wid, wok := want.NodeIndex[g]
			if ok != wok || ok && id != wid || !ok && id != -1 {
				t.Fatalf("%s: NodeID(%v) = %d, %v; frozen %d, %v", tc.name, g, id, ok, wid, wok)
			}
		}
		for _, g := range got.Nodes {
			probe(g)
		}
		for _, e := range got.Elems {
			for _, ed := range frozenEdges {
				probe(frozenMidpoint(frozenCorner(e.Leaf, ed[0]), frozenCorner(e.Leaf, ed[1])))
			}
			for _, fc := range frozenFaces {
				probe(frozenMidpoint(frozenCorner(e.Leaf, fc[0]), frozenCorner(e.Leaf, fc[3])))
			}
		}
		for _, g := range []GridCoord{{1, 2, 3}, {gridMax + 1, 0, 0}, {0, 0, gridMax + 1}, {^uint32(0), ^uint32(0), ^uint32(0)}} {
			probe(g)
		}
	}
	if fallbacks == 0 {
		t.Error("no case took the raw-masters fallback")
	}
}

// TestFromTreeMaxLevelLeaves builds the tables of a balanced mesh refined
// to octree.MaxLevel around one point. A leaf there has no grid point
// between its corners, so none of them may hang off it: every constraint
// is still its node's position as the average of free masters.
func TestFromTreeMaxLevelLeaves(t *testing.T) {
	p := [3]float64{0.3, 0.6, 0.2}
	tree := octree.Build(octree.MaxLevel, func(c octree.Cell) bool {
		return octree.CellAt(p, c.Level) == c
	}).Balance21()
	if tree.MaxDepth() != octree.MaxLevel {
		t.Fatalf("depth %d", tree.MaxDepth())
	}
	m := FromTree(tree, 1, nil)
	if len(m.Hanging) == 0 {
		t.Fatal("no hanging nodes")
	}
	for _, c := range m.Hanging {
		var avg [3]float64
		for _, mm := range c.Masters {
			if m.IsHanging(mm) {
				t.Fatalf("master %d of node %d hangs", mm, c.Node)
			}
			q := m.Nodes[mm].Pos()
			for k := range avg {
				avg[k] += q[k] / float64(len(c.Masters))
			}
		}
		if avg != m.Nodes[c.Node].Pos() {
			t.Fatalf("node %d at %v is not the average %v of its masters", c.Node, m.Nodes[c.Node].Pos(), avg)
		}
	}
}

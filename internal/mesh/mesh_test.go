package mesh

import (
	"math"
	"testing"

	"repro/internal/octree"
)

type uniModel struct{ m Material }

func (u uniModel) At(p [3]float64) Material { return u.m }

// gradedModel is slow in one corner so the mesh refines there.
type gradedModel struct{}

func (gradedModel) At(p [3]float64) Material {
	vs := 2000.0
	if p[0] < 0.3 && p[1] < 0.3 && p[2] < 0.3 {
		vs = 300
	}
	return Material{Rho: 2000, Vs: vs, Vp: 1.8 * vs}
}

func TestLame(t *testing.T) {
	m := Material{Rho: 2000, Vs: 1000, Vp: 2000}
	lambda, mu := m.Lame()
	if mu != 2000*1000*1000 {
		t.Errorf("mu = %v", mu)
	}
	if lambda != 2000*2000*2000-2*mu {
		t.Errorf("lambda = %v", lambda)
	}
}

func TestGenerateUniform(t *testing.T) {
	// Uniform material: refinement stops at a single level -> regular grid.
	cfg := Config{Domain: 8000, FMax: 1, PointsPerWave: 4, MaxLevel: 5, MinLevel: 1}
	// Element target: h <= 2000/(4*1) = 500 m -> level with h=8000/2^L <= 500
	// -> L = 4 -> 16^3 = 4096 elements.
	m, err := Generate(cfg, uniModel{Material{Rho: 2000, Vs: 2000, Vp: 3600}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumElems() != 4096 {
		t.Errorf("elements = %d, want 4096", m.NumElems())
	}
	if m.NumNodes() != 17*17*17 {
		t.Errorf("nodes = %d, want %d", m.NumNodes(), 17*17*17)
	}
	if len(m.Hanging) != 0 {
		t.Errorf("uniform mesh has %d hanging nodes", len(m.Hanging))
	}
	if math.Abs(volume(m)-8000*8000*8000) > 1 {
		t.Errorf("volume = %v", volume(m))
	}
}

func TestGenerateGraded(t *testing.T) {
	cfg := Config{Domain: 8000, FMax: 1, PointsPerWave: 4, MaxLevel: 6, MinLevel: 2}
	m, err := Generate(cfg, gradedModel{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Tree.MaxDepth() <= 4 {
		t.Errorf("graded mesh did not refine: depth %d", m.Tree.MaxDepth())
	}
	if len(m.Hanging) == 0 {
		t.Error("graded mesh has no hanging nodes")
	}
	if math.Abs(volume(m)-8000*8000*8000) > 1 {
		t.Errorf("volume = %v", volume(m))
	}
	// 2:1 balance must hold (Generate balances).
	isLeaf := make(map[octree.Cell]bool, m.Tree.Len())
	for _, c := range m.Tree.Leaves {
		isLeaf[c] = true
	}
	for _, c := range m.Tree.Leaves {
		for _, d := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {-1, 0, 0}, {0, -1, 0}, {0, 0, -1}} {
			nb, ok := c.Neighbor(d[0], d[1], d[2])
			if !ok {
				continue
			}
			// The leaf covering a same-size neighbor that is not itself a
			// leaf is an ancestor of it, or finer; only an ancestor can be
			// too coarse.
			for l := int(nb.Level) - 2; l >= 0; l-- {
				if leaf := nb.AncestorAt(uint8(l)); isLeaf[leaf] {
					t.Fatalf("2:1 violated between %v and %v", c, leaf)
				}
			}
		}
	}
}

func TestNodeDedup(t *testing.T) {
	// Two adjacent same-size elements share exactly 4 nodes.
	tree := octree.FromLeaves([]octree.Cell{
		{X: 0, Y: 0, Z: 0, Level: 1}, {X: 1, Y: 0, Z: 0, Level: 1},
		{X: 0, Y: 1, Z: 0, Level: 1}, {X: 1, Y: 1, Z: 0, Level: 1},
		{X: 0, Y: 0, Z: 1, Level: 1}, {X: 1, Y: 0, Z: 1, Level: 1},
		{X: 0, Y: 1, Z: 1, Level: 1}, {X: 1, Y: 1, Z: 1, Level: 1},
	})
	m := FromTree(tree, 1000, nil)
	if m.NumNodes() != 27 {
		t.Errorf("2x2x2 grid has %d nodes, want 27", m.NumNodes())
	}
	if len(m.Hanging) != 0 {
		t.Errorf("regular grid has hanging nodes: %d", len(m.Hanging))
	}
}

// mixedTree: one level-1 octant refined to level 2, rest at level 1.
// This is 2:1 balanced and produces hanging nodes on the interfaces.
func mixedTree() *octree.Tree {
	var leaves []octree.Cell
	first := octree.Cell{X: 0, Y: 0, Z: 0, Level: 1}
	for i := 0; i < 8; i++ {
		leaves = append(leaves, first.Child(i))
	}
	for i := 1; i < 8; i++ {
		c := octree.Root.Child(i)
		leaves = append(leaves, c)
	}
	return octree.FromLeaves(leaves)
}

func TestHangingNodeDetection(t *testing.T) {
	m := FromTree(mixedTree(), 1000, nil)
	if len(m.Hanging) == 0 {
		t.Fatal("no hanging nodes found in mixed mesh")
	}
	for _, c := range m.Hanging {
		if len(c.Masters) != 2 && len(c.Masters) != 4 {
			t.Errorf("constraint on node %d has %d masters", c.Node, len(c.Masters))
		}
		// Geometric consistency: node position = average of master positions.
		p := m.Nodes[c.Node].Pos()
		var avg [3]float64
		for _, mm := range c.Masters {
			q := m.Nodes[mm].Pos()
			for k := 0; k < 3; k++ {
				avg[k] += q[k] / float64(len(c.Masters))
			}
		}
		for k := 0; k < 3; k++ {
			if math.Abs(p[k]-avg[k]) > 1e-12 {
				t.Fatalf("hanging node %d at %v is not the average of its masters %v", c.Node, p, avg)
			}
		}
		// Masters must not themselves be hanging (fully resolved).
		for _, mm := range c.Masters {
			if m.IsHanging(mm) {
				t.Errorf("master %d of node %d is itself hanging", mm, c.Node)
			}
		}
	}
}

func TestSurfaceNodes(t *testing.T) {
	cfg := Config{Domain: 1000, FMax: 1, PointsPerWave: 2, MaxLevel: 3, MinLevel: 3}
	m, err := Generate(cfg, uniModel{Material{Rho: 2000, Vs: 100000, Vp: 180000}})
	if err != nil {
		t.Fatal(err)
	}
	sn := m.SurfaceNodes()
	if len(sn) != 9*9 {
		t.Errorf("surface nodes = %d, want 81", len(sn))
	}
	for _, id := range sn {
		if m.Nodes[id][2] != 0 {
			t.Errorf("surface node %d has z=%d", id, m.Nodes[id][2])
		}
	}
}

func TestNodePosScaling(t *testing.T) {
	m := FromTree(octree.FromLeaves([]octree.Cell{{Level: 0}}), 5000, nil)
	// Root cell: 8 corner nodes; the far corner is the unit cube's, and
	// Domain scales it to (5000,5000,5000) meters.
	id, ok := m.NodeID(GridCoord{1 << octree.MaxLevel, 1 << octree.MaxLevel, 1 << octree.MaxLevel})
	if !ok {
		t.Fatal("no node at the far corner")
	}
	if far := m.Nodes[id].Pos(); far != [3]float64{1, 1, 1} || m.Domain != 5000 {
		t.Errorf("far corner = %v x %v m", far, m.Domain)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}, gradedModel{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Generate(Config{Domain: 1, FMax: 1, PointsPerWave: 1, MinLevel: 5, MaxLevel: 2}, gradedModel{}); err == nil {
		t.Error("min>max levels accepted")
	}
}

// volume is the total mesh volume in cubic meters (Domain^3 for a covering
// tree).
func volume(m *Mesh) float64 {
	var v float64
	for _, e := range m.Elems {
		s := e.Leaf.Size() * m.Domain
		v += s * s * s
	}
	return v
}

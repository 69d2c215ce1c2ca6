// Package mesh implements the octree-based hexahedral mesh generator used
// by the earthquake simulation (the Etree method of Tu, O'Hallaron and
// Lopez): leaves of a 2:1-balanced octree are the finite elements, refined
// so that the local element size resolves the shortest seismic wavelength
// (Vs / (pointsPerWavelength * fmax)). Nodes are the deduplicated element
// corners; corner nodes lying on the edge or face of a coarser neighbor are
// "hanging" and carry an interpolation constraint.
//
// As in the Etree method, nodes are keyed by their grid coordinate, not by
// a hash map: FromTree numbers them in an open-addressing table of ids
// keyed by the coordinate packed 17 bits an axis, and collects hanging
// constraints on per-node arrays, so no Go map is on the path every
// dataset load takes. A stored mesh carries the node and corner tables
// FromTree derives, and FromTables checks and indexes them instead of
// deriving them again.
package mesh

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/octree"
)

// Material holds the elastic properties of a point in the basin model.
type Material struct {
	Rho float64 // density, kg/m^3
	Vp  float64 // P-wave speed, m/s
	Vs  float64 // S-wave speed, m/s
}

// Lame returns the Lamé parameters (lambda, mu).
func (m Material) Lame() (lambda, mu float64) {
	mu = m.Rho * m.Vs * m.Vs
	lambda = m.Rho*m.Vp*m.Vp - 2*mu
	return
}

// Model maps a unit-cube point to its material. Implementations must be
// safe for concurrent use.
type Model interface {
	At(p [3]float64) Material
}

// GridCoord is an integer node coordinate at octree.MaxLevel resolution;
// components range over [0, 2^MaxLevel] inclusive (corners reach the far
// domain boundary).
type GridCoord [3]uint32

// gridMax is the inclusive maximum grid coordinate.
const gridMax = 1 << octree.MaxLevel

// Pos converts the grid coordinate to unit-cube coordinates.
func (g GridCoord) Pos() [3]float64 {
	const inv = 1.0 / float64(gridMax)
	return [3]float64{float64(g[0]) * inv, float64(g[1]) * inv, float64(g[2]) * inv}
}

// Elem is one hexahedral element: the octree leaf it occupies, its eight
// corner node ids in (x-fastest) corner order, and its material.
type Elem struct {
	Leaf octree.Cell
	N    [8]int32
	Mat  Material
}

// Constraint says a hanging node's value is the average of its masters.
type Constraint struct {
	Node    int32
	Masters []int32 // 2 for an edge midpoint, 4 for a face center
}

// Mesh is the generated finite-element mesh.
type Mesh struct {
	Tree   *octree.Tree
	Domain float64 // physical edge length of the unit cube, meters

	Nodes []GridCoord
	Elems []Elem // Elems[i] corresponds to Tree.Leaves[i]

	Hanging []Constraint // sorted by node id; masters fully resolved

	// slots is the node table NodeID probes: open addressing, linear
	// probing from the top 64-shift bits of hashGrid. A slot holds 1 + a
	// node id, 0 when empty, and at most half of them are full.
	slots []int32
	shift uint8
	// hanging[id] says node id carries a constraint.
	hanging []bool
}

// Config controls mesh generation.
type Config struct {
	Domain        float64 // physical edge length (m)
	FMax          float64 // highest resolved frequency (Hz)
	PointsPerWave float64 // elements per shortest wavelength (typ. 8-10)
	MaxLevel      uint8   // refinement cap
	MinLevel      uint8   // refinement floor (whole domain at least this fine)
}

// Generate builds the wavelength-adapted, 2:1-balanced hexahedral mesh for
// the given material model.
func Generate(cfg Config, model Model) (*Mesh, error) {
	if cfg.Domain <= 0 || cfg.FMax <= 0 || cfg.PointsPerWave <= 0 {
		return nil, fmt.Errorf("mesh: invalid config %+v", cfg)
	}
	if cfg.MaxLevel > octree.MaxLevel || cfg.MinLevel > cfg.MaxLevel {
		return nil, fmt.Errorf("mesh: invalid levels min=%d max=%d", cfg.MinLevel, cfg.MaxLevel)
	}
	refine := func(c octree.Cell) bool {
		if c.Level < cfg.MinLevel {
			return true
		}
		h := c.Size() * cfg.Domain
		// Sample Vs at the center and corners; refine against the minimum.
		vs := model.At(c.Center()).Vs
		min, max := c.Bounds()
		for i := 0; i < 8; i++ {
			p := [3]float64{min[0], min[1], min[2]}
			if i&1 != 0 {
				p[0] = max[0]
			}
			if i&2 != 0 {
				p[1] = max[1]
			}
			if i&4 != 0 {
				p[2] = max[2]
			}
			if v := model.At(p).Vs; v < vs {
				vs = v
			}
		}
		if vs <= 0 {
			return false
		}
		return h > vs/(cfg.PointsPerWave*cfg.FMax)
	}
	tree := octree.Build(cfg.MaxLevel, refine).Balance21()
	return FromTree(tree, cfg.Domain, model), nil
}

// FromTree builds the node/element/constraint tables for an existing
// (already balanced) octree. Node ids are given in first-touch order: the
// leaves in key order, each leaf's corners in CellCorner order, a new
// coordinate taking the next id. No hash map is involved: nodes are
// deduplicated in an open-addressing table of ids (NodeID), sized from the
// leaf count, and constraints are collected on per-node arrays
// (findHanging).
func FromTree(tree *octree.Tree, domain float64, model Model) *Mesh {
	m := &Mesh{Tree: tree, Domain: domain}
	m.resizeSlots(tree.Len() + tree.Len()/4)
	m.Elems = make([]Elem, tree.Len())
	for li, leaf := range tree.Leaves {
		e := &m.Elems[li]
		e.Leaf = leaf
		for i := range e.N {
			e.N[i] = m.addNode(CellCorner(leaf, i))
		}
		if model != nil {
			e.Mat = model.At(leaf.Center())
		}
	}
	m.findHanging()
	return m
}

// FromTables builds the mesh FromTree builds for tree from the tables a
// stored mesh carries: nodes, the node coordinates in first-touch order,
// and corners(i), the ids of leaf i's eight corners in CellCorner order,
// asked for once per leaf in leaf order. The mesh keeps nodes and has no
// materials. It refuses tables FromTree cannot have derived: a corner id
// out of range, a corner whose node sits elsewhere, ids out of
// first-touch order (an id above every earlier one but the next), a node
// no corner names, or two nodes at one coordinate. Tables that pass are
// FromTree's: a coordinate's first corner must take the next id, since
// every earlier id sits at a coordinate touched before, and a later
// corner at it must take the same id, since any other would be a second
// node there. Hanging constraints are derived as FromTree derives them.
func FromTables(tree *octree.Tree, domain float64, nodes []GridCoord, corners func(leaf int) [8]int32) (*Mesh, error) {
	m := &Mesh{Tree: tree, Domain: domain, Nodes: nodes, Elems: make([]Elem, tree.Len())}
	next := int32(0) // the id the next coordinate touched for the first time takes
	for li, leaf := range tree.Leaves {
		e := &m.Elems[li]
		e.Leaf, e.N = leaf, corners(li)
		for k, id := range e.N {
			switch {
			case id < 0 || int(id) >= len(nodes):
				return nil, fmt.Errorf("mesh: corner %d of leaf %v names node %d, out of range [0, %d)", k, leaf, id, len(nodes))
			case id > next:
				return nil, fmt.Errorf("mesh: corner %d of leaf %v names node %d before node %d (ids out of first-touch order)", k, leaf, id, next)
			case nodes[id] != CellCorner(leaf, k):
				return nil, fmt.Errorf("mesh: corner %d of leaf %v is at %v, but its node %d is at %v", k, leaf, CellCorner(leaf, k), id, nodes[id])
			case id == next:
				next++
			}
		}
	}
	if int(next) != len(nodes) {
		return nil, fmt.Errorf("mesh: node %d of %d is no leaf's corner (unreferenced node)", next, len(nodes))
	}
	if id := m.resizeSlots(len(nodes)); id >= 0 {
		return nil, fmt.Errorf("mesh: nodes %d and %d are both at %v", m.slots[m.probe(nodes[id])]-1, id, nodes[id])
	}
	m.findHanging()
	return m, nil
}

// hashGrid spreads a grid coordinate over 64 bits: the coordinate packed
// 17 bits an axis (2^MaxLevel itself is a coordinate), times the 64-bit
// golden ratio, whose top bits are the home slot (Fibonacci hashing).
func hashGrid(g GridCoord) uint64 {
	return (uint64(g[0]) | uint64(g[1])<<17 | uint64(g[2])<<34) * 0x9e3779b97f4a7c15
}

// resizeSlots rebuilds the node table with room for n entries at a load of
// at most one half: a power of two, at least 16, slots. It returns the
// first node whose coordinate an earlier node holds, which it leaves out
// of the table, or -1 when the coordinates are distinct.
func (m *Mesh) resizeSlots(n int) int32 {
	bits := uint(4)
	for 1<<bits < 2*n {
		bits++
	}
	m.slots = make([]int32, 1<<bits)
	m.shift = uint8(64 - bits)
	for id, g := range m.Nodes {
		i := m.probe(g)
		if m.slots[i] != 0 {
			return int32(id)
		}
		m.slots[i] = int32(id) + 1
	}
	return -1
}

// probe returns the slot that holds g's node id, or the empty slot it
// would take.
func (m *Mesh) probe(g GridCoord) uint64 {
	mask := uint64(len(m.slots) - 1)
	i := hashGrid(g) >> m.shift
	for s := m.slots[i]; s != 0 && m.Nodes[s-1] != g; s = m.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// addNode returns the id of the node at g, appending it to Nodes under the
// next id when it is new.
func (m *Mesh) addNode(g GridCoord) int32 {
	i := m.probe(g)
	if s := m.slots[i]; s != 0 {
		return s - 1
	}
	id := int32(len(m.Nodes))
	m.Nodes = append(m.Nodes, g)
	m.slots[i] = id + 1
	if 2*len(m.Nodes) > len(m.slots) {
		m.resizeSlots(len(m.Nodes))
	}
	return id
}

// NodeID returns the id of the node at grid coordinate g, and false (with
// id -1) when the mesh has none there.
func (m *Mesh) NodeID(g GridCoord) (int32, bool) {
	if len(m.slots) == 0 {
		return -1, false
	}
	s := m.slots[m.probe(g)]
	return s - 1, s != 0
}

// CellCorner returns the grid coordinate of corner i (0..7, x fastest) of
// cell c: its anchor plus one cell step along each axis bit i sets. Every
// table that names a cell's corners — Elem.N, CornerIDs — uses this order.
func CellCorner(c octree.Cell, i int) GridCoord {
	x, y, z := c.Anchor()
	step := uint32(1) << (octree.MaxLevel - c.Level)
	return GridCoord{x + step*uint32(i&1), y + step*uint32(i>>1&1), z + step*uint32(i>>2&1)}
}

// CornerIDs returns the node ids of cell c's eight corners in CellCorner
// order, -1 where the mesh has no node. A leaf's corners are its element's
// nodes; a coarser cell (an adaptive-level ancestor) may have a corner the
// mesh never generated, and what that means is the caller's policy.
func (m *Mesh) CornerIDs(c octree.Cell) [8]int32 {
	var ids [8]int32
	for i := range ids {
		ids[i], _ = m.NodeID(CellCorner(c, i))
	}
	return ids
}

// hexEdges lists the 12 edges of a hex as corner-index pairs.
var hexEdges = [12][2]int{
	{0, 1}, {2, 3}, {4, 5}, {6, 7}, // x-parallel
	{0, 2}, {1, 3}, {4, 6}, {5, 7}, // y-parallel
	{0, 4}, {1, 5}, {2, 6}, {3, 7}, // z-parallel
}

// hexFaces lists the 6 faces as corner-index quadruples.
var hexFaces = [6][4]int{
	{0, 2, 4, 6}, {1, 3, 5, 7}, // x = min, max
	{0, 1, 4, 5}, {2, 3, 6, 7}, // y = min, max
	{0, 1, 2, 3}, {4, 5, 6, 7}, // z = min, max
}

func midpoint(a, b GridCoord) GridCoord {
	return GridCoord{(a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2}
}

// findHanging detects hanging nodes: a node that sits at the midpoint of a
// leaf's edge or the center of a leaf's face hangs off that (coarser-side)
// entity and is constrained to the average of the entity's corners. With a
// 2:1-balanced tree this enumeration is exhaustive. Each node keeps its raw
// masters in a fixed [4]int32 with a count: the first edge to reach it
// wins, and any face centre overwrites what it holds.
//
// Only leaves with a finer leaf at a corner are probed. A node at the
// midpoint of a level-l leaf's edge is a corner of a finer leaf inside one
// of the other level-l cells around that edge, which is therefore split;
// the leaf of that cell at the edge's endpoint is finer than l and has the
// endpoint as a corner. The same holds for a face centre and the face's
// corners. So where every corner's finest leaf (fine) is the leaf's own
// level, no midpoint of the leaf is a node. That includes every leaf at
// octree.MaxLevel, between whose corners no grid point lies (its
// truncated midpoints would be corners).
//
// Constraints whose masters are themselves hanging are then resolved
// transitively (resolver), in node-id order.
func (m *Mesh) findHanging() {
	fine := make([]uint8, len(m.Nodes))
	for li := range m.Elems {
		e := &m.Elems[li]
		for _, id := range e.N {
			fine[id] = max(fine[id], e.Leaf.Level)
		}
	}
	n := len(m.Nodes)
	r := resolver{raw: make([][4]int32, n), count: make([]uint8, n), start: make([]int32, n), end: make([]int32, n)}
	for li := range m.Elems {
		e := &m.Elems[li]
		l := e.Leaf.Level
		if !slices.ContainsFunc(e.N[:], func(id int32) bool { return fine[id] > l }) {
			continue
		}
		var c [8]GridCoord
		for i := range c {
			c[i] = CellCorner(e.Leaf, i)
		}
		for _, ed := range hexEdges {
			if fine[e.N[ed[0]]] <= l {
				continue
			}
			if id, ok := m.NodeID(midpoint(c[ed[0]], c[ed[1]])); ok && r.count[id] == 0 {
				r.raw[id] = [4]int32{e.N[ed[0]], e.N[ed[1]]}
				r.count[id] = 2
			}
		}
		for _, fc := range hexFaces {
			if fine[e.N[fc[0]]] <= l {
				continue
			}
			if id, ok := m.NodeID(midpoint(c[fc[0]], c[fc[3]])); ok {
				// A face center beats any edge-midpoint interpretation.
				r.raw[id] = [4]int32{e.N[fc[0]], e.N[fc[1]], e.N[fc[2]], e.N[fc[3]]}
				r.count[id] = 4
			}
		}
	}
	m.hanging = make([]bool, len(m.Nodes))
	var masters []int32 // every constraint's masters, back to back
	var ends []int
	for id, c := range r.count {
		if c == 0 {
			continue
		}
		m.hanging[id] = true
		masters = r.resolve(masters, int32(id))
		m.Hanging = append(m.Hanging, Constraint{Node: int32(id)})
		ends = append(ends, len(masters))
	}
	start := 0
	for i, end := range ends {
		m.Hanging[i].Masters = masters[start:end:end]
		start = end
	}
}

// resolver flattens constraint chains. raw and count are every node's raw
// masters (count 0: the node is free). A hanging node's weights — the free
// nodes its value averages and each one's share — are computed once, from
// its masters' (weightsOf), and kept in arena[start[n]:end[n]], so a chain
// is walked once however many constraints run through it. Every share is
// a product of halves and quarters, exact in a float64, so the sums do not
// depend on the order they are formed in.
type resolver struct {
	raw        [][4]int32
	count      []uint8
	start, end []int32
	arena      []weighted
}

// weighted is a free node and its share of a hanging node's value.
type weighted struct {
	node int32
	w    float64
}

// resolve appends the resolved masters of hanging node id to out: its raw
// masters with each hanging one replaced by that node's own, until all are
// free, sorted. For a 2:1-balanced octree every resolved constraint is a
// uniform average; where the shares differ, the raw masters are appended
// instead (still correct to one level).
func (r *resolver) resolve(out []int32, id int32) []int32 {
	ws := r.weightsOf(id)
	start := len(out)
	for _, x := range ws {
		if math.Abs(x.w-ws[0].w) > 1e-9 {
			return append(out[:start], r.raw[id][:r.count[id]]...)
		}
		out = append(out, x.node)
	}
	slices.Sort(out[start:])
	return out
}

// weightsOf returns hanging node n's weights, computing its hanging
// masters' first. Levels strictly coarsen along a chain (a node hangs off
// the coarser leaf's corners), so the recursion is at most MaxLevel deep.
func (r *resolver) weightsOf(n int32) []weighted {
	if r.end[n] == 0 {
		ms := r.raw[n][:r.count[n]]
		for _, mm := range ms {
			if r.count[mm] > 0 {
				r.weightsOf(mm)
			}
		}
		start := int32(len(r.arena))
		share := 1 / float64(len(ms))
		for _, mm := range ms {
			if r.count[mm] == 0 {
				r.add(start, mm, share)
				continue
			}
			for _, x := range r.arena[r.start[mm]:r.end[mm]] {
				r.add(start, x.node, x.w*share)
			}
		}
		r.start[n], r.end[n] = start, int32(len(r.arena))
	}
	return r.arena[r.start[n]:r.end[n]]
}

// add adds share w of node to the weights being built at arena[start:].
func (r *resolver) add(start int32, node int32, w float64) {
	for i := range r.arena[start:] {
		if x := &r.arena[int(start)+i]; x.node == node {
			x.w += w
			return
		}
	}
	r.arena = append(r.arena, weighted{node, w})
}

// IsHanging reports whether node id carries a constraint.
func (m *Mesh) IsHanging(id int32) bool {
	return uint(id) < uint(len(m.hanging)) && m.hanging[id]
}

// NumNodes returns the node count.
func (m *Mesh) NumNodes() int { return len(m.Nodes) }

// NumElems returns the element count.
func (m *Mesh) NumElems() int { return len(m.Elems) }

// SurfaceNodes returns the ids of nodes on the ground surface (z = 0),
// where the paper's 2D vector-field visualization lives.
func (m *Mesh) SurfaceNodes() []int32 {
	var out []int32
	for id, g := range m.Nodes {
		if g[2] == 0 {
			out = append(out, int32(id))
		}
	}
	return out
}

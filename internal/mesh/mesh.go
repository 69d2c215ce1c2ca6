// Package mesh implements the octree-based hexahedral mesh generator used
// by the earthquake simulation (the Etree method of Tu, O'Hallaron and
// Lopez): leaves of a 2:1-balanced octree are the finite elements, refined
// so that the local element size resolves the shortest seismic wavelength
// (Vs / (pointsPerWavelength * fmax)). Nodes are the deduplicated element
// corners; corner nodes lying on the edge or face of a coarser neighbor are
// "hanging" and carry an interpolation constraint.
package mesh

import (
	"fmt"
	"math"

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

	Nodes     []GridCoord
	NodeIndex map[GridCoord]int32
	Elems     []Elem // Elems[i] corresponds to Tree.Leaves[i]

	Hanging []Constraint  // sorted by node id; masters fully resolved
	hangSet map[int32]int // node id -> index into Hanging
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
// (already balanced) octree.
func FromTree(tree *octree.Tree, domain float64, model Model) *Mesh {
	m := &Mesh{
		Tree:      tree,
		Domain:    domain,
		NodeIndex: make(map[GridCoord]int32),
	}
	// Corner offsets in units of the leaf's grid step.
	corner := func(c octree.Cell, i int) GridCoord {
		x, y, z := c.Anchor()
		step := uint32(1) << (octree.MaxLevel - c.Level)
		return GridCoord{
			x + step*uint32(i&1),
			y + step*uint32(i>>1&1),
			z + step*uint32(i>>2&1),
		}
	}
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
			e.N[i] = node(corner(leaf, i))
		}
		if model != nil {
			e.Mat = model.At(leaf.Center())
		}
		m.Elems[li] = e
	}
	m.findHanging()
	return m
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
// 2:1-balanced tree this enumeration is exhaustive. Constraints whose
// masters are themselves hanging are resolved transitively.
func (m *Mesh) findHanging() {
	raw := make(map[int32][]int32)
	for li := range m.Elems {
		e := &m.Elems[li]
		for _, ed := range hexEdges {
			a, b := m.Nodes[e.N[ed[0]]], m.Nodes[e.N[ed[1]]]
			mid := midpoint(a, b)
			if id, ok := m.NodeIndex[mid]; ok {
				if _, dup := raw[id]; !dup {
					raw[id] = []int32{e.N[ed[0]], e.N[ed[1]]}
				}
			}
		}
		for _, fc := range hexFaces {
			a, d := m.Nodes[e.N[fc[0]]], m.Nodes[e.N[fc[3]]]
			ctr := midpoint(a, d)
			if id, ok := m.NodeIndex[ctr]; ok {
				// A face center beats any edge-midpoint interpretation.
				raw[id] = []int32{e.N[fc[0]], e.N[fc[1]], e.N[fc[2]], e.N[fc[3]]}
			}
		}
	}
	// Resolve chains: replace hanging masters by their own masters until
	// all masters are free nodes. Levels strictly coarsen along the chain,
	// so this terminates.
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
		// Keep equal-weight masters only if the weights are uniform;
		// otherwise encode weights by repetition is wrong — but for a
		// 2:1-balanced octree every resolved constraint remains a uniform
		// average, so assert and flatten.
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
			// Fall back to direct masters (still correct to one level).
			return append([]int32(nil), raw[id]...)
		}
		sortInt32(out)
		return out
	}
	m.hangSet = make(map[int32]int, len(raw))
	ids := make([]int32, 0, len(raw))
	for id := range raw {
		ids = append(ids, id)
	}
	sortInt32(ids)
	for _, id := range ids {
		m.hangSet[id] = len(m.Hanging)
		m.Hanging = append(m.Hanging, Constraint{Node: id, Masters: resolve(id)})
	}
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// IsHanging reports whether node id carries a constraint.
func (m *Mesh) IsHanging(id int32) bool {
	_, ok := m.hangSet[id]
	return ok
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

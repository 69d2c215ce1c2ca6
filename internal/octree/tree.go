package octree

import (
	"sort"
)

// Tree is a linear octree: a set of disjoint leaf cells that tile the unit
// cube, stored in preorder (Morton/Key) order.
type Tree struct {
	Leaves []Cell
}

// Build constructs a tree by top-down refinement: refine(c) is consulted
// for every cell starting at the root; if it returns true and c.Level <
// maxLevel, c is subdivided. The result is sorted in Key order.
func Build(maxLevel uint8, refine func(Cell) bool) *Tree {
	if maxLevel > MaxLevel {
		panic("octree: maxLevel exceeds MaxLevel")
	}
	var leaves []Cell
	var rec func(c Cell)
	rec = func(c Cell) {
		if c.Level < maxLevel && refine(c) {
			for i := 0; i < 8; i++ {
				rec(c.Child(i))
			}
			return
		}
		leaves = append(leaves, c)
	}
	rec(Root)
	t := &Tree{Leaves: leaves}
	t.sortLeaves()
	return t
}

// FromLeaves builds a tree from an explicit leaf set (which must be
// disjoint and cover the domain).
func FromLeaves(leaves []Cell) *Tree {
	t := &Tree{Leaves: append([]Cell(nil), leaves...)}
	t.sortLeaves()
	return t
}

func (t *Tree) sortLeaves() {
	sort.Slice(t.Leaves, func(i, j int) bool { return t.Leaves[i].Key() < t.Leaves[j].Key() })
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return len(t.Leaves) }

// MaxDepth returns the deepest leaf level.
func (t *Tree) MaxDepth() uint8 {
	var d uint8
	for _, c := range t.Leaves {
		if c.Level > d {
			d = c.Level
		}
	}
	return d
}

// Balance21 enforces the 2:1 rule across all 26 neighbor directions:
// adjacent leaves differ by at most one level. It returns a new tree;
// the receiver is unchanged.
func (t *Tree) Balance21() *Tree {
	leafSet := make(map[Cell]bool, len(t.Leaves))
	for _, c := range t.Leaves {
		leafSet[c] = true
	}
	// find returns the current leaf containing p.
	find := func(p [3]float64) (Cell, bool) {
		for l := uint8(0); l <= MaxLevel; l++ {
			c := CellAt(p, l)
			if leafSet[c] {
				return c, true
			}
		}
		return Cell{}, false
	}
	queue := append([]Cell(nil), t.Leaves...)
	sort.Slice(queue, func(i, j int) bool { return queue[i].Key() < queue[j].Key() })
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if !leafSet[c] {
			continue // split since enqueue
		}
		if c.Level < 2 {
			continue // no neighbor can violate 2:1 against level<2
		}
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					nb, ok := c.Neighbor(dx, dy, dz)
					if !ok {
						continue
					}
					leaf, found := find(nb.Center())
					if !found {
						continue
					}
					for leaf.Level+1 < c.Level {
						// Split the too-coarse leaf.
						delete(leafSet, leaf)
						for i := 0; i < 8; i++ {
							ch := leaf.Child(i)
							leafSet[ch] = true
							queue = append(queue, ch)
						}
						leaf, _ = find(nb.Center())
					}
				}
			}
		}
	}
	out := make([]Cell, 0, len(leafSet))
	for c := range leafSet {
		out = append(out, c)
	}
	return FromLeaves(out)
}

// Block is a unit of data distribution: the subtree rooted at Root
// containing the listed leaf indices.
type Block struct {
	Root   Cell
	Leaves []int // indices into Tree.Leaves, in Key order
}

// Blocks partitions the leaves into subtrees at blockLevel. Leaves coarser
// than blockLevel become single-leaf blocks of their own. Blocks are
// returned in Key order of their roots.
func (t *Tree) Blocks(blockLevel uint8) []Block {
	group := make(map[Cell][]int)
	for i, c := range t.Leaves {
		root := c
		if c.Level > blockLevel {
			root = c.AncestorAt(blockLevel)
		}
		group[root] = append(group[root], i)
	}
	roots := make([]Cell, 0, len(group))
	for r := range group {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Key() < roots[j].Key() })
	out := make([]Block, len(roots))
	for i, r := range roots {
		out[i] = Block{Root: r, Leaves: group[r]}
	}
	return out
}

// VisibilityOrder returns the indices of the given disjoint cells in
// front-to-back order for an orthographic view along dir. The order is
// exact for octree cells: the tree is traversed from the root visiting the
// eight children of each node nearest-first.
func VisibilityOrder(cells []Cell, dir [3]float64) []int {
	// Record every ancestor of the input cells so traversal knows where to
	// descend, and map each cell to its index.
	present := make(map[Cell]int, len(cells))
	ancestors := make(map[Cell]bool)
	for i, c := range cells {
		present[c] = i
		a := c
		for a.Level > 0 {
			a = a.Parent()
			ancestors[a] = true
		}
	}
	// Child visit order: sort the 8 child offsets by projection along dir.
	type co struct {
		idx int
		d   float64
	}
	order := make([]co, 8)
	for i := 0; i < 8; i++ {
		ox := float64(i & 1)
		oy := float64(i >> 1 & 1)
		oz := float64(i >> 2 & 1)
		order[i] = co{i, ox*dir[0] + oy*dir[1] + oz*dir[2]}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].d < order[b].d })

	out := make([]int, 0, len(cells))
	var visit func(c Cell)
	visit = func(c Cell) {
		if i, ok := present[c]; ok {
			out = append(out, i)
			return
		}
		if !ancestors[c] {
			return
		}
		for _, o := range order {
			visit(c.Child(o.idx))
		}
	}
	visit(Root)
	return out
}

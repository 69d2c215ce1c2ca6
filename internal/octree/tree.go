package octree

import (
	"cmp"
	"slices"
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

// sortLeaves puts the leaves in Key order. Leaves already in it (Build's
// recursion and a stored mesh produce them so) are left alone; otherwise
// each key is computed once and the leaves are sorted on them.
func (t *Tree) sortLeaves() {
	byKey := func(a, b Cell) int { return cmp.Compare(a.Key(), b.Key()) }
	if slices.IsSortedFunc(t.Leaves, byKey) {
		return
	}
	keyed := make([]keyedCell, len(t.Leaves))
	for i, c := range t.Leaves {
		keyed[i] = keyedCell{c.Key(), c}
	}
	slices.SortFunc(keyed, func(a, b keyedCell) int { return cmp.Compare(a.key, b.key) })
	for i, k := range keyed {
		t.Leaves[i] = k.cell
	}
}

// keyedCell is a cell with its Key, the sort record of sortLeaves.
type keyedCell struct {
	key  uint64
	cell Cell
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
//
// It sweeps the levels finest first. At level L, the level-(L-1) cell
// around each neighbor of a level-L leaf must not lie strictly inside a
// coarser leaf; a binary search of the Key-sorted leaves finds the leaf
// that holds it, and the sweep then splits every such leaf down to the
// cells found, in one Key-ordered merge. A sweep only makes leaves coarser
// than its level, which later sweeps check, and every split it makes is
// forced by the rule, so the result is the coarsest balanced refinement.
func (t *Tree) Balance21() *Tree {
	leaves := FromLeaves(t.Leaves).Leaves
	var keys []uint64
	var need []Cell
	for level := int(t.MaxDepth()); level >= 2; level-- {
		keys = keys[:0]
		for _, c := range leaves {
			keys = append(keys, c.Key())
		}
		need = need[:0]
		for _, c := range leaves {
			if int(c.Level) != level {
				continue
			}
			// The parents of c's neighbors: c's parent, and its neighbors
			// on the sides of it that c touches.
			p := c.Parent()
			sx, sy, sz := side(c.X), side(c.Y), side(c.Z)
			for e := 1; e < 8; e++ {
				q, ok := p.Neighbor(sx*(e&1), sy*(e>>1&1), sz*(e>>2))
				if !ok {
					continue
				}
				i, found := slices.BinarySearch(keys, q.Key())
				if !found && i > 0 && leaves[i-1].Contains(q) {
					need = append(need, q) // inside a leaf coarser than q
				}
			}
		}
		if len(need) == 0 {
			continue
		}
		slices.SortFunc(need, func(a, b Cell) int { return cmp.Compare(a.Key(), b.Key()) })
		need = slices.Compact(need)
		out, rest := make([]Cell, 0, len(leaves)+7*len(need)), need
		for _, c := range leaves {
			k := 0
			for k < len(rest) && c.Contains(rest[k]) {
				k++
			}
			out = splitDown(out, c, rest[:k])
			rest = rest[k:]
		}
		leaves = out
	}
	return &Tree{Leaves: leaves}
}

// side is -1 for a cell at the low half of its parent along an axis
// (coordinate x), +1 at the high half.
func side(x uint32) int { return int(x&1)*2 - 1 }

// splitDown appends c to out, or, when c strictly contains cells of need
// (Key-sorted, all of one level), the leaves that split c just far enough
// for each of them to be a leaf, in Key order.
func splitDown(out []Cell, c Cell, need []Cell) []Cell {
	if len(need) == 0 || need[0] == c {
		return append(out, c)
	}
	for i := 0; i < 8; i++ {
		ch := c.Child(i)
		k := 0
		for k < len(need) && ch.Contains(need[k]) {
			k++
		}
		out = splitDown(out, ch, need[:k])
		need = need[k:]
	}
	return out
}

// Block is a unit of data distribution: the subtree rooted at Root
// containing the listed leaf indices.
type Block struct {
	Root   Cell
	Leaves []int // indices into Tree.Leaves, in Key order
}

// Blocks partitions the leaves into subtrees at blockLevel. Leaves coarser
// than blockLevel become single-leaf blocks of their own. Blocks are
// returned in Key order of their roots. A subtree's leaves are contiguous
// in Key order, so one pass over the leaves groups them, and a block's
// leaf indices are a run of consecutive ones.
func (t *Tree) Blocks(blockLevel uint8) []Block {
	idx := make([]int, len(t.Leaves))
	var out []Block
	start := 0
	for i, c := range t.Leaves {
		idx[i] = i
		root := c
		if c.Level > blockLevel {
			root = c.AncestorAt(blockLevel)
		}
		if n := len(out); n > 0 && out[n-1].Root == root {
			continue
		}
		if n := len(out); n > 0 {
			out[n-1].Leaves = idx[start:i:i]
		}
		out = append(out, Block{Root: root})
		start = i
	}
	if n := len(out); n > 0 {
		out[n-1].Leaves = idx[start:]
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

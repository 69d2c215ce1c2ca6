package octree

// The oracle for the octree set-up passes every dataset load runs: the
// 2:1 balance's leaf search and the block partition as they were built on
// maps, before Balance21 probed outward from the querying leaf's level and
// Blocks grouped the Key-ordered leaves in one pass.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// frozenBalance21 is Balance21 with its leaf search probing every level
// from the root down.
func frozenBalance21(t *Tree) *Tree {
	leafSet := make(map[Cell]bool, len(t.Leaves))
	for _, c := range t.Leaves {
		leafSet[c] = true
	}
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
		if !leafSet[c] || c.Level < 2 {
			continue
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

// frozenBlocks is Blocks grouping the leaves by root in a map and sorting
// the roots.
func frozenBlocks(t *Tree, blockLevel uint8) []Block {
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

// TestSetupMatchesFrozen holds Balance21 and Blocks to the map-based
// bodies they replaced: the same leaves, and at every block level the same
// roots with the same leaf indices, on uniform, graded, basin-like and
// random trees, each as built and balanced.
func TestSetupMatchesFrozen(t *testing.T) {
	trees := map[string]*Tree{
		"uniform": Build(4, func(Cell) bool { return true }),
		"graded":  Build(6, func(c Cell) bool { return c.Level < 2 || float64(c.Level) < 6-10*c.Center()[2] }),
		"basin": Build(6, func(c Cell) bool {
			p := c.Center()
			d := (p[0]-0.5)*(p[0]-0.5) + (p[1]-0.5)*(p[1]-0.5) + p[2]*p[2]
			return c.Level < 3 || d < 0.09 && c.Level < 6 || d < 0.02
		}),
		"root": FromLeaves([]Cell{Root}),
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trees[fmt.Sprintf("random%d", seed)] = Build(6, func(c Cell) bool { return c.Level < 1 || rng.Float64() < 0.3 })
	}
	for name, raw := range trees {
		got, want := raw.Balance21(), frozenBalance21(raw)
		if !slices.Equal(got.Leaves, want.Leaves) {
			t.Fatalf("%s: Balance21 gives %d leaves, the frozen body %d, or other ones", name, got.Len(), want.Len())
		}
		for _, tr := range []*Tree{raw, got} {
			for bl := uint8(0); bl <= tr.MaxDepth()+1; bl++ {
				gb, wb := tr.Blocks(bl), frozenBlocks(tr, bl)
				if !slices.EqualFunc(gb, wb, func(a, b Block) bool { return a.Root == b.Root && slices.Equal(a.Leaves, b.Leaves) }) {
					t.Fatalf("%s: Blocks(%d) gives %d blocks, the frozen body %d, or other ones", name, bl, len(gb), len(wb))
				}
			}
		}
	}
}

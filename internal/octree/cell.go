package octree

import (
	"fmt"
	"math"
)

// Cell identifies one octant: integer coordinates X,Y,Z in [0, 2^Level) at
// refinement level Level. The root is Cell{0,0,0,0}. Cells are axis-aligned
// cubes in the unit cube [0,1)^3; physical domains scale them uniformly.
type Cell struct {
	X, Y, Z uint32
	Level   uint8
}

// Root is the whole-domain cell.
var Root = Cell{}

// String renders the cell as level and anchor grid coordinates.
func (c Cell) String() string {
	return fmt.Sprintf("L%d(%d,%d,%d)", c.Level, c.X, c.Y, c.Z)
}

// Valid reports whether the coordinates are in range for the level.
func (c Cell) Valid() bool {
	if c.Level > MaxLevel {
		return false
	}
	n := uint32(1) << c.Level
	return c.X < n && c.Y < n && c.Z < n
}

// Size returns the edge length of the cell in unit-cube coordinates: 2^-Level,
// assembled from its exponent bits (exact, like the division it replaces).
func (c Cell) Size() float64 { return math.Float64frombits(uint64(1023-int(c.Level)) << 52) }

// Bounds returns the min and max corners of the cell in the unit cube.
func (c Cell) Bounds() (min, max [3]float64) {
	h := c.Size()
	min = [3]float64{float64(c.X) * h, float64(c.Y) * h, float64(c.Z) * h}
	max = [3]float64{min[0] + h, min[1] + h, min[2] + h}
	return
}

// Center returns the midpoint of the cell.
func (c Cell) Center() [3]float64 {
	h := c.Size()
	return [3]float64{(float64(c.X) + 0.5) * h, (float64(c.Y) + 0.5) * h, (float64(c.Z) + 0.5) * h}
}

// Anchor returns the cell's min-corner coordinates at MaxLevel resolution.
func (c Cell) Anchor() (x, y, z uint32) {
	s := MaxLevel - c.Level
	return c.X << s, c.Y << s, c.Z << s
}

// Key returns a totally ordered identifier: Morton code of the anchor,
// with the level in the low bits so that an ancestor sorts immediately
// before its descendants (preorder position).
func (c Cell) Key() uint64 {
	x, y, z := c.Anchor()
	return Morton(x, y, z)<<5 | uint64(c.Level)
}

// Parent returns the containing cell one level up. Parent of the root is
// the root.
func (c Cell) Parent() Cell {
	if c.Level == 0 {
		return c
	}
	return Cell{X: c.X >> 1, Y: c.Y >> 1, Z: c.Z >> 1, Level: c.Level - 1}
}

// Child returns child i (Morton order: bit0=x, bit1=y, bit2=z).
func (c Cell) Child(i int) Cell {
	return Cell{
		X:     c.X<<1 | uint32(i)&1,
		Y:     c.Y<<1 | uint32(i>>1)&1,
		Z:     c.Z<<1 | uint32(i>>2)&1,
		Level: c.Level + 1,
	}
}

// AncestorAt returns the ancestor of c at the given (coarser or equal)
// level. It panics if level > c.Level.
func (c Cell) AncestorAt(level uint8) Cell {
	if level > c.Level {
		panic(fmt.Sprintf("octree: AncestorAt(%d) of %v", level, c))
	}
	s := c.Level - level
	return Cell{X: c.X >> s, Y: c.Y >> s, Z: c.Z >> s, Level: level}
}

// Contains reports whether d lies within c's subtree (d at equal or deeper
// level with matching ancestor coordinates).
func (c Cell) Contains(d Cell) bool {
	if d.Level < c.Level {
		return false
	}
	return d.AncestorAt(c.Level) == c
}

// Neighbor returns the face neighbor at the same level in direction
// (dx,dy,dz) each in {-1,0,1}; ok is false if it falls outside the domain.
func (c Cell) Neighbor(dx, dy, dz int) (Cell, bool) {
	n := int64(1) << c.Level
	x, y, z := int64(c.X)+int64(dx), int64(c.Y)+int64(dy), int64(c.Z)+int64(dz)
	if x < 0 || y < 0 || z < 0 || x >= n || y >= n || z >= n {
		return Cell{}, false
	}
	return Cell{X: uint32(x), Y: uint32(y), Z: uint32(z), Level: c.Level}, true
}

// CellAt returns the cell of the given level containing unit-cube point p.
// Points outside [0,1)^3 are clamped to the domain, at any distance: a
// coordinate >= 1, +Inf included, is clamped before it is converted (the
// conversion of v*2^level would overflow), while for 0 < v < 1 the product
// is exact and below 2^level.
func CellAt(p [3]float64, level uint8) Cell {
	n := uint32(1) << level
	idx := func(v float64) uint32 {
		switch {
		case v <= 0:
			return 0
		case v >= 1:
			return n - 1
		}
		return uint32(v * float64(n))
	}
	return Cell{X: idx(p[0]), Y: idx(p[1]), Z: idx(p[2]), Level: level}
}

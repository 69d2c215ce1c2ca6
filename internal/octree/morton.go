// Package octree implements the linear (Morton-keyed) octree used as the
// spatial encoding of the earthquake mesh. Leaves of the octree are the
// hexahedral finite elements (axis-aligned cubes, as produced by the
// Etree-style mesh generator); interior levels provide the coarser
// resolutions used by adaptive rendering and adaptive fetching; subtrees at
// a fixed "block level" are the data-distribution unit handed to rendering
// processors.
package octree

// MaxLevel is the deepest supported refinement level. Coordinates at
// MaxLevel use 16 bits per axis, so a full Morton code needs 48 bits.
const MaxLevel = 16

// part1By2 spreads the low 21 bits of x so there are two zero bits between
// each original bit (bit i of x lands at position 3i). The magic constants
// are the standard 21-bit 3D Morton masks.
func part1By2(x uint32) uint64 {
	v := uint64(x) & 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// Morton interleaves three 16-bit coordinates into a 48-bit Morton code
// (x in bit 0, y in bit 1, z in bit 2 of each triple).
func Morton(x, y, z uint32) uint64 {
	return part1By2(x) | part1By2(y)<<1 | part1By2(z)<<2
}

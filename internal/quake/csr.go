package quake

import (
	"math"
	"slices"

	"repro/internal/mesh"
)

// csrStiffness is the assembled global stiffness matrix -K in compressed
// sparse row form over 3x3 nodal blocks: row i holds the blocks coupling
// node i to its (sorted) neighbor nodes. It is built once in NewSolver and
// replaces the per-element gather/scatter apply in the inner time loop —
// one multiply-add per stored coefficient instead of the dense 24x24
// element matvecs, and no per-step indirection through the element table.
//
// A block's value depends only on the sizes and materials of the elements
// that share its two nodes, and an octree mesh has few of those, so few
// distinct blocks: each stored block is a column and an index into tab, the
// table of the distinct blocks, 8 B where the 9 coefficients would take 72.
// The saving rests on that property, measured as the distinct share of the
// stored blocks: 0.6% on the benchmark's basin-l (44 distinct element
// (h*lambda, h*mu) pairs), 1.8% on quakesim's default DefaultBasin mesh
// (2,473 pairs among 247,808 elements). A node row holds ~25 blocks, so -K
// costs ~200-250 B per node there. Where blocks repeat less the layout
// gains less: on a mesh of per-element materials, 38% distinct, -K takes
// half the bytes but the SpMV runs no faster than with the coefficients
// inline, and interning makes buildCSR take about twice as long. A mesh
// whose every block were distinct would pay 80 B per stored block,
// against 76 inline.
//
// Values store -K directly so mulRange yields the internal elastic force
// f = -K x without a sign pass. Rows are independent, so the solver splits
// the row range into bands and still produces bit-identical results for
// any band count (unlike element-chunked assembly, whose partial-buffer
// reduction reassociates the additions).
type csrStiffness struct {
	n      int          // number of node rows (3n scalar dofs)
	rowPtr []int32      // len n+1, block offsets per node row
	col    []int32      // len nnzb, neighbor node id, ascending within a row
	blk    []int32      // len nnzb, index into tab of the row-major block
	tab    [][9]float64 // the distinct blocks, each stored once
}

// buildCSR assembles -K for the mesh. For every node the incident elements
// are visited in element-index order, so each stored coefficient is the
// deterministic sum of its element contributions h*(lambda*KLambda +
// mu*KMu) regardless of worker counts.
//
// A row's neighbor positions come from a stamp per node, and each
// finished block is interned by its 72 bits (so -0 and +0 stay distinct) in
// a flat open-addressed index over the table, with no staging of 9 floats
// per stored block. A Go map keyed on the bits built -K ~10% slower on
// basin-l and on quakesim's default mesh, and twice as slowly where blocks
// repeat little (0.29 -> 0.57 s on a mesh of per-element materials).
func buildCSR(m *mesh.Mesh) *csrStiffness {
	n := m.NumNodes()
	a := &csrStiffness{n: n, rowPtr: make([]int32, n+1)}

	// Node -> incident (element, corner) incidence via counting sort.
	incPtr := make([]int32, n+1)
	for ei := range m.Elems {
		for _, nid := range m.Elems[ei].N {
			incPtr[nid+1]++
		}
	}
	for i := 0; i < n; i++ {
		incPtr[i+1] += incPtr[i]
	}
	incElem := make([]int32, incPtr[n])
	incCorner := make([]uint8, incPtr[n])
	fill := make([]int32, n)
	for ei := range m.Elems {
		for a8, nid := range m.Elems[ei].N {
			k := incPtr[nid] + fill[nid]
			incElem[k] = int32(ei)
			incCorner[k] = uint8(a8)
			fill[nid]++
		}
	}

	// Per-element combined coefficients h*lambda and h*mu.
	hl := make([]float64, len(m.Elems))
	hm := make([]float64, len(m.Elems))
	for ei := range m.Elems {
		e := &m.Elems[ei]
		h := e.Leaf.Size() * m.Domain
		lambda, mu := e.Mat.Lame()
		hl[ei] = h * lambda
		hm[ei] = h * mu
	}

	// Row lengths: the distinct nodes of a row's incident elements, counted
	// with a per-node stamp of the last row that saw it.
	stamp := make([]int32, n)
	clearStamp := func() {
		for j := range stamp {
			stamp[j] = -1
		}
	}
	clearStamp()
	for i := 0; i < n; i++ {
		cnt := int32(0)
		for k := incPtr[i]; k < incPtr[i+1]; k++ {
			for _, j := range m.Elems[incElem[k]].N {
				if stamp[j] != int32(i) {
					stamp[j] = int32(i)
					cnt++
				}
			}
		}
		a.rowPtr[i+1] = a.rowPtr[i] + cnt
	}
	nnzb := a.rowPtr[n]
	a.col = make([]int32, nnzb)
	a.blk = make([]int32, nnzb)

	// Assemble row by row: gather and sort the row's columns, note each
	// one's position, accumulate each incident element's 3x3 couplings into
	// per-position blocks in element order, then intern the negated blocks.
	// A node has at most 8 incident elements, so a row at most 64 blocks.
	clearStamp()
	pos := make([]int32, n) // a node's position in the current row
	var acc [64][9]float64
	in := newBlockIndex()
	for i := 0; i < n; i++ {
		cols := a.col[a.rowPtr[i]:a.rowPtr[i+1]]
		cnt := 0
		for k := incPtr[i]; k < incPtr[i+1]; k++ {
			for _, j := range m.Elems[incElem[k]].N {
				if stamp[j] != int32(i) {
					stamp[j] = int32(i)
					cols[cnt] = j
					cnt++
				}
			}
		}
		slices.Sort(cols)
		for p, j := range cols {
			pos[j] = int32(p)
			acc[p] = [9]float64{}
		}
		for k := incPtr[i]; k < incPtr[i+1]; k++ {
			ei := incElem[k]
			l, mcoef := hl[ei], hm[ei]
			ra := 3 * int(incCorner[k])
			for b, j := range m.Elems[ei].N {
				d := &acc[pos[j]]
				cb := 3 * b
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						d[3*r+c] += l*KLambda[ra+r][cb+c] + mcoef*KMu[ra+r][cb+c]
					}
				}
			}
		}
		blks := a.blk[a.rowPtr[i]:a.rowPtr[i+1]]
		for p := range blks {
			d := &acc[p]
			for q := range d {
				d[q] = -d[q]
			}
			blks[p] = in.intern(d)
		}
	}
	a.tab = in.tab
	return a
}

// blockIndex interns 3x3 blocks by their bits: tab holds each distinct
// block once, and slot is a flat open-addressed index over it (1 + the
// table index, 0 for an empty slot), 2^(64-shift) slots at most half full.
type blockIndex struct {
	tab   [][9]float64
	slot  []int32
	shift uint
}

func newBlockIndex() *blockIndex { return &blockIndex{slot: make([]int32, 1<<10), shift: 64 - 10} }

// blockHash mixes the 72 bits of a block into a slot of an index of
// 2^(64-shift) slots (Fibonacci hashing on the top bits).
func blockHash(b *[9]float64, shift uint) uint64 {
	h := uint64(0)
	for _, v := range b {
		h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return (h * 0x9e3779b97f4a7c15) >> shift
}

// sameBits reports whether two blocks are equal bit for bit.
func sameBits(x, y *[9]float64) bool {
	for q := range x {
		if math.Float64bits(x[q]) != math.Float64bits(y[q]) {
			return false
		}
	}
	return true
}

// intern returns the table index of the block with b's bits, appending b
// as a new entry if there is none.
func (x *blockIndex) intern(b *[9]float64) int32 {
	mask := uint64(len(x.slot) - 1)
	for s := blockHash(b, x.shift); ; s = (s + 1) & mask {
		e := x.slot[s]
		if e == 0 {
			x.tab = append(x.tab, *b)
			x.slot[s] = int32(len(x.tab))
			if 2*len(x.tab) > len(x.slot) {
				x.grow()
			}
			return int32(len(x.tab) - 1)
		}
		if sameBits(&x.tab[e-1], b) {
			return e - 1
		}
	}
}

// grow doubles the index and reinserts every table entry.
func (x *blockIndex) grow() {
	x.slot = make([]int32, 2*len(x.slot))
	x.shift--
	mask := uint64(len(x.slot) - 1)
	for e := range x.tab {
		s := blockHash(&x.tab[e], x.shift)
		for x.slot[s] != 0 {
			s = (s + 1) & mask
		}
		x.slot[s] = int32(e + 1)
	}
}

// mulRange computes dst[3i:3i+3] = sum_j block(i,j) * x[3j:3j+3] for node
// rows [lo, hi). dst is overwritten, not accumulated. Each row reads its
// columns and block indices as subslices of equal length, so the inner
// loop checks bounds only on the table entry and on x.
func (a *csrStiffness) mulRange(dst, x []float64, lo, hi int) {
	tab := a.tab
	for i := lo; i < hi; i++ {
		k0, k1 := a.rowPtr[i], a.rowPtr[i+1]
		col := a.col[k0:k1]
		blk := a.blk[k0:k1]
		blk = blk[:len(col)]
		var s0, s1, s2 float64
		for k, j := range col {
			v := &tab[blk[k]]
			xj := (*[3]float64)(x[3*int(j):])
			x0, x1, x2 := xj[0], xj[1], xj[2]
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2
			s1 += v[3]*x0 + v[4]*x1 + v[5]*x2
			s2 += v[6]*x0 + v[7]*x1 + v[8]*x2
		}
		d := (*[3]float64)(dst[3*i:])
		d[0], d[1], d[2] = s0, s1, s2
	}
}

// csrParallelMin is the row count below which the SpMV stays serial; tiny
// meshes are dominated by dispatch.
const csrParallelMin = 2048

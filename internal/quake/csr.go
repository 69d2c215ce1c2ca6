package quake

import (
	"sync"

	"repro/internal/mesh"
)

// csrStiffness is the assembled global stiffness matrix -K in compressed
// sparse row form over 3x3 nodal blocks: row i holds the blocks coupling
// node i to its (sorted) neighbor nodes. It is built once in NewSolver and
// replaces the per-element gather/scatter apply in the inner time loop —
// one multiply-add per stored coefficient instead of the dense 24x24
// element matvecs, and no per-step indirection through the element table.
//
// Values store -K directly so MulVec yields the internal elastic force
// f = -K x without a sign pass. Rows are independent, so MulVec can split
// the row range across workers and still produce bit-identical results for
// any worker count (unlike element-chunked assembly, whose partial-buffer
// reduction reassociates the additions).
type csrStiffness struct {
	n      int       // number of node rows (3n scalar dofs)
	rowPtr []int32   // len n+1, block offsets per node row
	col    []int32   // len nnzb, neighbor node id, ascending within a row
	val    []float64 // len 9*nnzb, row-major 3x3 block per entry
}

// nbrSet is a small sorted insert-only set of node ids, sized for the worst
// case of a hexahedral mesh node: 8 incident elements x 8 corners.
type nbrSet struct {
	ids [64]int32
	n   int
}

// add inserts id keeping ids sorted; returns its position.
func (s *nbrSet) add(id int32) int {
	lo, hi := 0, s.n
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.n && s.ids[lo] == id {
		return lo
	}
	copy(s.ids[lo+1:s.n+1], s.ids[lo:s.n])
	s.ids[lo] = id
	s.n++
	return lo
}

// find returns the position of id, which must be present.
func (s *nbrSet) find(id int32) int {
	lo, hi := 0, s.n
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// buildCSR assembles -K for the mesh. For every node the incident elements
// are visited in element-index order, so each stored coefficient is the
// deterministic sum of its element contributions
// h*(lambda*KLambda + mu*KMu) regardless of worker counts.
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

	// Assemble row by row: gather the sorted neighbor set of node i, then
	// accumulate each incident element's 3x3 couplings into per-neighbor
	// blocks, in element order.
	a.col = make([]int32, 0, 27*n)
	a.val = make([]float64, 0, 9*27*n)
	var set nbrSet
	var blk [64][9]float64
	for i := 0; i < n; i++ {
		set.n = 0
		for k := incPtr[i]; k < incPtr[i+1]; k++ {
			for _, j := range m.Elems[incElem[k]].N {
				set.add(j)
			}
		}
		for p := 0; p < set.n; p++ {
			blk[p] = [9]float64{}
		}
		for k := incPtr[i]; k < incPtr[i+1]; k++ {
			e := &m.Elems[incElem[k]]
			l, mcoef := hl[incElem[k]], hm[incElem[k]]
			ra := 3 * int(incCorner[k])
			for b := 0; b < 8; b++ {
				p := set.find(e.N[b])
				cb := 3 * b
				d := &blk[p]
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						d[3*r+c] += l*KLambda[ra+r][cb+c] + mcoef*KMu[ra+r][cb+c]
					}
				}
			}
		}
		for p := 0; p < set.n; p++ {
			a.col = append(a.col, set.ids[p])
			b := &blk[p]
			a.val = append(a.val,
				-b[0], -b[1], -b[2], -b[3], -b[4], -b[5], -b[6], -b[7], -b[8])
		}
		a.rowPtr[i+1] = int32(len(a.col))
	}
	return a
}

// mulRange computes dst[3i:3i+3] = sum_j block(i,j) * x[3j:3j+3] for node
// rows [lo, hi). dst is overwritten, not accumulated.
func (a *csrStiffness) mulRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s0, s1, s2 float64
		for k := int(a.rowPtr[i]); k < int(a.rowPtr[i+1]); k++ {
			j := 3 * int(a.col[k])
			v := (*[9]float64)(a.val[9*k:])
			x0, x1, x2 := x[j], x[j+1], x[j+2]
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2
			s1 += v[3]*x0 + v[4]*x1 + v[5]*x2
			s2 += v[6]*x0 + v[7]*x1 + v[8]*x2
		}
		d := 3 * i
		dst[d], dst[d+1], dst[d+2] = s0, s1, s2
	}
}

// csrParallelMin is the row count below which MulVec stays serial; tiny
// meshes are dominated by goroutine dispatch.
const csrParallelMin = 2048

// MulVec computes dst = A x across `workers` goroutines. Every scalar row
// is produced by exactly one goroutine with a fixed accumulation order, so
// the result is bit-identical for any worker count.
func (a *csrStiffness) MulVec(dst, x []float64, workers int) {
	if workers <= 1 || a.n < csrParallelMin {
		a.mulRange(dst, x, 0, a.n)
		return
	}
	chunk := (a.n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < a.n; lo += chunk {
		hi := lo + chunk
		if hi > a.n {
			hi = a.n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			a.mulRange(dst, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

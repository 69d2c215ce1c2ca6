package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mesh"
	"repro/internal/mpiio"
	"repro/internal/octree"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// Dataset is the view-independent half of a real pipeline run: everything
// the paper computes once as preprocessing — the mesh, the octree block
// partition and its per-block tables, the load-balanced block assignment
// and the quantization range. It is built once from (Layout, Options,
// Store) and never written afterwards: the fields are unexported and no
// method mutates them, so any number of RealWorkloads (NewWorkload) may
// share one Dataset across goroutines, each holding only its own view,
// schedule, scratches and frames.
//
// Only the view-independent options shape a Dataset — Level, BlockLevel,
// LIC, MaxSteps and FixedVMax; NewWorkload rejects options that disagree
// with them.
type Dataset struct {
	layout Layout
	opts   Options // the view-independent fields only (see datasetOptions)
	store  pfs.Store
	mesh   *mesh.Mesh
	meta   quake.Meta
	steps  int   // whole-dataset run length: meta.NumSteps clamped by MaxSteps
	level  uint8 // render level, clamped to [BlockLevel, mesh depth]

	roots        []octree.Cell // block roots, in block order (the visibility-order input)
	owner        []int         // block -> renderer
	rblocks      [][]int       // renderer -> blocks
	rblockPos    []int         // block -> position in its owner's rblocks list
	blockCells   [][]octree.Cell
	blockBD      []*render.BlockData // per-block template with prebuilt index
	blockCorner  [][][8]int32
	blockNodeIDs [][]int32
	// blockCornerLocal[bi][ci][k] is the index of blockCorner[bi][ci][k]
	// within blockNodeIDs[bi] — the flat replacement for the old per-block
	// node-id map, so the per-frame value scatter does no map lookups.
	blockCornerLocal [][][8]int32
	collIDs          [][]int32 // group part -> merged sorted node ids of the blocks it reads collectively

	allNeeded []int32 // union of node ids at the render level, sorted

	surfID  []int32 // surface nodes (LIC only)
	surfPos [][3]float64

	// The file views over those static id sets, committed once (Section
	// 5.3 builds the derived datatype from the octree once; only the step
	// object changes): collView[part] selects collIDs[part], needView[part]
	// that part's slice of allNeeded (needed), surfView selects surfID.
	// Every rank, session and Reopen shares them read-only.
	collView []mpiio.Datatype
	needView []mpiio.Datatype
	surfView mpiio.Datatype

	// stepNames caches every step's object name (PR 4): the fetch loop
	// opens one object per timestep, and formatting the name there was the
	// last per-step allocation of the read path. It covers the whole
	// dataset (not just the configured run length) so a step window can be
	// re-aimed anywhere without reformatting names.
	stepNames []string

	vmax float32
}

// datasetOptions keeps only the options a Dataset depends on, so two
// option sets can be compared for "same dataset half".
func datasetOptions(o Options) Options {
	return Options{Level: o.Level, BlockLevel: o.BlockLevel, LIC: o.LIC, MaxSteps: o.MaxSteps, FixedVMax: o.FixedVMax}
}

// NewDataset loads the dataset and performs the one-time, view-independent
// setup: mesh read, block partition and per-block tables, longest-
// processing-time block balance over l's renderers, collective-read
// ownership over l's group parts, and the quantization range (one scan of
// the run's steps unless opts.FixedVMax pins it).
func NewDataset(l Layout, opts Options, store pfs.Store) (*Dataset, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	m, err := quake.ReadMesh(store)
	if err != nil {
		return nil, fmt.Errorf("core: loading mesh: %w", err)
	}
	meta, err := quake.ReadMeta(store)
	if err != nil {
		return nil, fmt.Errorf("core: loading meta: %w", err)
	}
	if meta.NumNodes != m.NumNodes() {
		return nil, fmt.Errorf("core: meta says %d nodes, mesh has %d", meta.NumNodes, m.NumNodes())
	}
	d := &Dataset{layout: l, opts: datasetOptions(opts), store: store, mesh: m, meta: meta}
	d.steps = meta.NumSteps
	if opts.MaxSteps > 0 && opts.MaxSteps < d.steps {
		d.steps = opts.MaxSteps
	}
	d.stepNames = make([]string, meta.NumSteps)
	for t := range d.stepNames {
		d.stepNames[t] = quake.StepObject(t)
	}
	d.level = max(min(opts.Level, m.Tree.MaxDepth()), opts.BlockLevel)

	// Block partition and static per-block tables.
	blocks := m.Tree.Blocks(opts.BlockLevel)
	nb := len(blocks)
	d.roots = make([]octree.Cell, nb)
	d.blockCells = make([][]octree.Cell, nb)
	d.blockBD = make([]*render.BlockData, nb)
	d.blockCorner = make([][][8]int32, nb)
	d.blockNodeIDs = make([][]int32, nb)
	d.blockCornerLocal = make([][][8]int32, nb)
	zeros := make([]float32, m.NumNodes())
	for bi, b := range blocks {
		d.roots[bi] = b.Root
		bd, err := render.ExtractBlockData(m, zeros, b, d.level)
		if err != nil {
			return nil, err
		}
		d.blockCells[bi] = bd.Cells
		// Template: the static half (cells, point-location index). Each
		// renderer scratch copies it once and owns its per-frame Vals.
		bd.Vals = nil
		d.blockBD[bi] = bd
		corners := make([][8]int32, len(bd.Cells))
		for ci, cell := range bd.Cells {
			ids, err := cellCornerIDs(m, cell)
			if err != nil {
				return nil, err
			}
			corners[ci] = ids
		}
		d.blockCorner[bi] = corners
		d.blockNodeIDs[bi] = render.BlockNodeIDs(m, b, d.level)
		local := make([][8]int32, len(corners))
		for ci, ids := range corners {
			for k, id := range ids {
				pos, ok := slices.BinarySearch(d.blockNodeIDs[bi], id)
				if !ok {
					return nil, fmt.Errorf("core: corner node %d of block %d missing from its node set", id, bi)
				}
				local[ci][k] = int32(pos)
			}
		}
		d.blockCornerLocal[bi] = local
	}

	// Load balance with longest-processing-time assignment: sort the blocks
	// by descending cell count (stable, so equal-sized blocks keep their
	// key order), then place each on the least-loaded renderer. The sort
	// replaces PR 1's O(n^2) selection sort; the resulting max load is
	// identical because the greedy placement only sees the size sequence.
	d.owner = make([]int, nb)
	d.rblocks = make([][]int, l.Renderers)
	order := make([]int, nb)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(d.blockCells[order[a]]) > len(d.blockCells[order[b]])
	})
	load := make([]int, l.Renderers)
	for _, bi := range order {
		best := 0
		for r := 1; r < l.Renderers; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		d.owner[bi] = best
		load[best] += len(d.blockCells[bi])
		d.rblocks[best] = append(d.rblocks[best], bi)
	}
	// rblockPos flattens the block->slot lookup the renderers' value merge
	// uses instead of a per-frame map.
	d.rblockPos = make([]int, nb)
	for _, blocks := range d.rblocks {
		for pos, bi := range blocks {
			d.rblockPos[bi] = pos
		}
	}

	// Collective-read ownership: split renderers among the m group parts,
	// and precompute each part's merged sorted node-id set — it is static,
	// so the per-step collective fetch does no merge or sort.
	partSets := make([][][]int32, l.IPsPerGroup)
	for bi, ids := range d.blockNodeIDs {
		p := d.owner[bi] % l.IPsPerGroup
		partSets[p] = append(partSets[p], ids)
	}
	d.collIDs = make([][]int32, l.IPsPerGroup)
	d.collView = make([]mpiio.Datatype, l.IPsPerGroup)
	for p, sets := range partSets {
		d.collIDs[p] = sortedUnion(sets)
		if d.collView[p], err = commitNodeView(d.collIDs[p]); err != nil {
			return nil, err
		}
	}

	// Union of needed node ids (for adaptive independent fetch), one view
	// per part's slice of it.
	d.allNeeded = sortedUnion(d.blockNodeIDs)
	d.needView = make([]mpiio.Datatype, l.IPsPerGroup)
	for p := range d.needView {
		if d.needView[p], err = commitNodeView(d.needed(p)); err != nil {
			return nil, err
		}
	}

	// Surface nodes for LIC.
	if opts.LIC {
		d.surfID = m.SurfaceNodes()
		d.surfPos = make([][3]float64, len(d.surfID))
		for i, id := range d.surfID {
			d.surfPos[i] = m.Nodes[id].Pos()
		}
		if d.surfView, err = commitNodeView(d.surfID); err != nil {
			return nil, err
		}
	}

	// Global value range for quantization: scan the run's steps once,
	// unless the caller pinned it (simulation-time visualization cannot
	// scan steps that have not been computed yet).
	d.vmax = opts.FixedVMax
	if d.vmax <= 0 {
		if d.vmax, err = scanRange(store, meta.NumNodes, d.stepNames[:d.steps]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// needed returns group part p's slice of the needed node set — what that
// input rank reads under adaptive independent fetching.
func (d *Dataset) needed(p int) []int32 {
	n, m := len(d.allNeeded), d.layout.IPsPerGroup
	return d.allNeeded[n*p/m : n*(p+1)/m]
}

// commitNodeView commits the step-object view that selects the records of
// the given node ids.
func commitNodeView(ids []int32) (mpiio.Datatype, error) {
	displs := make([]int64, len(ids))
	for i, id := range ids {
		displs[i] = int64(id)
	}
	return mpiio.Commit(mpiio.IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: quake.BytesPerNode})
}

// NumSteps returns the dataset's timestep count; step windows
// (RealWorkload.SetStepWindow) lie within [0, NumSteps).
func (d *Dataset) NumSteps() int { return d.meta.NumSteps }

// VMax returns the quantization range every workload on this dataset
// shares, which is what makes their frames interchangeable.
func (d *Dataset) VMax() float32 { return d.vmax }

func cellCornerIDs(m *mesh.Mesh, cell octree.Cell) ([8]int32, error) {
	var out [8]int32
	x, y, z := cell.Anchor()
	step := uint32(1) << (octree.MaxLevel - cell.Level)
	for i := 0; i < 8; i++ {
		g := mesh.GridCoord{x + step*uint32(i&1), y + step*uint32(i>>1&1), z + step*uint32(i>>2&1)}
		id, ok := m.NodeIndex[g]
		if !ok {
			return out, fmt.Errorf("core: missing corner node %v of cell %v", g, cell)
		}
		out[i] = id
	}
	return out, nil
}

// sortedUnion returns the sorted union of the given node-id sets.
func sortedUnion(sets [][]int32) []int32 {
	ids := slices.Concat(sets...)
	slices.Sort(ids)
	return slices.Compact(ids)
}

// scanRange computes the maximum velocity magnitude over the named step
// objects for quantization (the paper's preprocessing quantizes 32-bit to
// 8-bit). The decode buffers are reused across the scan.
func scanRange(store pfs.Store, numNodes int, names []string) (float32, error) {
	var vmax float32
	buf := make([]byte, numNodes*quake.BytesPerNode)
	var vec, mag []float32
	var err error
	for t, name := range names {
		if err := store.ReadAt(nil, name, 0, buf); err != nil {
			return 0, fmt.Errorf("core: scanning step %d: %w", t, err)
		}
		if vec, err = quake.DecodeStepInto(vec, buf); err != nil {
			return 0, fmt.Errorf("core: scanning step %d: %w", t, err)
		}
		mag = render.MagnitudeInto(mag, vec)
		for _, m := range mag {
			if m > vmax {
				vmax = m
			}
		}
	}
	if vmax == 0 {
		vmax = 1
	}
	return vmax, nil
}

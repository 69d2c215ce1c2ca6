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
// partition and its per-block tables, the load-balanced block assignment,
// the input side's read-and-gather plan and the quantization range. It is
// built once from (Layout, Options, Store) and never written afterwards:
// the fields are unexported and no method mutates them, so any number of
// RealWorkloads (NewWorkload) may share one Dataset across goroutines, each
// holding only its own view, schedule, scratches and frames.
//
// A Dataset owns every option but the view: a workload on it takes its
// Width, Height, View and TFName from NewWorkload and every other option
// from here.
type Dataset struct {
	layout Layout
	opts   Options
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
	blockNodeIDs [][]int32           // per block: the node ids its cells touch at the render level, sorted
	// blockCornerLocal[bi][ci][k] is the index within blockNodeIDs[bi] of
	// corner k of the block's cell ci, so the renderers' per-frame value
	// merge is two flat lookups and no map.
	blockCornerLocal [][][8]int32

	// The input side's plan for the run's read strategy, committed once
	// (Section 5.3 builds the derived datatype from the octree once; only
	// the step object changes): partIDs[p] are the node ids group part p
	// reads every step, sorted, partView[p] the file view that selects them
	// — so a fetched step is their quantized values in that order — and
	// gather[p][r] says which of those values part p ships renderer r, as
	// which block runs. Every rank, session and Reopen shares them
	// read-only. commitPlan documents the three shapes and the coverage
	// invariant they are built under.
	partIDs  [][]int32
	partView []mpiio.Datatype
	gather   [][]gatherPlan

	surfID   []int32 // surface nodes (LIC only)
	surfPos  [][3]float64
	surfView mpiio.Datatype // the committed view that selects surfID

	// stepNames caches every step's object name (PR 4): the fetch loop
	// opens one object per timestep, and formatting the name there was the
	// last per-step allocation of the read path. It covers the whole
	// dataset (not just the configured run length) so a step window can be
	// re-aimed anywhere without reformatting names.
	stepNames []string

	vmax float32
}

// pieceRun names the run of one block's node list a data piece carries:
// blockNodeIDs[Block][Off : Off+Len].
type pieceRun struct {
	Block, Off, Len int32
}

// gatherPlan is what one group part ships one renderer every step: the runs,
// in the renderer's block order, and for every value of those runs, in
// order, its index among the part's fetched values (src indexes partIDs[p]
// and the rank's view-order q alike). bytes is the size the piece declares:
// a value per node plus an 8-byte header per run.
type gatherPlan struct {
	runs  []pieceRun
	src   []int32
	bytes int64
}

// NewDataset loads the dataset and performs the one-time, view-independent
// setup: mesh read, block partition and per-block tables, longest-
// processing-time block balance over l's renderers, the read-and-gather plan
// of l's group parts under opts' read strategy (commitPlan), and the
// quantization range (one scan of the run's steps unless opts.FixedVMax
// pins it).
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
	d := &Dataset{layout: l, opts: opts, store: store, mesh: m, meta: meta}
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
	d.blockNodeIDs = make([][]int32, nb)
	d.blockCornerLocal = make([][][8]int32, nb)
	zeros := make([]float32, m.NumNodes())
	// pos[id] is 1 + node id's index in the current block's node list, 0
	// for a node outside it: filled from the list and cleared again per
	// block, so a corner's local index is one load.
	pos := make([]int32, m.NumNodes())
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
		ids := render.BlockNodeIDs(m, b, d.level)
		d.blockNodeIDs[bi] = ids
		for i, id := range ids {
			pos[id] = int32(i) + 1
		}
		local := make([][8]int32, len(bd.Cells))
		for ci, corners := range render.BlockCorners(m, b, d.level) {
			for k, id := range corners {
				if id < 0 {
					return nil, fmt.Errorf("core: missing corner node %v of cell %v", mesh.CellCorner(bd.Cells[ci], k), bd.Cells[ci])
				}
				if pos[id] == 0 {
					return nil, fmt.Errorf("core: corner node %d of block %d missing from its node set", id, bi)
				}
				local[ci][k] = pos[id] - 1
			}
		}
		for _, id := range ids {
			pos[id] = 0
		}
		d.blockCornerLocal[bi] = local
	}

	// Load balance by workload estimate: a block's cell count.
	cells := make([]int, nb)
	for bi := range cells {
		cells[bi] = len(d.blockCells[bi])
	}
	d.rblocks, _ = BalanceBlocks(cells, l.Renderers)
	// owner and rblockPos flatten the block->renderer and block->slot
	// lookups the renderers' value merge uses instead of a per-frame map.
	d.owner = make([]int, nb)
	d.rblockPos = make([]int, nb)
	for r, blocks := range d.rblocks {
		for pos, bi := range blocks {
			d.owner[bi], d.rblockPos[bi] = r, pos
		}
	}

	if err := d.commitPlan(); err != nil {
		return nil, err
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

// BalanceBlocks is the paper's static load balance, longest-processing-time
// first: it sorts the blocks by descending size (stable, so equal-sized
// blocks keep their index order) and places each on the least-loaded
// renderer, the lowest-numbered on a tie. It returns each renderer's
// blocks in placement order and each renderer's total size. The loads
// depend only on the descending size sequence, so any ordering of
// equal-sized blocks reaches the same ones.
func BalanceBlocks(sizes []int, renderers int) (blocks [][]int, load []int) {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	blocks = make([][]int, renderers)
	load = make([]int, renderers)
	for _, bi := range order {
		best := 0
		for r := 1; r < renderers; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		load[best] += sizes[bi]
		blocks[best] = append(blocks[best], bi)
	}
	return blocks, load
}

// commitPlan commits, for the dataset's read strategy, what every group part
// reads and what it ships to whom. The part's node set is, collectively, the
// merged node set of the blocks of the renderers it serves (renderer r is
// served by part r mod m); under adaptive fetching its 1/m slice of the node
// set the render level needs; otherwise its 1/m range of all node records.
// A collective part ships the blocks it read for; an independent part ships
// of every block whatever runs of the block's node list fall in its set.
//
// Both are pure functions of node-id sets, so the step loop never looks an
// id up: a fetched step is a value per partIDs entry and a piece is those
// values picked by gatherPlan.src. The plan is only committed if, over all
// parts, the runs owed to each renderer cover every node of each of its
// blocks exactly once — the invariant the renderers' merge relies on and
// checks every received piece against (RealWorkload.checkPiece).
func (d *Dataset) commitPlan() error {
	m := d.layout.IPsPerGroup
	collective := d.opts.ReadStrategy == ReadCollective
	d.partIDs = make([][]int32, m)
	switch {
	case collective:
		sets := make([][][]int32, m)
		for bi, ids := range d.blockNodeIDs {
			sets[d.owner[bi]%m] = append(sets[d.owner[bi]%m], ids)
		}
		for p := range d.partIDs {
			d.partIDs[p] = sortedUnion(sets[p])
		}
	case d.opts.AdaptiveFetch:
		needed := sortedUnion(d.blockNodeIDs)
		for p := range d.partIDs {
			d.partIDs[p] = needed[len(needed)*p/m : len(needed)*(p+1)/m]
		}
	default:
		n := d.meta.NumNodes
		for p := range d.partIDs {
			lo, hi := n*p/m, n*(p+1)/m
			ids := make([]int32, hi-lo)
			for i := range ids {
				ids[i] = int32(lo + i)
			}
			d.partIDs[p] = ids
		}
	}
	return d.commitGather(collective)
}

// commitGather commits each part's view of its node set and derives the
// gather plans from the sets (byOwner: a part ships only the blocks of the
// renderers it serves), failing unless the runs partition every block's
// node list.
func (d *Dataset) commitGather(byOwner bool) error {
	m := d.layout.IPsPerGroup
	d.partView = make([]mpiio.Datatype, m)
	d.gather = make([][]gatherPlan, m)
	shipped := make([][]bool, len(d.blockNodeIDs)) // per block node: some run carries it
	for bi, ids := range d.blockNodeIDs {
		shipped[bi] = make([]bool, len(ids))
	}
	at := make([]int32, d.meta.NumNodes) // node id -> index in the part's ids, or -1
	for p, ids := range d.partIDs {
		var err error
		if d.partView[p], err = commitNodeView(ids); err != nil {
			return err
		}
		for i := range at {
			at[i] = -1
		}
		for i, id := range ids {
			at[id] = int32(i)
		}
		d.gather[p] = make([]gatherPlan, len(d.rblocks))
		for r, blocks := range d.rblocks {
			g := &d.gather[p][r]
			if byOwner && r%m != p {
				blocks = nil // another part serves this renderer
			}
			for _, bi := range blocks {
				open := false // the last run ends at the previous node
				for k, id := range d.blockNodeIDs[bi] {
					if at[id] < 0 {
						open = false
						continue
					}
					if shipped[bi][k] {
						return fmt.Errorf("core: read plan ships node %d of block %d twice (again from part %d)", id, bi, p)
					}
					shipped[bi][k] = true
					if !open {
						g.runs = append(g.runs, pieceRun{Block: int32(bi), Off: int32(k)})
						g.bytes += 8
						open = true
					}
					g.runs[len(g.runs)-1].Len++
					g.src = append(g.src, at[id])
					g.bytes++
				}
			}
			if g.bytes == 0 {
				g.bytes = 1 // nothing owed: the message still goes, as the credit protocol's beat
			}
		}
	}
	for bi, nodes := range shipped {
		if k := slices.Index(nodes, false); k >= 0 {
			return fmt.Errorf("core: read plan ships node %d of block %d from no part", d.blockNodeIDs[bi][k], bi)
		}
	}
	return nil
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

// sortedUnion returns the sorted union of the given node-id sets.
func sortedUnion(sets [][]int32) []int32 {
	ids := slices.Concat(sets...)
	slices.Sort(ids)
	return slices.Compact(ids)
}

// scanRange computes the maximum velocity magnitude over the named step
// objects for quantization (the paper's preprocessing quantizes 32-bit to
// 8-bit). Each step is one pass of the decode kernel the input ranks'
// enhancement runs on the current step (recordMagnitudes), into buffers
// reused across the scan.
func scanRange(store pfs.Store, numNodes int, names []string) (float32, error) {
	var vmax float32
	buf := make([]byte, numNodes*quake.BytesPerNode)
	mag := make([]float32, numNodes)
	for t, name := range names {
		if err := store.ReadAt(nil, name, 0, buf); err != nil {
			return 0, fmt.Errorf("core: scanning step %d: %w", t, err)
		}
		if err := recordMagnitudes(mag, buf); err != nil {
			return 0, fmt.Errorf("core: scanning step %d: %w", t, err)
		}
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

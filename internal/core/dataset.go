package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/mesh"
	"repro/internal/mpiio"
	"repro/internal/octree"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
	"repro/internal/workers"
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
	// may read at a step, sorted — a fetched step is their quantized values
	// in that order — dense[p].view the file view that selects them all,
	// and gather[p][r] says which of those values part p ships renderer r,
	// as which block runs. Every rank, session and Reopen shares them
	// read-only. commitPlan documents the three shapes and the coverage
	// invariant they are built under.
	partIDs [][]int32
	gather  [][]gatherPlan

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

	// The occupancy index (scanRange) and the per-step read plans it
	// trims. live[t] marks the blocks that hold a nonzero quantized value
	// at dataset step t — bit bi%64 of word bi/64 for block bi — for the
	// steps the scan covered; a block not marked quantizes to 0 at every
	// one of its nodes, so no rank reads, ships or merges it. stepPlan[t][p]
	// is group part p's read plan at covered step t, and dense[p] the plan
	// with every block live: every step's without a scan (FixedVMax), and
	// that of any step the scan did not cover.
	live     [][]uint64
	stepPlan [][]partStep
	dense    []partStep
}

// posRun is a run [lo, hi) of consecutive positions in a group part's node
// list, Dataset.partIDs[p].
type posRun struct{ lo, hi int32 }

// partStep is what group part p reads at one dataset step and where the
// records go. view selects the records of the read positions, which arrive
// in position order; live are the positions the step quantizes — the nodes
// of the step's live blocks, every other position of the part being 0 at
// the step — and, where an enhancement hand-off follows the step, next
// are the nodes of the blocks live at the next step, whose magnitudes the
// hand-off carries (the next step's live). read is the union of live and
// next. nodes is the part's node count, nlive the positions live holds.
type partStep struct {
	view             mpiio.Datatype
	read, live, next []posRun
	nodes, nlive     int
}

// pieceRun names the run of one block's node list a data piece carries:
// blockNodeIDs[Block][Off : Off+Len].
type pieceRun struct {
	Block, Off, Len int32
}

// gatherPlan is what one group part ships one renderer at a step every
// block is live at: the runs, in the renderer's block order, and for every
// value of those runs, in order, its index among the part's values (src
// indexes partIDs[p] and the rank's q alike). A step ships the runs of its
// live blocks only (RealWorkload.PayloadFor).
type gatherPlan struct {
	runs []pieceRun
	src  []int32
}

// NewDataset loads the dataset and performs the one-time, view-independent
// setup: mesh read, block partition and per-block tables, longest-
// processing-time block balance over l's renderers, the read-and-gather plan
// of l's group parts under opts' read strategy (commitPlan), and the
// quantization range (one scan of the run's steps unless opts.FixedVMax
// pins it). Before it allocates anything per step it confirms that the
// last step the scan reads exists, so a meta object claiming more steps
// than the store holds fails naming a missing step. The step-name table
// covers every step the meta object claims, ~32 B each, and a run that
// reads none of them yet — under FixedVMax, where steps may not exist
// until a simulation writes them — still pays that for every claimed step.
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
	// The meta object's step count is a claim. The scan reads every step of
	// the run, so the last one must exist before the count sizes anything:
	// the step-name table here and the scan's per-step peaks.
	if opts.FixedVMax <= 0 && d.steps > 0 {
		if _, err := store.Size(quake.StepObject(d.steps - 1)); err != nil {
			return nil, fmt.Errorf("core: scanning step %d: %w", d.steps-1, err)
		}
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
	// Each block's tables come from one walk of its leaves
	// (render.BlockTables): the template BlockData — the static half,
	// cells and point-location index; each renderer scratch copies it once
	// and owns its per-frame Vals — and the cells' corner ids, from which
	// render.CornerNodes takes the node set and the corner→local table.
	seen := make([]uint64, (m.NumNodes()+63)/64)
	pos := make([]int32, m.NumNodes())
	var corners [][8]int32 // the current block's, reused
	for bi, b := range blocks {
		d.roots[bi] = b.Root
		var bd *render.BlockData
		if bd, corners, err = render.BlockTables(m, b, d.level, corners[:0]); err != nil {
			return nil, err
		}
		d.blockBD[bi], d.blockCells[bi] = bd, bd.Cells
		d.blockNodeIDs[bi], d.blockCornerLocal[bi] = render.CornerNodes(corners, seen, pos)
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
		if d.surfView, err = commitNodeView(d.surfID, 0); err != nil {
			return nil, err
		}
	}

	// Global value range for quantization and the occupancy index: scan
	// the run's steps once, unless the caller pinned the range
	// (simulation-time visualization cannot scan steps that have not been
	// computed yet), which leaves every block live.
	d.vmax = opts.FixedVMax
	if d.vmax <= 0 {
		var gain float32
		if opts.Enhancement {
			gain = opts.EnhanceGain
		}
		var peak [][]float32
		if d.vmax, peak, err = scanRange(store, meta.NumNodes, d.stepNames[:d.steps], d.blockNodeIDs, gain); err != nil {
			return nil, err
		}
		d.live = liveBlocks(peak, d.vmax)
	}
	if err := d.commitSteps(); err != nil {
		return nil, err
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

// commitGather commits each part's view of its node set, its dense read
// plan (partStep with every block live), and derives the gather plans from
// the sets (byOwner: a part ships only the blocks of the
// renderers it serves), failing unless the runs partition every block's
// node list.
func (d *Dataset) commitGather(byOwner bool) error {
	m := d.layout.IPsPerGroup
	d.dense = make([]partStep, m)
	d.gather = make([][]gatherPlan, m)
	shipped := make([][]bool, len(d.blockNodeIDs)) // per block node: some run carries it
	for bi, ids := range d.blockNodeIDs {
		shipped[bi] = make([]bool, len(ids))
	}
	at := make([]int32, d.meta.NumNodes) // node id -> index in the part's ids, or -1
	for p, ids := range d.partIDs {
		var err error
		all := []posRun{{0, int32(len(ids))}}
		d.dense[p] = partStep{read: all, live: all, next: all, nodes: len(ids), nlive: len(ids)}
		if d.dense[p].view, err = commitNodeView(ids, 0); err != nil {
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
						open = true
					}
					g.runs[len(g.runs)-1].Len++
					g.src = append(g.src, at[id])
				}
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
// the given sorted node ids, one block per run of consecutive ids, with at
// least the given extent in bytes (mpiio.Resized).
func commitNodeView(ids []int32, extent int64) (mpiio.Datatype, error) {
	var t mpiio.Indexed
	appendIDRuns(&t, ids)
	return commitIndexed(t, extent)
}

// appendIDRuns appends the runs of consecutive ids of the sorted ids to t's
// blocks, extending t's last block where the first id continues it.
func appendIDRuns(t *mpiio.Indexed, ids []int32) {
	for _, id := range ids {
		if n := len(t.Displs); n > 0 && t.Displs[n-1]+t.Blocklens[n-1] == int64(id) {
			t.Blocklens[n-1]++
			continue
		}
		t.Displs = append(t.Displs, int64(id))
		t.Blocklens = append(t.Blocklens, 1)
	}
}

// commitIndexed commits a node view built by appendIDRuns, resized to at
// least extent bytes.
func commitIndexed(t mpiio.Indexed, extent int64) (mpiio.Datatype, error) {
	t.ElemSize = quake.BytesPerNode
	return mpiio.Commit(mpiio.Resized{Type: t, Extent: extent})
}

// commitSteps commits, beside every group part's dense plan (its whole node
// list, commitGather), its read plan for every step the occupancy index
// covers: the nodes of the blocks live at the step — and, where an
// enhancement hand-off follows it (more than one group), at the next step
// too — through a view of just their records. A step's view keeps the
// extent of the part's whole view, so an object too short for the part
// fails every step's end-of-file check, whichever records the step reads.
func (d *Dataset) commitSteps() error {
	m := d.layout.IPsPerGroup
	if d.live == nil {
		return nil
	}
	handoff := d.opts.Enhancement && d.layout.Groups > 1
	d.stepPlan = make([][]partStep, len(d.live))
	for t := range d.stepPlan {
		d.stepPlan[t] = make([]partStep, m)
	}
	at := make([]int32, d.meta.NumNodes) // node id -> position in the part's list, or -1
	var view mpiio.Indexed
	for p, ids := range d.partIDs {
		for i := range at {
			at[i] = -1
		}
		for i, id := range ids {
			at[id] = int32(i)
		}
		marks := make([]uint64, (len(ids)+63)/64) // bit k: position k is live
		for t := range d.stepPlan {
			clear(marks)
			for bi, bids := range d.blockNodeIDs {
				if !blockLive(d.live[t], int32(bi)) {
					continue
				}
				for _, id := range bids {
					if k := at[id]; k >= 0 {
						marks[k/64] |= 1 << (k % 64)
					}
				}
			}
			ps := &d.stepPlan[t][p]
			ps.nodes = len(ids)
			ps.live, ps.nlive = markedRuns(marks)
			ps.read = ps.live
		}
		var extent int64
		if len(ids) > 0 {
			extent = int64(ids[len(ids)-1]+1) * quake.BytesPerNode
		}
		for t := range d.stepPlan {
			ps := &d.stepPlan[t][p]
			if handoff && t+1 < d.meta.NumSteps {
				ps.next = d.partStep(t+1, p).live
				ps.read = unionRuns(ps.live, ps.next)
			}
			view.Displs, view.Blocklens = view.Displs[:0], view.Blocklens[:0]
			for _, r := range ps.read {
				appendIDRuns(&view, ids[r.lo:r.hi])
			}
			var err error
			if ps.view, err = commitIndexed(view, extent); err != nil {
				return err
			}
		}
	}
	return nil
}

// markedRuns returns the runs of the positions whose bits are set in
// marks (bit k%64 of word k/64 for position k) and how many they hold.
func markedRuns(marks []uint64) ([]posRun, int) {
	var runs []posRun
	n := 0
	for w, word := range marks {
		for word != 0 {
			lo := bits.TrailingZeros64(word)
			ones := bits.TrailingZeros64(^(word >> lo)) // the run of set bits from lo; 64 when it reaches bit 63
			if lo+ones < 64 {
				word &^= 1<<(lo+ones) - 1
			} else {
				word = 0
			}
			i, j := int32(64*w+lo), int32(64*w+lo+ones)
			n += ones
			if k := len(runs); k > 0 && runs[k-1].hi == i {
				runs[k-1].hi = j
			} else {
				runs = append(runs, posRun{i, j})
			}
		}
	}
	return slices.Clone(runs), n
}

// unionRuns returns the runs of the positions a or b holds; both are
// ascending and disjoint within themselves.
func unionRuns(a, b []posRun) []posRun {
	out := make([]posRun, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var r posRun
		if len(b) == 0 || len(a) > 0 && a[0].lo <= b[0].lo {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if k := len(out); k > 0 && r.lo <= out[k-1].hi {
			out[k-1].hi = max(out[k-1].hi, r.hi)
		} else {
			out = append(out, r)
		}
	}
	return slices.Clone(out)
}

// partStep returns group part p's read plan at dataset step t.
func (d *Dataset) partStep(t, p int) *partStep {
	if t >= 0 && t < len(d.stepPlan) {
		return &d.stepPlan[t][p]
	}
	return &d.dense[p]
}

// liveAt returns the occupancy index's blocks live at dataset step t, nil
// (every block) where it does not cover t.
func (d *Dataset) liveAt(t int) []uint64 {
	if t >= 0 && t < len(d.live) {
		return d.live[t]
	}
	return nil
}

// blockLive reports whether block bi is in the live set (nil: every block).
func blockLive(live []uint64, bi int32) bool {
	return live == nil || live[bi/64]&(1<<(bi%64)) != 0
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
// 8-bit) and, per step, each block's peak: the largest value the input
// ranks quantize at any of the block's nodes (blocks[bi] lists them) — the
// magnitude, or under temporal enhancement by gain (0: none) the enhanced
// value magnitudeQuantize computes, from the previous step's magnitudes
// from the second step on. A NaN value, which no comparison orders, makes
// its block's peak +Inf. Each step is one pass of the decode kernel the
// input ranks run (recordMagnitudes), so every word of every step is
// validated here once. The steps are split into workers.Width(1)
// consecutive ranges scanned at once, each into its own reused buffers;
// the error returned is that of the earliest step that failed.
func scanRange(store pfs.Store, numNodes int, names []string, blocks [][]int32, gain float32) (float32, [][]float32, error) {
	peak := make([][]float32, len(names))
	flat := make([]float32, len(names)*len(blocks))
	for t := range peak {
		peak[t] = flat[len(blocks)*t : len(blocks)*(t+1)]
	}
	var p *workers.Pool
	n := max(min(p.Size(), len(names)), 1)
	vmaxes, errs := make([]float32, n), make([]error, n)
	p.Run(0, n, func(k int) {
		vmaxes[k], errs[k] = scanSteps(store, numNodes, names, len(names)*k/n, len(names)*(k+1)/n, blocks, gain, peak)
	})
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	vmax := slices.Max(vmaxes)
	if vmax == 0 {
		vmax = 1
	}
	return vmax, peak, nil
}

// scanSteps is scanRange over steps [lo, hi): it fills their peaks and
// returns their largest magnitude. Under enhancement a range that does not
// start at step 0 first decodes step lo−1, for its magnitudes alone.
func scanSteps(store pfs.Store, numNodes int, names []string, lo, hi int, blocks [][]int32, gain float32, peak [][]float32) (float32, error) {
	var vmax float32
	buf := make([]byte, numNodes*quake.BytesPerNode)
	mag, prev := make([]float32, numNodes), make([]float32, numNodes)
	var enh []float32
	first := lo
	if gain != 0 {
		enh = make([]float32, numNodes)
		first = max(lo-1, 0)
	}
	for t := first; t < hi; t++ {
		if err := store.ReadAt(nil, names[t], 0, buf); err != nil {
			return 0, fmt.Errorf("core: scanning step %d: %w", t, err)
		}
		if err := recordMagnitudes(mag, buf); err != nil {
			return 0, fmt.Errorf("core: scanning step %d: %w", t, err)
		}
		if t < lo {
			mag, prev = prev, mag
			continue
		}
		for _, m := range mag {
			if m > vmax {
				vmax = m
			}
		}
		val := mag // finite or +Inf: the words validated
		if gain != 0 && t > 0 {
			for i, v := range mag {
				d := v - prev[i]
				if d < 0 {
					d = -d
				}
				if e := v + gain*d; e == e {
					enh[i] = e
				} else {
					enh[i] = float32(math.Inf(1))
				}
			}
			val = enh
		}
		for bi, ids := range blocks {
			var pk float32
			for _, id := range ids {
				if v := val[id]; v > pk {
					pk = v
				}
			}
			peak[t][bi] = pk
		}
		mag, prev = prev, mag
	}
	return vmax, nil
}

// liveBlocks turns the scan's per-step block peaks into the occupancy
// index over [0, vmax]: a block is live at a step when its peak quantizes
// to a nonzero byte. Quantization is monotone, so a block whose peak
// quantizes to 0 holds 0 at every node.
func liveBlocks(peak [][]float32, vmax float32) [][]uint64 {
	inv := 255 / vmax
	live := make([][]uint64, len(peak))
	for t, pk := range peak {
		live[t] = make([]uint64, (len(pk)+63)/64)
		for bi, v := range pk {
			if quantizeValue(v, 0, inv) != 0 || math.IsInf(float64(v), 1) {
				live[t][bi/64] |= 1 << (bi % 64)
			}
		}
	}
	return live
}

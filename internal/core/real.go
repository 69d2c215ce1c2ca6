package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/compositor"
	"repro/internal/img"
	"repro/internal/lic"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/octree"
	"repro/internal/pfs"
	"repro/internal/pool"
	"repro/internal/quadtree"
	"repro/internal/quake"
	"repro/internal/render"
	"repro/internal/workers"
)

// RealWorkload runs the pipeline on an actual dataset: data is fetched
// through the MPI-IO layer from the parallel file store, quantized to 8 bit
// and distributed as octree-block payloads, ray-cast on the rendering
// processors, composited with SLIC or direct send, and assembled into
// frames the caller can retrieve with Frame().
//
// It is the per-session half of a run, built on a shared immutable
// Dataset (the paper's one-time octree preprocessing and distribution):
// the workload owns only what depends on the viewpoint (block visibility
// order, SLIC schedule, transfer-function table), the step window, and the
// warm buffers of one in-flight run — scratches, worker pools, frame ring.
// SetView and SetStepWindow re-aim it between runs without touching those
// buffers.
type RealWorkload struct {
	ds   *Dataset
	opts Options
	// store is the handle step data is read through: the dataset's, unless
	// a test swaps in a fault injector after construction.
	store pfs.Store
	steps int

	// View-dependent state, recomputed by aim: visRank[bi] is block bi's
	// front-to-back position, sched the SLIC schedule over the blocks'
	// projected rects (staged per renderer in rects, reused across views).
	rend    *render.Renderer
	visRank []int
	sched   *compositor.Schedule
	rects   [][]compositor.Rect
	licCols []int32 // stretchCols for the view's width under the LIC underlay

	// Steady-state reuse (PR 3): the per-rank scratches hold every buffer
	// the per-step path reuses across timesteps (see scratch.go).
	ipScr   []*ipScratch       // indexed by input world rank
	rendScr []*rendererScratch // indexed by renderer

	// stepBase offsets logical timesteps into the dataset: the pipeline
	// always runs logical steps [0, steps), which SetStepWindow maps onto
	// dataset steps [stepBase, stepBase+steps). Zero for whole-dataset
	// runs, so batch behavior is unchanged.
	stepBase int

	// ring recycles assembled frame canvases; see FrameRing for the
	// copy-out-or-release consumer contract.
	ring *FrameRing

	framesMu sync.Mutex
	frames   map[int]*img.Image

	// Degraded-mode state (PR 6, docs/faults.md): res is the run's fault
	// accounting sink (attached by NewPipeline), degraded the set of
	// timesteps some input rank served stale or dropped data for — written
	// by input ranks during Fetch/LICPayload, read by Assemble (strictly
	// after every input of the step) to flag the frame.
	res        *Result
	degradedMu sync.Mutex
	degraded   map[int]bool
}

// blockRun is the per-block piece of a data payload, the one format every
// read strategy ships: Vals are quantized values for
// blockNodeIDs[Block][Off : Off+len(Vals)].
type blockRun struct {
	Block int32
	Off   int32
	Vals  []uint8
}

type rendered struct {
	frags []*render.Fragment
}

// NewRealWorkload loads the dataset and performs the one-time setup: the
// shared half (NewDataset), then one workload on it.
func NewRealWorkload(l Layout, opts Options, store pfs.Store) (*RealWorkload, error) {
	d, err := NewDataset(l, opts, store)
	if err != nil {
		return nil, err
	}
	return d.NewWorkload(opts)
}

// NewWorkload builds a workload on the dataset: the renderer and its
// transfer-function table, the per-rank scratches and worker pools, the
// frame ring, and the view-dependent tables for opts.View. It reads no
// data, so it costs scratch allocation plus well under a millisecond of
// CPU; every workload on one Dataset is independent of the others. The
// options that shape the dataset (datasetOptions) must be the ones it was
// built with.
func (d *Dataset) NewWorkload(opts Options) (*RealWorkload, error) {
	if datasetOptions(opts) != d.opts {
		return nil, fmt.Errorf("core: workload options %+v disagree with the dataset's %+v", datasetOptions(opts), d.opts)
	}
	l := d.layout
	w := &RealWorkload{
		ds: d, opts: opts, store: d.store, steps: d.steps,
		frames: make(map[int]*img.Image),
	}
	// The frame ring is sized to the pipeline's prefetch window (the
	// default depth of 1 keeps one step streaming while one renders, so at
	// most two frames per output rank are in flight when consumers release
	// promptly); it grows on demand when they do not.
	w.ring = NewFrameRing(2*l.Outputs, opts.Width, opts.Height)
	w.rend = render.NewRenderer()
	w.rend.Lighting = opts.Lighting
	w.rend.TF = render.TFByName(opts.TFName)
	w.rend.Workers = opts.Workers

	// Per-rank reuse scratches (PR 3).
	w.ipScr = make([]*ipScratch, l.NumInput())
	for i := range w.ipScr {
		// One value per node the rank's part reads: zeros until its first
		// successful fetch, which is what a step degraded before then ships.
		w.ipScr[i] = &ipScratch{q: make([]uint8, len(d.partIDs[i%l.IPsPerGroup]))}
	}
	w.rendScr = make([]*rendererScratch, l.Renderers)
	for r := range w.rendScr {
		mine := d.rblocks[r]
		rs := &rendererScratch{
			nodeVals: make([][]uint8, len(mine)),
			got:      make([]bool, len(mine)),
			bds:      make([]*render.BlockData, len(mine)),
			comp:     compositor.NewCompositeScratch(),
		}
		for i, bi := range mine {
			rs.nodeVals[i] = make([]uint8, len(d.blockNodeIDs[bi]))
			// Copy the dataset's template once, here: the static half (root,
			// cells, point-location index) stays shared read-only, while
			// Vals — and whatever per-frame state the renderer keeps beside
			// them — belongs to this BlockData from now on. Render rewrites
			// Vals in place and never copies the template again.
			bd := new(render.BlockData)
			*bd = *d.blockBD[bi]
			bd.Vals = make([][8]float32, len(bd.Cells))
			rs.bds[i] = bd
		}
		// The pool is sized to the rank's actual dispatch width (Render
		// clamps to the same value), not NumCPU: renderer ranks share one
		// process under the mock MPI, so a full-machine pool per rank would
		// park Renderers*NumCPU idle goroutines. Width 1 renders inline and
		// needs no pool at all.
		if rw := w.rankWorkers(); rw > 1 {
			rs.pool = workers.New(rw)
		}
		rs.rscr.Pool = rs.pool
		w.rendScr[r] = rs
	}
	w.visRank = make([]int, len(d.roots))
	w.rects = make([][]compositor.Rect, l.Renderers)
	w.aim()
	return w, nil
}

// aim computes everything that depends on the viewpoint, image size or
// transfer function — all of it from opts and the dataset's block roots.
func (w *RealWorkload) aim() {
	// Renderer ranks share w.rend across goroutines; bake its defaults and
	// transfer-function table now, between runs, while single-threaded
	// (the table is rebuilt only when the transfer function changed).
	w.rend.Prepare()

	// Visibility order of block roots for the view.
	view := w.opts.View
	for pos, bi := range octree.VisibilityOrder(w.ds.roots, view.ViewDir()) {
		w.visRank[bi] = pos
	}

	// SLIC schedule from projected block rects.
	for r := range w.rects {
		w.rects[r] = w.rects[r][:0]
	}
	for bi, root := range w.ds.roots {
		bmin, bmax := root.Bounds()
		fx0, fy0, fx1, fy1 := 1e18, 1e18, -1e18, -1e18
		for ci := 0; ci < 8; ci++ {
			p := render.Vec3{bmin[0], bmin[1], bmin[2]}
			if ci&1 != 0 {
				p[0] = bmax[0]
			}
			if ci&2 != 0 {
				p[1] = bmax[1]
			}
			if ci&4 != 0 {
				p[2] = bmax[2]
			}
			x, y := view.Project(p)
			if x < fx0 {
				fx0 = x
			}
			if y < fy0 {
				fy0 = y
			}
			if x > fx1 {
				fx1 = x
			}
			if y > fy1 {
				fy1 = y
			}
		}
		r := w.ds.owner[bi]
		w.rects[r] = append(w.rects[r], compositor.Rect{
			X0: int(fx0), Y0: int(fy0), X1: int(fx1) + 1, Y1: int(fy1) + 1,
		})
	}
	w.sched = compositor.BuildSchedule(w.rects, w.opts.Width, w.opts.Height, w.ds.layout.Renderers)
	if w.opts.LIC {
		w.licCols = stretchCols(w.licCols, w.opts.Width, w.licSize())
	}
}

// licSize is the side of the square surface-LIC underlay licStep computes.
func (w *RealWorkload) licSize() int {
	if w.opts.LICSize < 16 {
		return 16
	}
	return w.opts.LICSize
}

// stepName returns the cached object name of logical timestep t (mapped
// through the step window when one is set).
func (w *RealWorkload) stepName(t int) string {
	pt := t + w.stepBase
	if pt >= 0 && pt < len(w.ds.stepNames) {
		return w.ds.stepNames[pt]
	}
	return quake.StepObject(pt)
}

// SetStepWindow re-aims the workload at dataset timesteps [lo, hi): the
// next pipeline run renders exactly those steps, with logical step i
// mapping to dataset step lo+i (Frame, ReleaseFrame and FrameDegraded all
// take logical steps). Temporal enhancement at logical step 0 still reads
// dataset step lo-1 when one exists, so a windowed run's frames are
// bit-identical to the same steps of a whole-dataset run. This is the
// serving layer's cache-fill hook (internal/serve renders one miss-run per
// request); batch runs never call it and keep the whole-dataset window.
//
// The call must happen between pipeline runs, never during one: it resets
// the degraded-step accounting and releases any frames still held from the
// previous window back to the ring (the copy-out-or-release contract for a
// consumer that re-aims instead of consuming). Scratches, pools and the
// quantization range are untouched — they are window-independent, which is
// what keeps a session's warm buffers warm across windows.
func (w *RealWorkload) SetStepWindow(lo, hi int) error {
	if lo < 0 || hi <= lo || hi > w.ds.meta.NumSteps {
		return fmt.Errorf("core: step window [%d, %d) outside dataset steps [0, %d)", lo, hi, w.ds.meta.NumSteps)
	}
	w.resetRun()
	w.stepBase = lo
	w.steps = hi - lo
	return nil
}

// SetView re-aims the workload at another camera, image size or transfer
// function — the sibling of SetStepWindow, under the same contract: call
// it between pipeline runs; leftover frames go back to the ring and the
// degraded-step accounting is cleared. Only the view-dependent tables are
// recomputed (block visibility order, SLIC schedule, and the transfer-
// function table when tfName changed); the dataset, scratches, pools and
// frame ring stay warm, so a camera move costs one frame render. The next
// run's frames are bit-identical to those of a workload built with these
// values in its Options.
func (w *RealWorkload) SetView(width, height int, view render.View, tfName string) {
	w.resetRun()
	if tfName != w.opts.TFName {
		w.rend.TF = render.TFByName(tfName)
	}
	w.opts.Width, w.opts.Height, w.opts.View, w.opts.TFName = width, height, view, tfName
	w.aim()
}

// resetRun drops what the previous run left behind: unconsumed frames
// return to the ring and the degraded-step set is cleared.
func (w *RealWorkload) resetRun() {
	w.framesMu.Lock()
	for t, frame := range w.frames {
		delete(w.frames, t)
		w.ring.Release(frame)
	}
	w.framesMu.Unlock()
	w.degradedMu.Lock()
	clear(w.degraded)
	w.degradedMu.Unlock()
}

// Steps implements Workload.
func (w *RealWorkload) Steps() int { return w.steps }

// WantLIC implements Workload.
func (w *RealWorkload) WantLIC() bool { return w.opts.LIC }

// Frame returns the assembled image for timestep t (after the run, or as
// soon as the step's Assemble completed). The image is a borrow from the
// frame ring: it stays valid until the caller releases it with
// ReleaseFrame. Callers that never
// release simply keep every frame alive, at the pre-ring memory cost.
func (w *RealWorkload) Frame(t int) *img.Image {
	w.framesMu.Lock()
	defer w.framesMu.Unlock()
	return w.frames[t]
}

// ReleaseFrame returns timestep t's assembled frame to the frame ring and
// forgets it. The image previously returned by Frame(t) must not be used
// afterwards. Releasing a missing or already-released step is a no-op.
// Streaming consumers release each frame once written out, which keeps the
// ring at the prefetch depth and the steady-state assemble allocation-free.
func (w *RealWorkload) ReleaseFrame(t int) {
	w.framesMu.Lock()
	frame := w.frames[t]
	delete(w.frames, t)
	w.framesMu.Unlock()
	w.ring.Release(frame)
}

// Mesh exposes the loaded mesh (for examples).
func (w *RealWorkload) Mesh() *mesh.Mesh { return w.ds.mesh }

// rankWorkers returns one rank's shared-memory dispatch width: the Workers
// knob, or — since all ranks run as goroutines of one process under the
// mock MPI — an equal split of the machine across the renderer ranks.
func (w *RealWorkload) rankWorkers() int {
	if w.opts.Workers > 0 {
		return w.opts.Workers
	}
	rw := runtime.NumCPU() / w.ds.layout.Renderers
	if rw < 1 {
		rw = 1
	}
	return rw
}

// Close shuts down the workload's persistent worker pools (the renderer
// ranks' and the LIC ranks'). Optional — an unreachable workload's pools
// are reclaimed by the GC cleanup backstop — but long-lived processes that
// build many workloads (test suites, experiment sweeps) should close each
// one when done with it. The workload must not run afterwards; frames and
// their ring remain usable.
func (w *RealWorkload) Close() {
	for _, rs := range w.rendScr {
		if rs.pool != nil {
			rs.pool.Close()
			rs.pool = nil
			rs.rscr.Pool = nil
		}
	}
	for _, scr := range w.ipScr {
		if scr.lic.scr.Pool != nil {
			scr.lic.scr.Pool.Close()
			scr.lic.scr.Pool = nil
		}
	}
}

// VMax exposes the quantization range (for tests).
//
//repro:allow deadexport: bench
func (w *RealWorkload) VMax() float32 { return w.ds.vmax }

// magQuant converts the raw node records read through view to quantized
// magnitudes in scr.q, applying temporal enhancement when enabled. The
// whole decode chain runs through the scratch's Into buffers
// (quake.DecodeStepInto -> render.MagnitudeInto -> EnhanceTemporalInto in
// place -> QuantizeInto). scr.q is written by the last link only, so a step
// that fails anywhere before it — a malformed record surfaces as an error
// instead of silently truncating — leaves the previous step's values there.
func (w *RealWorkload) magQuant(c *mpi.Comm, t int, view mpiio.Datatype, raw []byte, scr *ipScratch) error {
	vec, err := quake.DecodeStepInto(scr.vec, raw)
	if err != nil {
		return fmt.Errorf("core: step %d: %w", t, err)
	}
	scr.vec = vec
	scr.mag = render.MagnitudeInto(scr.mag, vec)
	mag := scr.mag
	if w.opts.Enhancement && t+w.stepBase > 0 {
		// Enhancement needs the previous step's values for the same nodes:
		// the same view on the previous object, read independently through
		// the second file handle so the current step's handle keeps its
		// collective plan and this one its sieve plan.
		f := &scr.pfile
		if err := f.Reopen(c, w.store, w.stepName(t-1)); err != nil {
			return err
		}
		f.SetView(0, view)
		scr.praw = pool.Grow[byte](scr.praw, int(view.Size()))
		if _, err := f.ReadInto(scr.praw); err != nil {
			return err
		}
		pvec, err := quake.DecodeStepInto(scr.pvec, scr.praw)
		if err != nil {
			return fmt.Errorf("core: step %d: %w", t-1, err)
		}
		scr.pvec = pvec
		scr.pmag = render.MagnitudeInto(scr.pmag, pvec)
		mag = render.EnhanceTemporalInto(mag, mag, scr.pmag, w.opts.EnhanceGain)
	}
	scr.q = render.QuantizeInto(scr.q, mag, 0, w.ds.vmax)
	return nil
}

// fetchStep reads group part's share of step t into the rank's scratch — the
// body of Fetch (see faults.go for the retry/degrade wrapper that implements
// the Workload hook): open the step object, view it through the part's
// committed type, read, and run the decode chain, which leaves the part's
// quantized values in scr.q in partIDs order. The read strategy picks the
// read call and nothing else: under ReadCollective the group's m IPs read
// with one collective call on the group's sub-communicator, otherwise each
// reads its view independently (data sieving; a hole-free view is one
// contiguous read).
func (w *RealWorkload) fetchStep(c *mpi.Comm, t, part int, scr *ipScratch) error {
	view := w.ds.partView[part]
	collective := w.opts.ReadStrategy == ReadCollective
	fc := c
	if collective {
		// The sub-communicator is built once per run and reused across this
		// rank's timesteps (an input rank always serves one group).
		if scr.sub == nil || scr.subParent != c {
			g := t % w.ds.layout.Groups
			scr.sub = c.Sub(w.ds.layout.GroupRanks(g), g)
			scr.subParent = c
		}
		fc = scr.sub
	}
	f := &scr.file
	if err := f.Reopen(fc, w.store, w.stepName(t)); err != nil {
		if !collective {
			return err
		}
		// Pre-collective failure. Rank-local retry is still safe here
		// (nothing collective has happened this round); past the budget,
		// a handle still open on a previous step serves that object for
		// the whole round — an I/O-level stale fallback that keeps the
		// group's collective synchronized. Only a first-step open
		// failure is terminal (no previous object to fall back to).
		err = w.retryReopen(f, fc, t, err)
		if err != nil {
			if !w.opts.Faults.Tolerate || !f.Opened() {
				return err
			}
			// retryReopen accounted the faults; this only marks staleness.
			w.markDegraded(t)
			w.account(0, 0, true)
		}
	}
	// The buffer is sized from the committed type, not from the handle:
	// whether the view fits this step's object is for the read to find out.
	// A collective read sees its round through either way; a rank that
	// turned back here would strand its peers in the exchange.
	f.SetView(0, view)
	scr.raw = pool.Grow[byte](scr.raw, int(view.Size()))
	var err error
	if collective {
		_, err = f.ReadAllInto(t, scr.raw)
	} else {
		_, err = f.ReadInto(scr.raw)
	}
	if err != nil {
		return err
	}
	return w.magQuant(c, t, view, scr.raw, scr)
}

// Preprocess implements Workload. Magnitude computation, enhancement and
// quantization already happened during Fetch (they operate on the raw read
// buffer); nothing further is needed for the volume path.
func (w *RealWorkload) Preprocess(c *mpi.Comm, t, part, m int, fetched any) (any, error) {
	return fetched, nil
}

// PayloadFor implements Workload: renderer's piece is the committed gather
// plan applied to the values Fetch left in the rank's scratch (prep) — no
// node id is looked at. Payloads are pooled on this rank and released by the
// consuming renderer once merged, so the per-block value slices (all
// aliasing one backing buffer per payload) are reused across timesteps with
// the prefetch window's lifetime respected. The pool is mutex-guarded, so
// the payload-build worker fan-out stays safe.
func (w *RealWorkload) PayloadFor(c *mpi.Comm, t int, prep any, renderer int) (int64, any) {
	scr := prep.(*ipScratch)
	g := &w.ds.gather[scr.part][renderer]
	p := getData(&scr.pool)
	p.vals = pool.Grow(p.vals, len(g.src))
	for i, at := range g.src {
		p.vals[i] = scr.q[at]
	}
	vals := p.vals
	for _, run := range g.runs {
		p.runs = append(p.runs, blockRun{Block: run.Block, Off: run.Off, Vals: vals[:run.Len:run.Len]})
		vals = vals[run.Len:]
	}
	return g.bytes, p
}

// licStep builds the surface-LIC underlay for one step — the body of
// LICPayload (see faults.go for the retry/degrade wrapper): reads the
// surface node vectors, updates the (persistent) quadtree, resamples a
// regular grid, and computes the LIC image. The surface-node positions are
// static, so after the first step the quadtree rebuild reduces to an
// in-place value update, the noise texture is cached, and every image
// buffer is reused; the colorized underlay is pooled and released by the
// output processor.
func (w *RealWorkload) licStep(c *mpi.Comm, t int) (int64, any, error) {
	scr := w.ipScr[c.Rank()]
	ls := &scr.lic
	f := &scr.file
	if err := f.Reopen(c, w.store, w.stepName(t)); err != nil {
		return 0, nil, err
	}
	f.SetView(0, w.ds.surfView)
	scr.raw = pool.Grow[byte](scr.raw, int(w.ds.surfView.Size()))
	if _, err := f.ReadInto(scr.raw); err != nil {
		return 0, nil, err
	}
	vec, err := quake.DecodeStepInto(scr.vec, scr.raw)
	if err != nil {
		return 0, nil, fmt.Errorf("core: step %d: %w", t, err)
	}
	scr.vec = vec
	if cap(ls.samples) < len(w.ds.surfID) {
		ls.samples = make([]quadtree.Sample, len(w.ds.surfID))
	}
	ls.samples = ls.samples[:len(w.ds.surfID)]
	for i := range w.ds.surfID {
		ls.samples[i] = quadtree.Sample{
			X: w.ds.surfPos[i][0], Y: w.ds.surfPos[i][1],
			VX: float64(vec[3*i]), VY: float64(vec[3*i+1]),
		}
	}
	if ls.tree == nil {
		ls.tree, err = quadtree.Build(ls.samples, 8)
	} else {
		err = ls.tree.Rebuild(ls.samples)
	}
	if err != nil {
		return 0, nil, err
	}
	size := w.licSize()
	if err := ls.tree.ResampleInto(&ls.grid, size, size); err != nil {
		return 0, nil, err
	}
	if ls.scr.Pool == nil && w.opts.Workers != 1 {
		// Persistent pool for the row-band convolution fan-out: the LIC
		// rank stops spawning goroutines every frame. Workers: 1 convolves
		// inline and needs no pool; 0 keeps the legacy full-machine width.
		ls.scr.Pool = workers.New(w.opts.Workers)
	}
	im, err := lic.ComputeWith(&ls.grid, size, size,
		lic.Config{L: size / 12, Seed: 7, Phase: -1, Workers: w.opts.Workers}, &ls.scr)
	if err != nil {
		return 0, nil, err
	}
	lp := ls.pool.Get()
	lp.owner = &ls.pool
	im.ColorizeInto(&lp.Img, &ls.grid)
	return compositor.RawBytes(&lp.Img), lp, nil
}

// checkPiece reports whether dp is the piece group part owes renderer r: the
// runs the committed plan says, each as long as it says. Anything else — a
// block that is not r's, a run outside its block's node list, a piece built
// for another renderer or layout — is refused whole, before a value moves.
func (w *RealWorkload) checkPiece(part, r int, dp *dataPayload) error {
	owed := w.ds.gather[part][r].runs
	for i, run := range dp.runs {
		if i == len(owed) {
			return fmt.Errorf("core: data piece run %d (block %d) is one more than part %d owes renderer %d", i, run.Block, part, r)
		}
		if o := owed[i]; run.Block != o.Block || run.Off != o.Off || len(run.Vals) != int(o.Len) {
			return fmt.Errorf("core: data piece run %d is block %d nodes [%d, %d), part %d owes renderer %d block %d nodes [%d, %d)",
				i, run.Block, run.Off, int(run.Off)+len(run.Vals), part, r, o.Block, o.Off, o.Off+o.Len)
		}
	}
	if n := len(dp.runs); n < len(owed) {
		return fmt.Errorf("core: data piece ends after %d runs, part %d still owes renderer %d block %d", n, part, r, owed[n].Block)
	}
	return nil
}

// mergePieces scatters step t's pieces — pieces[k] from group part k — into
// renderer r's per-block staging buffers, turns them into the corner values
// of its BlockData and hands the wire payloads back to their senders' pools:
// the signal those pools need to reuse the buffers for a later in-flight
// step. A piece that is not what its part owes (checkPiece) fails the step;
// under Faults.Tolerate it is dropped like the piece of a lost input rank,
// whose nodes stay zero, and the frame is flagged. A block no accepted piece
// touched is rendered from zeros (fully transparent) and flags the frame
// too, or fails the step without the fault policy.
func (w *RealWorkload) mergePieces(t, r int, pieces []mpi.Message) error {
	rs := w.rendScr[r]
	clear(rs.got)
	for i := range rs.nodeVals {
		clear(rs.nodeVals[i])
	}
	degraded := false
	for part, p := range pieces {
		dp, ok := p.Data.(*dataPayload)
		if !ok || dp == nil {
			continue
		}
		if err := w.checkPiece(part, r, dp); err != nil {
			if !w.opts.Faults.Tolerate {
				return fmt.Errorf("core: renderer %d step %d: piece from rank %d: %w", r, t, p.Src, err)
			}
			degraded = true
		} else {
			for _, run := range dp.runs {
				pos := w.ds.rblockPos[run.Block]
				copy(rs.nodeVals[pos][run.Off:], run.Vals)
				rs.got[pos] = true
			}
		}
		dp.release() // its values are staged, or it was refused: back to the sender's pool
	}
	for i, bi := range w.ds.rblocks[r] {
		bd := rs.bds[i] // static half shared with the dataset; Vals rewritten below
		if !rs.got[i] {
			if !w.opts.Faults.Tolerate {
				return fmt.Errorf("core: renderer %d missing block %d at step %d", r, bi, t)
			}
			clear(bd.Vals)
			degraded = true
			continue
		}
		nv := rs.nodeVals[i]
		for ci, local := range w.ds.blockCornerLocal[bi] {
			for k := 0; k < 8; k++ {
				bd.Vals[ci][k] = float32(nv[local[k]]) / 255
			}
		}
	}
	if degraded {
		w.markDegraded(t)
	}
	return nil
}

// Render implements Workload: merge the step's pieces into the scratch's
// BlockData (mergePieces), then ray-cast them.
func (w *RealWorkload) Render(c *mpi.Comm, t, r int, pieces []mpi.Message) (any, error) {
	if err := w.mergePieces(t, r, pieces); err != nil {
		return nil, err
	}
	rs := w.rendScr[r]
	mine := w.ds.rblocks[r]
	// Fan the ray casting out across this rank's persistent worker pool
	// (block- and tile-parallel; pixel-identical to the serial path).
	workers := w.rankWorkers()
	out := &rs.out
	out.frags = out.frags[:0]
	view := w.opts.View
	frags := w.rend.RenderBlocksWith(rs.bds, &view, workers, &rs.rscr)
	for i, frag := range frags {
		if frag != nil {
			frag.VisRank = w.visRank[mine[i]]
			out.frags = append(out.frags, frag)
		}
	}
	return out, nil
}

// Composite implements Workload: sort-last compositing through the
// renderer's persistent CompositeScratch (pooled wire payloads, reused
// clip/RLE buffers, pooled strip canvases), after which the rendered
// fragments' pixel buffers go back to the frame pool — everything they
// held has been copied or encoded onto the wire. The finished strip leaves
// as a stripPayload: the canvas itself, or under Options.Compress its
// run-length stream, whose length is then the declared message size.
func (w *RealWorkload) Composite(c *mpi.Comm, t, r int, group []int, rnd any) (int64, any, error) {
	frags := rnd.(*rendered).frags
	rs := w.rendScr[r]
	var im *img.Image
	var st compositor.Strip
	var err error
	switch w.opts.Compositor {
	case CompositeDirectSend:
		im, st, _, err = compositor.DirectSendWith(c, group, r, frags, w.opts.Width, w.opts.Height, tagComposite(t), w.opts.Compress, rs.comp)
	default:
		im, st, _, err = compositor.SLICWith(c, group, r, w.sched, frags, w.opts.Width, w.opts.Height, tagComposite(t), w.opts.Compress, rs.comp)
	}
	if err != nil {
		// A partial composite (some group peers lost mid-exchange) is still
		// a valid strip under the fault policy: the lost renderers' pixels
		// stay transparent and the frame is flagged instead of aborting.
		if !w.opts.Faults.Tolerate || !errors.Is(err, mpi.ErrPeerLost) {
			return 0, nil, err
		}
		w.markDegraded(t)
	}
	render.ReleaseFragments(frags)
	sp := rs.strips.Get()
	sp.owner = &rs.strips
	sp.Strip = st
	// The strip carries the renderer-side degraded flag to the output rank
	// (netcodec ships it), so cross-process runs fold renderer-local
	// incidents into the output's Result too.
	sp.degraded = w.FrameDegraded(t)
	if w.opts.Compress {
		// The stream is the payload on every transport, so the canvas is
		// free for the next step now, not when the output rank is done.
		sp.rle = compositor.EncodeRLEInto(sp.rle, im)
		sp.compressed = true
		rs.comp.ReleaseStrip(im)
		return int64(len(sp.rle)), sp, nil
	}
	sp.Img, sp.comp = im, rs.comp
	return compositor.RawBytes(im), sp, nil
}

// Assemble implements Workload: paste strips, put the LIC surface image
// underneath, and store the frame. Strip and LIC payloads are released
// once consumed, returning their buffers to the sending ranks' pools; the
// assembled frame comes from the frame ring, so a consumer that copies out
// or releases frames as it goes makes the whole per-frame assemble
// allocation-free.
func (w *RealWorkload) Assemble(c *mpi.Comm, t int, strips []mpi.Message, licMsg *mpi.Message) error {
	frame := w.ring.Acquire(w.opts.Width, w.opts.Height)
	for _, s := range strips {
		if s.Data == nil {
			// A lost renderer's strip never arrived (Pipeline substituted an
			// empty message): the ring frame's pixels are already zeroed, so
			// the gap stays transparent and the frame is flagged.
			if !w.opts.Faults.Tolerate {
				return fmt.Errorf("core: output missing strip from rank %d at step %d", s.Src, t)
			}
			w.markDegraded(t)
			continue
		}
		sp, ok := s.Data.(*stripPayload)
		if !ok {
			return fmt.Errorf("core: output got unexpected strip payload %T", s.Data)
		}
		if sp.degraded {
			// The renderer flagged its own incident (partial composite or
			// missing input pieces); fold it into this output's Result.
			w.markDegraded(t)
		}
		err := pasteStrip(frame, sp)
		sp.release()
		if err != nil {
			// A strip that does not fit the frame, or a stream that does not
			// fit the strip, pasted nothing: under the fault policy its rows
			// stay transparent like a lost renderer's.
			if !w.opts.Faults.Tolerate {
				return fmt.Errorf("core: output strip from rank %d at step %d: %w", s.Src, t, err)
			}
			w.markDegraded(t)
		}
	}
	if licMsg != nil && licMsg.Data != nil {
		lp, ok := licMsg.Data.(*licPayload)
		if !ok {
			return fmt.Errorf("core: output got unexpected LIC payload %T", licMsg.Data)
		}
		size := w.licSize()
		if lp.Img.W != size || lp.Img.H != size {
			return fmt.Errorf("core: output got a %dx%d LIC underlay, want %dx%d", lp.Img.W, lp.Img.H, size, size)
		}
		underStretched(frame, &lp.Img, w.licCols)
		lp.release()
	} else if licMsg != nil && w.opts.Faults.Tolerate {
		// LIC underlay dropped (degraded LIC step or lost LIC rank): render
		// the frame without it and flag it.
		w.markDegraded(t)
	}
	w.framesMu.Lock()
	if old := w.frames[t]; old != nil && old != frame {
		w.ring.Release(old) // re-assembled step: recycle the stale frame
	}
	w.frames[t] = frame
	w.framesMu.Unlock()
	// Every input of step t ran strictly before its strips/LIC arrived
	// here, so the degraded set is final for t: flag the frame now.
	if w.res != nil && w.FrameDegraded(t) {
		w.res.addDegradedFrame()
	}
	return nil
}

// pasteStrip writes one strip into the frame rows it covers, which the
// ring handed out cleared: a raw canvas by copy, a run-length stream
// record by record (skip records touch nothing, so no decoded image sits
// in between). A strip that does not fit the frame pastes nothing.
func pasteStrip(frame *img.Image, sp *stripPayload) error {
	if sp.compressed {
		return compositor.PasteRLE(frame, sp.Strip, sp.rle)
	}
	st := sp.Strip
	if st.H == 0 {
		return nil
	}
	if st.Y0 < 0 || st.H < 0 || st.Y0 > frame.H || st.H > frame.H-st.Y0 ||
		sp.Img == nil || len(sp.Img.Pix) != 4*frame.W*st.H {
		return fmt.Errorf("core: raw strip rows [%d, %d) do not fit a %dx%d frame", st.Y0, st.Y0+st.H, frame.W, frame.H)
	}
	copy(frame.Pix[4*st.Y0*frame.W:], sp.Img.Pix)
	return nil
}

// stretchCols returns, for each column of a w-pixel-wide frame, the float
// offset within a srcW-pixel underlay row of the pixel nearest-neighbor
// scaling puts under it: 4*(x*srcW/w). It depends on the two widths alone,
// so aim computes it once per view and underStretched divides per row only.
func stretchCols(dst []int32, w, srcW int) []int32 {
	dst = pool.Grow(dst, w)
	for x := range dst {
		dst[x] = int32(4 * (x * srcW / w))
	}
	return dst
}

// underStretched composites src, nearest-neighbor scaled to frame's size,
// under frame in place — img.Image.Under of the stretched LIC underlay,
// reading each source pixel where it lies instead of from a stretched copy.
// cols is stretchCols(frame.W, src.W).
func underStretched(frame, src *img.Image, cols []int32) {
	w, h := frame.W, frame.H
	for y := 0; y < h; y++ {
		row := src.Pix[4*(y*src.H/h)*src.W:]
		drow := frame.Pix[4*y*w:][:4*w]
		for x, sx := range cols {
			s := row[sx:][:4]
			d := drow[4*x:][:4]
			t := 1 - d[3]
			d[0] += t * s[0]
			d[1] += t * s[1]
			d[2] += t * s[2]
			d[3] += t * s[3]
		}
	}
}

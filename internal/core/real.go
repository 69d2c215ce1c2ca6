package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/compositor"
	"repro/internal/img"
	"repro/internal/lic"
	"repro/internal/mesh"
	"repro/internal/mpi"
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
	// skipSilent: the transfer function gives a silent block's value, 0, no
	// density, so Render leaves silent blocks out (projection would drop them).
	skipSilent bool

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
	frames   map[int]assembled

	// res is the run's fault accounting sink (docs/faults.md),
	// attached by NewPipeline.
	res *Result
}

// assembled is one frame an output rank of this workload assembled, with
// whether it was built from degraded input (FrameDegraded).
type assembled struct {
	img      *img.Image
	degraded bool
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
// shared half (NewDataset), then one workload on it aimed at opts' view.
func NewRealWorkload(l Layout, opts Options, store pfs.Store) (*RealWorkload, error) {
	d, err := NewDataset(l, opts, store)
	if err != nil {
		return nil, err
	}
	return d.NewWorkload(opts.Width, opts.Height, opts.View, opts.TFName), nil
}

// NewWorkload builds a workload on the dataset aimed at the view SetView
// takes — image size, camera and transfer function — with every other
// option the dataset's: the renderer and its transfer-function table, the
// per-rank scratches and worker pools, the frame ring, and the
// view-dependent tables. It reads no data, so it costs scratch allocation
// plus well under a millisecond of CPU; every workload on one Dataset is
// independent of the others.
func (d *Dataset) NewWorkload(width, height int, view render.View, tfName string) *RealWorkload {
	opts := d.opts
	opts.Width, opts.Height, opts.View, opts.TFName = width, height, view, tfName
	l := d.layout
	w := &RealWorkload{
		ds: d, opts: opts, store: d.store, steps: d.steps,
		frames: make(map[int]assembled),
	}
	// The frame ring is sized to the pipeline's prefetch window (the
	// default depth of 1 keeps one step streaming while one renders, so at
	// most two frames per output rank are in flight when consumers release
	// promptly); it grows on demand when they do not.
	w.ring = NewFrameRing(2*l.Outputs, opts.Width, opts.Height)
	w.rend = render.NewRenderer()
	w.rend.Lighting = opts.Lighting
	w.rend.TF = render.TFByName(opts.TFName)

	// Per-rank reuse scratches (PR 3).
	w.ipScr = make([]*ipScratch, l.NumInput())
	for i := range w.ipScr {
		// One value per node the rank's part reads: zeros until its first
		// successful fetch, which is what a step degraded before then ships.
		n := len(d.partIDs[i%l.IPsPerGroup])
		w.ipScr[i] = &ipScratch{q: make([]uint8, n), qspare: make([]uint8, n)}
		if opts.LIC && i%l.IPsPerGroup == 0 {
			// Group part 0 builds the LIC underlay: its row-band
			// convolution gets a persistent pool at the full width
			// (ComputeWith takes its width from the pool).
			w.ipScr[i].lic.scr.Pool = newPool(workers.Width(1))
		}
	}
	w.rendScr = make([]*rendererScratch, l.Renderers)
	for r := range w.rendScr {
		mine := d.rblocks[r]
		rs := &rendererScratch{
			nodeVals: make([][]uint8, len(mine)),
			got:      make([]bool, len(mine)),
			zero:     make([]bool, len(mine)),
			bds:      make([]*render.BlockData, len(mine)),
			live:     make([]*render.BlockData, len(mine)),
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
			rs.zero[i] = true
		}
		// The pool is sized to the rank's share of the process, not all of
		// it: renderer ranks share one process under the in-process
		// transports, so a full-width pool per rank would park
		// Renderers*GOMAXPROCS idle goroutines. Width 1 renders inline and
		// needs no pool at all.
		rs.width = l.renderWidth()
		rs.rscr.Pool = newPool(rs.width)
		w.rendScr[r] = rs
	}
	w.visRank = make([]int, len(d.roots))
	w.rects = make([][]compositor.Rect, l.Renderers)
	w.aim()
	return w
}

// aim computes everything that depends on the viewpoint, image size or
// transfer function — all of it from opts and the dataset's block roots.
func (w *RealWorkload) aim() {
	// Renderer ranks share w.rend across goroutines; bake its defaults and
	// transfer-function table now, between runs, while single-threaded
	// (the table is rebuilt only when the transfer function changed).
	w.rend.Prepare()
	w.skipSilent = w.rend.TF.TransparentBelow(float64(render.Dequantize(0)))

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
		fx0, fy0, fx1, fy1, _ := view.ProjectBox(root.Bounds())
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
// The call must happen between pipeline runs, never during one: it releases
// any frames still held from the previous window, and their degraded flags,
// back to the ring (the copy-out-or-release contract for a
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
// it between pipeline runs; leftover frames and their degraded flags go
// back to the ring. Only the view-dependent tables are
// recomputed (block visibility order, SLIC schedule, and the transfer-
// function table when tfName changed); the dataset, scratches, pools and
// frame ring stay warm, so a camera move costs one frame render. The next
// run's frames are bit-identical to those of a workload NewWorkload built
// with these values.
func (w *RealWorkload) SetView(width, height int, view render.View, tfName string) {
	w.resetRun()
	if tfName != w.opts.TFName {
		w.rend.TF = render.TFByName(tfName)
	}
	w.opts.Width, w.opts.Height, w.opts.View, w.opts.TFName = width, height, view, tfName
	w.aim()
}

// resetRun drops what the previous run left behind: unconsumed frames
// return to the ring.
func (w *RealWorkload) resetRun() {
	w.framesMu.Lock()
	for t, f := range w.frames {
		delete(w.frames, t)
		w.ring.Release(f.img)
	}
	w.framesMu.Unlock()
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
	return w.frames[t].img
}

// ReleaseFrame returns timestep t's assembled frame to the frame ring and
// forgets it. The image previously returned by Frame(t) must not be used
// afterwards. Releasing a missing or already-released step is a no-op.
// Streaming consumers release each frame once written out, which keeps the
// ring at the prefetch depth and the steady-state assemble allocation-free.
func (w *RealWorkload) ReleaseFrame(t int) {
	w.framesMu.Lock()
	f := w.frames[t]
	delete(w.frames, t)
	w.framesMu.Unlock()
	w.ring.Release(f.img)
}

// Mesh exposes the loaded mesh (for examples).
func (w *RealWorkload) Mesh() *mesh.Mesh { return w.ds.mesh }

// Close shuts down the workload's persistent worker pools (the renderer
// ranks' and the LIC ranks'). Optional — an unreachable workload's pools
// are reclaimed by the GC cleanup backstop — but long-lived processes that
// build many workloads (test suites, experiment sweeps) should close each
// one when done with it. The workload must not run afterwards; frames and
// their ring remain usable.
func (w *RealWorkload) Close() {
	for _, rs := range w.rendScr {
		if rs.rscr.Pool != nil {
			rs.rscr.Pool.Close()
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

// magQuant converts the raw node records read through ps.view to quantized
// values in scr.q, one per position of the part (ps.nodes), applying
// temporal enhancement when enabled, in one decode kernel pass per run of
// records (decode.go): bytes straight to q, or under enhancement the
// current records to magnitudes first and, only once they validated, those
// folded with the previous step's on their way to q. Only the positions of
// ps.live are computed; every other position of the part belongs to blocks
// the occupancy index calls silent at the step, whose values are 0. The
// kernels quantize into scr.qspare, which is swapped with scr.q only when
// the step succeeded, so a step that fails anywhere — a malformed record
// surfaces as an error instead of silently truncating — leaves the previous
// step's values in scr.q. Without enhancement the plan reads exactly its
// live positions (ps.read is ps.live).
//
// With more than one group the previous step's magnitudes come from the
// rank that read that step: the same part of the previous step's group,
// which read the records of this step's live positions too (its ps.next)
// and sends their magnitudes, in position order. As soon as this step's
// records have validated, the magnitudes of the next step's live
// positions go to the rank that reads it (handOff), and only then does
// this rank take the previous step's (receiveHandoff) and quantize from
// the two. Without them — with one group, at the window's first step,
// when a marker came instead, when the predecessor was lost, and when c is
// nil — it reads the previous step's records itself, through the same view
// and the second file handle, and takes their magnitudes.
//
// The hand-off cannot deadlock: a rank sends before it waits for anything
// but its own read (and its collective round, whose peers read the same
// step), so the rank reading the earliest step in flight always proceeds,
// and every receive inside a window has exactly one matching send — Fetch
// sends a marker on every path that sent no magnitudes. A rank that leaves
// the input loop early strands its successor here as it already strands
// the renderers waiting for its pieces.
func (w *RealWorkload) magQuant(c *mpi.Comm, t int, ps *partStep, raw []byte, scr *ipScratch, h *handoff) error {
	n := ps.nodes
	scr.qspare = pool.Grow(scr.qspare, n)
	if ps.nlive < n {
		clear(scr.qspare)
	}
	if !w.opts.Enhancement {
		if err := quantizeRuns(scr.qspare, raw, ps.read, w.ds.vmax); err != nil {
			return fmt.Errorf("core: step %d: %w", t, err)
		}
		scr.q, scr.qspare = scr.qspare, scr.q
		return nil
	}
	// A re-read of a step whose magnitudes already validated in this Fetch
	// keeps them: they were handed off, and the same object holds the same
	// values.
	if !h.mag {
		scr.mag = pool.Grow(scr.mag, n)
		if err := magnitudeRuns(scr.mag, raw, ps.read); err != nil {
			return fmt.Errorf("core: step %d: %w", t, err)
		}
		h.mag = true
		w.handOff(c, t, scr, h, ps)
	}
	if err := w.receiveHandoff(c, t, scr, h); err != nil {
		return err
	}
	// prev holds the previous step's magnitudes: of the live positions,
	// packed, as the hand-off carries them, or of every read position. A
	// round that read a stale object whole (fetchStep) reads the previous
	// step whole too: the hand-off holds the step's live positions only.
	var prev []float32
	packed := h.handed && !scr.stale
	if packed {
		prev = h.prev
	} else if t+w.stepBase > 0 {
		// The fallback: the same view on the previous object, read
		// independently through the second file handle so the current
		// step's handle keeps its collective round and this one its own,
		// and turned into magnitudes as its reader would have.
		f := &scr.pfile
		if err := f.Reopen(c, w.store, w.stepName(t-1)); err != nil {
			return err
		}
		f.SetView(0, ps.view)
		scr.praw = pool.Grow[byte](scr.praw, int(ps.view.Size()))
		if _, err := f.ReadInto(scr.praw); err != nil {
			return err
		}
		scr.pmag = pool.Grow(scr.pmag, n)
		if err := magnitudeRuns(scr.pmag, scr.praw, ps.read); err != nil {
			return fmt.Errorf("core: step %d: %w", t-1, err)
		}
		prev = scr.pmag
	}
	for _, r := range ps.live {
		p := prev
		switch {
		case packed:
			p, prev = prev[:r.hi-r.lo], prev[r.hi-r.lo:]
		case p != nil:
			p = p[r.lo:r.hi]
		}
		magnitudeQuantize(scr.qspare[r.lo:r.hi], scr.mag[r.lo:r.hi], p, w.opts.EnhanceGain, w.ds.vmax)
	}
	scr.q, scr.qspare = scr.qspare, scr.q
	return nil
}

// handoff is one Fetch call's side of the enhancement hand-off (magQuant),
// shared by the step's re-reads: whether this step's magnitudes are in the
// scratch and whether its hand-off went out, and what came in from the
// previous step.
type handoff struct {
	mag    bool        // scr.mag holds the magnitudes of this step's record
	sent   bool        // the hand-off to the next step went out
	recvd  bool        // the previous step's hand-off was taken
	handed bool        // prev came in a hand-off; else the rank reads the previous step itself
	prev   []float32   // the previous step's magnitudes of this step's live positions, packed
	msg    *magPayload // what prev came in, released when the Fetch ends
}

// handsOff reports whether step t hands its magnitudes to a next step:
// under enhancement with more than one group, when the window holds one.
// With one group the next step's rank is this one, which reads step t
// again instead. c is nil only for direct decode calls, which have no
// peers.
func (w *RealWorkload) handsOff(c *mpi.Comm, t int) bool {
	return c != nil && w.opts.Enhancement && w.ds.layout.Groups > 1 && t+1 < w.steps
}

// handOff sends step t's hand-off to the rank that reads step t+1, the
// same part of the next step's group, once per Fetch: with ps, the
// magnitudes in scr.mag of the positions ps.next — the next step's live
// ones — packed in position order, or with ps nil an empty marker that
// tells it to read step t itself. It travels on tagData(t), on which input
// ranks receive nothing else.
func (w *RealWorkload) handOff(c *mpi.Comm, t int, scr *ipScratch, h *handoff, ps *partStep) {
	if h.sent || !w.handsOff(c, t) {
		return
	}
	h.sent = true
	l := w.ds.layout
	dst := l.InputRank((t+1)%l.Groups, scr.part)
	if ps == nil {
		c.Send(dst, tagData(t), 0, nil)
		return
	}
	p := scr.mags.Get()
	p.owner = &scr.mags
	p.mag = p.mag[:0]
	for _, r := range ps.next {
		p.mag = append(p.mag, scr.mag[r.lo:r.hi]...)
	}
	c.Send(dst, tagData(t), int64(4*len(p.mag)), p)
}

// receiveHandoff takes step t−1's hand-off, once per Fetch, into h.prev —
// left nil when a marker came, when the predecessor was lost and the fault
// policy tolerates it, and where no hand-off comes (handsOff). Magnitudes
// for another number of nodes than the part's live positions at step t are
// refused whole, as checkPiece refuses a piece.
func (w *RealWorkload) receiveHandoff(c *mpi.Comm, t int, scr *ipScratch, h *handoff) error {
	if h.recvd || t == 0 || !w.handsOff(c, t-1) {
		return nil
	}
	h.recvd = true
	l := w.ds.layout
	msg, err := c.RecvErr(l.InputRank((t-1)%l.Groups, scr.part), tagData(t-1))
	if err != nil {
		if w.opts.Faults.Tolerate && errors.Is(err, mpi.ErrPeerLost) {
			return nil
		}
		return err
	}
	return w.takeHandoff(t, scr.part, msg.Data, h)
}

// takeHandoff accepts data, what arrived as step t−1's hand-off to group
// part's rank: a marker (nil) leaves h.prev nil, magnitudes for exactly the
// part's live positions at step t become h.prev, and anything else is
// refused. A payload is kept in h.msg either way, for settleHandoff to
// release.
func (w *RealWorkload) takeHandoff(t, part int, data any, h *handoff) error {
	switch p := data.(type) {
	case nil:
		return nil
	case *magPayload:
		h.msg = p
		if n := w.ds.partStep(t+w.stepBase, part).nlive; len(p.mag) != n {
			return fmt.Errorf("core: step %d: magnitudes hand-off holds %d values, part %d has %d nodes live at the step", t, len(p.mag), part, n)
		}
		h.prev, h.handed = p.mag, true
		return nil
	default:
		return fmt.Errorf("core: step %d: hand-off for part %d is a %T, not magnitudes", t, part, data)
	}
}

// settleHandoff closes the Fetch of step t: a marker goes to the next step
// if no magnitudes did, the previous step's hand-off is taken if the step
// failed before it needed it (so no message outlives the window), and what
// came is released.
func (w *RealWorkload) settleHandoff(c *mpi.Comm, t int, scr *ipScratch, h *handoff) {
	w.handOff(c, t, scr, h, nil)
	// The step is over whatever came: a drained hand-off's error cannot
	// change it.
	_ = w.receiveHandoff(c, t, scr, h)
	h.msg.release()
}

// fetchStep reads group part's share of step t into the rank's scratch — the
// body of Fetch (see faults.go for the retry/degrade wrapper that implements
// the Workload hook): open the step object, view it through the part's
// committed type for the step (Dataset.partStep: the records of the
// step's live blocks), read, and run the decode chain, which leaves the
// part's quantized values in scr.q in partIDs order. The read strategy
// picks the read call and nothing else: under ReadCollective the group's m
// IPs read with one collective call on the group's sub-communicator,
// otherwise each reads its view independently (data sieving; a hole-free
// view is one contiguous read).
func (w *RealWorkload) fetchStep(c *mpi.Comm, t, part int, scr *ipScratch, h *handoff) error {
	ps := w.ds.partStep(t+w.stepBase, part)
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
			// The round reads an older object, whose magnitudes are not
			// step t's: the next step reads step t itself. It reads the
			// object whole, through the part's plan with every block live,
			// since its pieces ship every block's values (PayloadFor).
			scr.stale = true
			w.account(0, 0, true)
			w.handOff(c, t, scr, h, nil)
			ps = &w.ds.dense[part]
		}
	}
	view := ps.view
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
	return w.magQuant(c, t, ps, scr.raw, scr, h)
}

// Preprocess implements Workload. Magnitude computation, enhancement and
// quantization already happened during Fetch (they operate on the raw read
// buffer); nothing further is needed for the volume path.
func (w *RealWorkload) Preprocess(c *mpi.Comm, t, part, m int, fetched any) (any, error) {
	return fetched, nil
}

// PayloadFor implements Workload: renderer's piece is the committed gather
// plan applied to the values Fetch left in the rank's scratch (prep) — no
// node id is looked at — restricted to the runs of the blocks live at the
// step (Dataset.liveAt): a silent block's values are all 0, which is what
// a block no piece touches reads as. A stale step ships every block's runs,
// flagged: its values are an earlier step's, whose live blocks the plan of
// this step does not name. Payloads are pooled on this rank and released by
// the consuming renderer once merged, so the per-block value slices (all
// aliasing one backing buffer per payload) are reused across timesteps with
// the prefetch window's lifetime respected. The declared size is a value
// per node plus an 8-byte header per run, 1 for a piece of no run: the
// message still goes, as the credit protocol's beat.
func (w *RealWorkload) PayloadFor(c *mpi.Comm, t int, prep any, renderer int) (int64, any) {
	scr := prep.(*ipScratch)
	g := &w.ds.gather[scr.part][renderer]
	live := w.pieceLive(t, scr.stale)
	p := getData(&scr.pool)
	p.stale = scr.stale
	p.vals = pool.Grow(p.vals, len(g.src))
	bytes, n, src := int64(0), 0, g.src
	for _, run := range g.runs {
		at := src[:run.Len]
		src = src[run.Len:]
		if !blockLive(live, run.Block) {
			continue
		}
		vals := p.vals[n : n+len(at) : n+len(at)]
		for i, k := range at {
			vals[i] = scr.q[k]
		}
		p.runs = append(p.runs, blockRun{Block: run.Block, Off: run.Off, Vals: vals})
		n += len(at)
		bytes += 8 + int64(len(at))
	}
	p.vals = p.vals[:n]
	return max(bytes, 1), p
}

// pieceLive is the live-block set the pieces of logical step t carry: the
// occupancy index's, or every block for a stale piece.
func (w *RealWorkload) pieceLive(t int, stale bool) []uint64 {
	if stale {
		return nil
	}
	return w.ds.liveAt(t + w.stepBase)
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
	im, err := lic.ComputeWith(&ls.grid, size, size, lic.Config{L: size / 12, Seed: 7, Phase: -1}, &ls.scr)
	if err != nil {
		return 0, nil, err
	}
	lp := ls.pool.Get()
	lp.owner = &ls.pool
	im.ColorizeInto(&lp.Img, &ls.grid)
	return compositor.RawBytes(&lp.Img), lp, nil
}

// checkPiece reports whether dp is the piece group part owes renderer r at
// logical step t: the committed plan's runs of the blocks live at the step
// (every block's, for a stale piece), each as long as the plan says.
// Anything else — a block that is not r's or not live, a run outside its
// block's node list, a piece built for another renderer, step or layout —
// is refused whole, before a value moves.
func (w *RealWorkload) checkPiece(t, part, r int, dp *dataPayload) error {
	live := w.pieceLive(t, dp.stale)
	i := 0
	for _, o := range w.ds.gather[part][r].runs {
		if !blockLive(live, o.Block) {
			continue
		}
		if i == len(dp.runs) {
			return fmt.Errorf("core: data piece ends after %d runs, part %d still owes renderer %d block %d", i, part, r, o.Block)
		}
		if run := dp.runs[i]; run.Block != o.Block || run.Off != o.Off || len(run.Vals) != int(o.Len) {
			return fmt.Errorf("core: data piece run %d is block %d nodes [%d, %d), part %d owes renderer %d block %d nodes [%d, %d)",
				i, run.Block, run.Off, int(run.Off)+len(run.Vals), part, r, o.Block, o.Off, o.Off+o.Len)
		}
		i++
	}
	if i < len(dp.runs) {
		return fmt.Errorf("core: data piece run %d (block %d) is one more than part %d owes renderer %d", i, dp.runs[i].Block, part, r)
	}
	return nil
}

// mergePieces scatters step t's pieces — pieces[k] from group part k — into
// renderer r's per-block staging buffers, turns them into the corner values
// of its BlockData and hands the wire payloads back to their senders' pools:
// the signal those pools need to reuse the buffers for a later in-flight
// step. A piece that is not what its part owes (checkPiece) fails the step;
// under Faults.Tolerate it is dropped like the piece of a lost input rank,
// whose nodes stay zero, and the step is flagged (rs.degraded, which
// Composite ships on the strip). A block of which no accepted piece's part
// owes any run — whether the step's index calls it live or not — flags the
// step too, or fails it without the fault policy, and so does a stale
// piece.
//
// A silent block — every staged node byte 0, as a block no piece touched
// always is, since the staging is cleared first; the blocks the occupancy
// index calls silent come in no piece — skips the corner gather:
// its Vals are the dequantized zeros, +0, cleared once when it falls silent
// (rs.zero), and Render leaves it out where the transfer function is
// transparent at 0.
func (w *RealWorkload) mergePieces(t, r int, pieces []mpi.Message) error {
	rs := w.rendScr[r]
	clear(rs.got)
	for i := range rs.nodeVals {
		clear(rs.nodeVals[i])
	}
	rs.degraded = false
	for part, p := range pieces {
		dp, ok := p.Data.(*dataPayload)
		if !ok || dp == nil {
			continue
		}
		rs.degraded = rs.degraded || dp.stale
		if err := w.checkPiece(t, part, r, dp); err != nil {
			if !w.opts.Faults.Tolerate {
				return fmt.Errorf("core: renderer %d step %d: piece from rank %d: %w", r, t, p.Src, err)
			}
			rs.degraded = true
		} else {
			for _, run := range dp.runs {
				copy(rs.nodeVals[w.ds.rblockPos[run.Block]][run.Off:], run.Vals)
			}
			for _, run := range w.ds.gather[part][r].runs {
				rs.got[w.ds.rblockPos[run.Block]] = true
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
			rs.degraded = true
		}
		nv := rs.nodeVals[i]
		if allZero(nv) {
			if !rs.zero[i] {
				clear(bd.Vals)
				rs.zero[i] = true
			}
			continue
		}
		rs.zero[i] = false
		for ci, local := range w.ds.blockCornerLocal[bi] {
			// Element by element, not as an [8]float32 literal: the literal
			// is built on the stack and copied out in 16-byte moves that
			// stall on its eight 4-byte stores.
			v := &bd.Vals[ci]
			v[0], v[1] = render.Dequantize(nv[local[0]]), render.Dequantize(nv[local[1]])
			v[2], v[3] = render.Dequantize(nv[local[2]]), render.Dequantize(nv[local[3]])
			v[4], v[5] = render.Dequantize(nv[local[4]]), render.Dequantize(nv[local[5]])
			v[6], v[7] = render.Dequantize(nv[local[6]]), render.Dequantize(nv[local[7]])
		}
	}
	return nil
}

// allZero reports whether every byte of b is 0, testing eight at a time.
func allZero(b []uint8) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Render implements Workload: merge the step's pieces into the scratch's
// BlockData (mergePieces), then ray-cast them, silent blocks left out.
func (w *RealWorkload) Render(c *mpi.Comm, t, r int, pieces []mpi.Message) (any, error) {
	if err := w.mergePieces(t, r, pieces); err != nil {
		return nil, err
	}
	rs := w.rendScr[r]
	mine := w.ds.rblocks[r]
	for i, bd := range rs.bds {
		if w.skipSilent && rs.zero[i] {
			bd = nil // RenderBlocksWith returns no fragment for it
		}
		rs.live[i] = bd
	}
	// Fan the ray casting out across this rank's persistent worker pool
	// (block- and tile-parallel; pixel-identical to the serial path).
	out := &rs.out
	out.frags = out.frags[:0]
	// The view is passed in place, not copied: RenderBlocksWith only reads
	// it, and SetView writes it only between runs. A local copy would
	// escape to the heap, one allocation a step.
	frags := w.rend.RenderBlocksWith(rs.live, &w.opts.View, rs.width, &rs.rscr)
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
// run-length stream, whose length is then the declared message size. The
// strip carries the renderer's step flag (rs.degraded) to the output rank.
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
		rs.degraded = true
	}
	render.ReleaseFragments(frags)
	sp := rs.strips.Get()
	sp.owner = &rs.strips
	sp.Strip = st
	sp.degraded = rs.degraded
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
// allocation-free. A step that fails hands its canvas back to the ring.
// The frame is stored with its degraded flag, which the step's strips and
// underlay alone decide: every input of step t reached this rank on them.
func (w *RealWorkload) Assemble(c *mpi.Comm, t int, strips []mpi.Message, licMsg *mpi.Message) error {
	frame := w.ring.Acquire(w.opts.Width, w.opts.Height)
	degraded, err := w.assembleInto(frame, t, strips, licMsg)
	if err != nil {
		w.ring.Release(frame)
		return err
	}
	w.framesMu.Lock()
	if old := w.frames[t].img; old != nil && old != frame {
		w.ring.Release(old) // re-assembled step: recycle the stale frame
	}
	w.frames[t] = assembled{img: frame, degraded: degraded}
	w.framesMu.Unlock()
	if w.res != nil && degraded {
		w.res.addDegradedFrame()
	}
	return nil
}

// assembleInto is Assemble's body on the acquired canvas frame; it reports
// whether the frame is degraded.
func (w *RealWorkload) assembleInto(frame *img.Image, t int, strips []mpi.Message, licMsg *mpi.Message) (degraded bool, err error) {
	for _, s := range strips {
		if s.Data == nil {
			// A lost renderer's strip never arrived (Pipeline substituted an
			// empty message): the ring frame's pixels are already zeroed, so
			// the gap stays transparent and the frame is flagged.
			if !w.opts.Faults.Tolerate {
				return false, fmt.Errorf("core: output missing strip from rank %d at step %d", s.Src, t)
			}
			degraded = true
			continue
		}
		sp, ok := s.Data.(*stripPayload)
		if !ok {
			return false, fmt.Errorf("core: output got unexpected strip payload %T", s.Data)
		}
		// The renderer flagged its step (stale, refused or missing input,
		// or a partial composite).
		degraded = degraded || sp.degraded
		err := pasteStrip(frame, sp)
		sp.release()
		if err != nil {
			// A strip that does not fit the frame, or a stream that does not
			// fit the strip, pasted nothing: under the fault policy its rows
			// stay transparent like a lost renderer's.
			if !w.opts.Faults.Tolerate {
				return false, fmt.Errorf("core: output strip from rank %d at step %d: %w", s.Src, t, err)
			}
			degraded = true
		}
	}
	if licMsg == nil {
		return degraded, nil
	}
	if licMsg.Data == nil {
		// LIC underlay dropped (degraded LIC step or lost LIC rank): render
		// the frame without it and flag it.
		return degraded || w.opts.Faults.Tolerate, nil
	}
	lp, ok := licMsg.Data.(*licPayload)
	if !ok {
		return false, fmt.Errorf("core: output got unexpected LIC payload %T", licMsg.Data)
	}
	// An underlay of another size (its size comes off the wire over RunNet)
	// is one that did not arrive: under the fault policy the frame goes
	// without it and is flagged, as for a dropped underlay.
	size, uw, uh := w.licSize(), lp.Img.W, lp.Img.H
	fits := uw == size && uh == size
	if fits {
		underStretched(frame, &lp.Img, w.licCols)
	}
	lp.release()
	if !fits {
		if !w.opts.Faults.Tolerate {
			return false, fmt.Errorf("core: output got a %dx%d LIC underlay, want %dx%d", uw, uh, size, size)
		}
		degraded = true
	}
	return degraded, nil
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
// cols is stretchCols(frame.W, src.W), non-decreasing, so a source pixel
// lies under a run of consecutive frame columns: it is loaded once for its
// run, and each frame pixel blends it channel by channel in Under's order.
func underStretched(frame, src *img.Image, cols []int32) {
	w, h := frame.W, frame.H
	cols = cols[:w]
	for y := 0; y < h; y++ {
		row := src.Pix[4*(y*src.H/h)*src.W:][:4*src.W]
		drow := frame.Pix[4*y*w:][:4*w]
		for x := 0; x < w; {
			sx := cols[x]
			s := row[sx : sx+4 : sx+4]
			s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
			for ; x < w && cols[x] == sx; x++ {
				d := drow[4*x : 4*x+4 : 4*x+4]
				t := 1 - d[3]
				d[0] += t * s0
				d[1] += t * s1
				d[2] += t * s2
				d[3] += t * s3
			}
		}
	}
}

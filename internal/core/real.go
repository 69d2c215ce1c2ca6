package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// frames the caller can retrieve with Frame(): each kept as one run-length
// stream until it is read.
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

	// ring recycles the canvases frames are read into; see FrameRing for
	// the copy-out-or-release consumer contract.
	ring FrameRing

	// frames holds each assembled step under framesMu, with the free lists
	// its stream and underlay buffers return to. readMu serializes what
	// reads a frame's buffers outside framesMu — Frame(t) pasting them —
	// with what recycles them, so the output rank can go on assembling
	// later steps while a frame is read. Lock order: readMu, then framesMu.
	readMu    sync.Mutex
	framesMu  sync.Mutex
	frames    map[int]assembled
	streams   [][]byte
	underlays []*img.Image

	// res is the run's fault accounting sink (docs/faults.md),
	// attached by NewPipeline.
	res *Result
}

// assembled is one frame an output rank of this workload assembled: the
// strips stitched into one frame-wide run-length stream, its own copy of
// the LIC underlay (nil when the frame has none), the canvas Frame built
// from them once the frame was read (nil until then), and whether it was
// built from degraded input (FrameDegraded).
type assembled struct {
	rle      []byte
	under    *img.Image
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
// per-rank scratches and worker pools, and the view-dependent tables. The
// frame ring starts empty: frames are kept as streams, and a canvas is
// allocated only when a frame is read. It reads no data, so it costs
// scratch allocation plus well under a millisecond of CPU; every workload
// on one Dataset is independent of the others.
func (d *Dataset) NewWorkload(width, height int, view render.View, tfName string) *RealWorkload {
	opts := d.opts
	opts.Width, opts.Height, opts.View, opts.TFName = width, height, view, tfName
	l := d.layout
	w := &RealWorkload{
		ds: d, opts: opts, store: d.store, steps: d.steps,
		frames: make(map[int]assembled),
	}
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
// return their canvases to the ring and their buffers to the free lists.
func (w *RealWorkload) resetRun() {
	w.readMu.Lock()
	w.framesMu.Lock()
	for t, f := range w.frames {
		delete(w.frames, t)
		w.recycle(f)
	}
	w.framesMu.Unlock()
	w.readMu.Unlock()
}

// recycle returns frame f's canvas to the ring and its stream and underlay
// buffers to the free lists. framesMu must be held, and readMu too when f
// has been in the table, since Frame may be reading its buffers. A frame
// that never needed a stream buffer (nothing lit) still leaves its nil
// one, so that newFrame keeps handing each step the buffer of the step
// it follows in the previous pass.
func (w *RealWorkload) recycle(f assembled) {
	w.ring.Release(f.img)
	w.streams = append(w.streams, f.rle[:0])
	if f.under != nil {
		w.underlays = append(w.underlays, f.under)
	}
}

// Steps implements Workload.
func (w *RealWorkload) Steps() int { return w.steps }

// WantLIC implements Workload.
func (w *RealWorkload) WantLIC() bool { return w.opts.LIC }

// Frame returns the image of timestep t, or nil when no output rank in
// this process has assembled step t. The first call builds the pixels: a
// cleared canvas from the frame ring, the frame's stream pasted into it
// (compositor.PasteRLE), the LIC underlay composited under them
// (underStretched). Those are the operations, in the order, of assembling
// the strips into a canvas directly, so every bit is the one that would
// make; and the underlay is composited in the process of the output rank
// that received it. Later calls return the same image. Frame may be
// called while the output ranks assemble later steps. The image is a
// borrow from the frame ring: it stays valid until the caller releases it
// with ReleaseFrame. Callers that never release keep every frame they
// have read alive as a canvas.
func (w *RealWorkload) Frame(t int) *img.Image {
	w.readMu.Lock()
	defer w.readMu.Unlock()
	w.framesMu.Lock()
	f, ok := w.frames[t]
	w.framesMu.Unlock()
	if !ok || f.img != nil {
		return f.img
	}
	// readMu keeps f's buffers from being recycled, and step t from being
	// replaced or released, until the canvas is in the table.
	m := w.ring.Acquire(w.opts.Width, w.opts.Height)
	if err := compositor.PasteRLE(m, compositor.Strip{H: m.H}, f.rle); err != nil {
		panic(fmt.Sprintf("core: frame %d's stream does not fit its frame: %v", t, err))
	}
	if f.under != nil {
		underStretched(m, f.under, w.licCols)
	}
	f.img = m
	w.framesMu.Lock()
	w.frames[t] = f
	w.framesMu.Unlock()
	return m
}

// ReleaseFrame forgets timestep t's frame: its canvas, if it was read,
// goes back to the frame ring and its buffers to the workload's free
// lists. The image previously returned by Frame(t) must not be used
// afterwards. Releasing a missing or already-released step is a no-op.
// Streaming consumers release each frame once written out, which keeps
// the ring at one canvas and the steady-state assemble allocation-free.
func (w *RealWorkload) ReleaseFrame(t int) {
	w.readMu.Lock()
	w.framesMu.Lock()
	if f, ok := w.frames[t]; ok {
		delete(w.frames, t)
		w.recycle(f)
	}
	w.framesMu.Unlock()
	w.readMu.Unlock()
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

// Assemble implements Workload: stitch the step's strips, sorted by Y0,
// into one frame-wide run-length stream, keep a copy of the LIC underlay
// beside it, and store the frame. No canvas is touched: Frame(t) builds
// the pixels when the frame is read. Every strip and underlay check is
// made here, so a step fails or is flagged degraded at assembly. Strip
// and LIC payloads are released once consumed, returning their buffers to
// the sending ranks' pools, and the stream and underlay buffers come from
// free lists that ReleaseFrame refills, so a consumer that releases
// frames as it goes makes the whole per-frame assemble allocation-free.
// A step that fails hands its buffers back. The frame is stored with its
// degraded flag, which the step's strips and underlay alone decide: every
// input of step t reached this rank on them. Assemble reorders strips.
func (w *RealWorkload) Assemble(c *mpi.Comm, t int, strips []mpi.Message, licMsg *mpi.Message) error {
	f := w.newFrame()
	degraded, err := w.assembleInto(&f, t, strips, licMsg)
	if err != nil {
		w.framesMu.Lock()
		w.recycle(f)
		w.framesMu.Unlock()
		return err
	}
	f.degraded = degraded
	w.keep(t, f)
	if w.res != nil && degraded {
		w.res.addDegradedFrame()
	}
	return nil
}

// newFrame starts a frame on a stream buffer from the free list: the one
// released first. Consumers release frames in the order they were
// assembled, so a pass over the same view gets for each step the buffer
// that step grew in the pass before, and does not grow it again.
func (w *RealWorkload) newFrame() assembled {
	var f assembled
	w.framesMu.Lock()
	if n := len(w.streams); n > 0 {
		f.rle = w.streams[0]
		copy(w.streams, w.streams[1:])
		w.streams[n-1] = nil
		w.streams = w.streams[:n-1]
	}
	w.framesMu.Unlock()
	return f
}

// underlayCopy returns a copy of the LIC underlay src, in a buffer from
// the free list when there is one: every underlay a workload keeps is
// licSize² (assembleInto refuses others).
func (w *RealWorkload) underlayCopy(src *img.Image) *img.Image {
	var m *img.Image
	w.framesMu.Lock()
	if k := len(w.underlays); k > 0 {
		m, w.underlays = w.underlays[k-1], w.underlays[:k-1]
	}
	w.framesMu.Unlock()
	if m == nil {
		m = img.New(src.W, src.H)
	}
	copy(m.Pix, src.Pix)
	return m
}

// keep stores f as step t's frame. A step assembled again (a second run
// without a re-aim) replaces the frame before it, which is recycled under
// readMu, since Frame may be reading it.
func (w *RealWorkload) keep(t int, f assembled) {
	w.framesMu.Lock()
	if _, ok := w.frames[t]; !ok {
		w.frames[t] = f
		w.framesMu.Unlock()
		return
	}
	w.framesMu.Unlock()
	w.readMu.Lock()
	w.framesMu.Lock()
	if old, ok := w.frames[t]; ok {
		w.recycle(old)
	}
	w.frames[t] = f
	w.framesMu.Unlock()
	w.readMu.Unlock()
}

// assembleInto is Assemble's body on frame f; it reports whether the frame
// is degraded.
func (w *RealWorkload) assembleInto(f *assembled, t int, strips []mpi.Message, licMsg *mpi.Message) (degraded bool, err error) {
	for _, s := range strips {
		if s.Data == nil {
			// A lost renderer's strip never arrived (Pipeline substituted an
			// empty message): its rows get no records, so the gap stays
			// transparent and the frame is flagged.
			if !w.opts.Faults.Tolerate {
				return false, fmt.Errorf("core: output missing strip from rank %d at step %d", s.Src, t)
			}
			degraded = true
			continue
		}
		if _, ok := s.Data.(*stripPayload); !ok {
			return false, fmt.Errorf("core: output got unexpected strip payload %T", s.Data)
		}
	}
	sortStrips(strips)
	st := compositor.NewStitch(w.opts.Width, w.opts.Height)
	for _, s := range strips {
		sp, ok := s.Data.(*stripPayload)
		if !ok {
			continue // a missing strip, judged above
		}
		// The renderer flagged its step (stale, refused or missing input,
		// or a partial composite).
		degraded = degraded || sp.degraded
		var err error
		f.rle, err = stitchStrip(&st, f.rle, sp)
		sp.release()
		if err != nil {
			// A strip that does not fit the frame, overlaps a strip above
			// it, or carries a stream that does not fit it added nothing:
			// under the fault policy its rows stay transparent like a lost
			// renderer's.
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
		// LIC underlay dropped (degraded LIC step or lost LIC rank): the
		// frame goes without it and is flagged.
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
		f.under = w.underlayCopy(&lp.Img)
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

// sortStrips puts the strips in row order, stably: by Y0, with the missing
// ones (no payload) first. An insertion sort, since there is one strip per
// renderer and it must not allocate.
func sortStrips(strips []mpi.Message) {
	y0 := func(m mpi.Message) int {
		if sp, ok := m.Data.(*stripPayload); ok {
			return sp.Strip.Y0
		}
		return math.MinInt
	}
	for i := 1; i < len(strips); i++ {
		for j := i; j > 0 && y0(strips[j]) < y0(strips[j-1]); j-- {
			strips[j], strips[j-1] = strips[j-1], strips[j]
		}
	}
}

// stitchStrip appends one strip's rows to the frame's stream dst and
// returns it: a raw canvas encoded straight from its rows, a run-length
// stream record by record with its skips rebased (compositor.Stitch). A
// strip that does not fit the frame, overlaps the strips before it, or
// carries a stream or canvas that does not fit it appends nothing.
func stitchStrip(s *compositor.Stitch, dst []byte, sp *stripPayload) ([]byte, error) {
	if sp.compressed {
		return s.AppendRLE(dst, sp.Strip, sp.rle)
	}
	var pix []float32
	if sp.Img != nil {
		pix = sp.Img.Pix
	}
	return s.AppendRaw(dst, sp.Strip, pix)
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

package core

// PR 3's steady-state reuse layer for the real workload: every wire
// payload the pipeline ships (per-renderer data pieces, composited strips,
// the surface-LIC underlay) is a pooled, typed struct with an explicit
// release by its consumer, and every rank keeps a scratch whose staging
// buffers are reused across its timesteps. Consumer release is the
// lifetime tracking the prefetch window needs: a buffer returns to its
// sender's pool only after the in-flight step that references it has been
// fully consumed, so the pool depth converges to the pipeline depth and
// then the whole per-step path stops allocating. Cost-model runs ship nil
// payloads and never touch any of this.

import (
	"repro/internal/compositor"
	"repro/internal/img"
	"repro/internal/lic"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pool"
	"repro/internal/quadtree"
	"repro/internal/render"
)

// dataPayload is the pooled wire form of one (input rank -> renderer,
// timestep) data message: the block runs the committed gather plan owes
// that renderer, whose value slices all alias one backing buffer — the one
// shape every read strategy ships. The receiving renderer must release it
// after merging the values, returning it to the sending rank's pool (mutex-
// guarded, so the renderer's release and the sender's next build stay
// safe).
type dataPayload struct {
	runs  []blockRun
	vals  []uint8 // backing store aliased by the runs' value slices
	owner *pool.Pool[dataPayload]
	// stale flags a piece built from the previous step's values (the
	// sender's step degraded); it travels on the wire, so the renderer
	// flags its strip and the output rank its frame.
	stale bool
}

func (p *dataPayload) release() {
	if p != nil && p.owner != nil {
		p.owner.Put(p)
	}
}

// getData takes a reset data payload from the pool.
func getData(pl *pool.Pool[dataPayload]) *dataPayload {
	p := pl.Get()
	p.owner = pl
	p.runs = p.runs[:0]
	p.vals = p.vals[:0]
	p.stale = false
	return p
}

// magPayload is the pooled wire form of one temporal-enhancement hand-off:
// the node magnitudes of one step over the group part's positions live at
// the next step (partStep.next), in Dataset.partIDs order, sent by the
// input rank that read the step to the one that reads the next
// (RealWorkload.magQuant). The receiving rank must
// release it once it has quantized against the values, returning it to the
// sending rank's pool, as a renderer releases a dataPayload.
type magPayload struct {
	mag   []float32
	owner *pool.Pool[magPayload]
}

func (p *magPayload) release() {
	if p != nil && p.owner != nil {
		p.owner.Put(p)
	}
}

// stripPayload is the pooled wire form of one composited strip, in one of
// two shapes. Raw (Options.Compress off): Img is the strip canvas, owned by
// the sending renderer's CompositeScratch; the output processor releases the
// payload after pasting, which returns the canvas to that scratch and the
// struct to the renderer's pool. Compressed (Options.Compress on): rle holds
// the canvas as a run-length stream (compositor.EncodeRLEInto) and Img is
// nil — the canvas went back to the CompositeScratch when it was encoded,
// and the stream buffer belongs to the struct, travelling and recycling
// with it. Either way the declared message size is what the shape carries:
// 16 bytes per pixel, or the stream's length.
type stripPayload struct {
	Img   *img.Image
	Strip compositor.Strip
	comp  *compositor.CompositeScratch // canvas owner; nil for unpooled strips
	owner *pool.Pool[stripPayload]
	store img.Image // net-decoded raw payloads: pooled backing image Img points at
	// rle is the strip's stream when compressed is set; its capacity is kept
	// across release, so a steady-state encode or decode allocates nothing.
	rle        []byte
	compressed bool
	// degraded flags a strip built from degraded input: a stale or refused
	// piece, a block no piece reached, or a partial composite. It travels
	// on the wire, so the output rank flags the frame in whichever process
	// it runs.
	degraded bool
}

func (sp *stripPayload) release() {
	if sp == nil {
		return
	}
	if sp.comp != nil {
		sp.comp.ReleaseStrip(sp.Img)
	}
	sp.Img, sp.comp, sp.compressed, sp.degraded = nil, nil, false, false
	if sp.owner != nil {
		sp.owner.Put(sp)
	}
}

// licPayload is the pooled wire form of the surface-LIC underlay image,
// released by the output processor after compositing it under the frame.
type licPayload struct {
	Img   img.Image
	owner *pool.Pool[licPayload]
}

func (lp *licPayload) release() {
	if lp != nil && lp.owner != nil {
		lp.owner.Put(lp)
	}
}

// licState is the per-rank surface-LIC pipeline state: the quadtree is
// built once and only its sample values change per step (the scattered
// surface-node positions are static), the resample grid, noise texture and
// output images are reused, and the colorized RGBA underlay is pooled with
// release by the output processor.
type licState struct {
	samples []quadtree.Sample
	tree    *quadtree.Tree
	grid    quadtree.Grid
	scr     lic.Scratch
	pool    pool.Pool[licPayload]
}

// ipScratch is one input rank's reusable staging, and what Fetch hands the
// pipeline as the fetched step: part names the group part the rank serves
// and q holds that part's quantized values, one per Dataset.partIDs[part]
// entry in that order. q is static in layout — allocated with the workload,
// zeros until the first successful fetch — and only a successful fetch
// changes it: the decode kernel quantizes into qspare, and the two swap
// when the step succeeded. That is safe because q is only read while its
// step's payloads are built, strictly before the same rank's next Fetch,
// and it is what makes the stale fallback free (faults.go); stale marks a
// step served that way, which PayloadFor stamps on its pieces. The read
// buffers, file handles and decode staging (PR 4) make a steady-state
// fetch step allocation-free, and the payload pool cycles the wire
// messages released by the renderers. No view or gather plan is built
// here: both are committed once in the Dataset and shared, and what a step
// loop would recompute from a view is cached in the handles (mpiio.File:
// sieve plan, collective plan).
type ipScratch struct {
	part      int
	q, qspare []uint8
	stale     bool   // this step's q holds an earlier step's values
	raw       []byte // read staging, in view order
	pool      pool.Pool[dataPayload]
	lic       licState

	// Decode staging plus the reused MPI-IO handles: file serves the
	// current step and mag holds its magnitudes under temporal enhancement;
	// vec is the surface records licStep decodes. pfile and praw serve the
	// fallback read of the previous step, when no hand-off brought its
	// magnitudes (magQuant). sub caches the group's collective
	// sub-communicator per world communicator (an input rank serves one
	// group, so one cached entry suffices).
	file, pfile mpiio.File
	vec, mag    []float32
	praw        []byte
	sub         *mpi.Comm
	subParent   *mpi.Comm // world comm sub was built from (invalidates across runs)

	// The enhancement hand-off (RealWorkload.magQuant): mags pools the
	// payloads this rank sends to the rank that reads its next step, and
	// pmag holds the previous step's magnitudes when the fallback read
	// them instead.
	mags pool.Pool[magPayload]
	pmag []float32
}

// rendererScratch is one renderer's reusable staging: per-local-block
// value buffers, the BlockData that own the per-frame corner values (their
// cells and index are the dataset's, shared), the fragment list, the
// compositing scratch and the strip-payload pool.
type rendererScratch struct {
	nodeVals [][]uint8 // per local block: node values staged from the step's pieces
	got      []bool    // per local block: appeared in some accepted piece this step
	degraded bool      // this step's input was stale, refused or missing, or its composite partial
	zero     []bool    // per local block: Vals are all +0, as built and after each step it was silent in
	bds      []*render.BlockData
	live     []*render.BlockData // the step's RenderBlocksWith list: bds, nil for each block Render skips as silent
	out      rendered
	comp     *compositor.CompositeScratch
	strips   pool.Pool[stripPayload]

	// width is this renderer rank's fan-out width (Layout.renderWidth when
	// the workload was built).
	width int

	// rscr owns the per-frame fragment/rect/tile staging of this rank's
	// RenderBlocksWith (PR 5); the rendered fragments are borrows from it,
	// released back by Composite once everything is on the wire. Its Pool
	// is the rank's persistent worker pool, which the projection and tile
	// fan-outs of every frame dispatch on instead of spawning goroutines;
	// nil at width 1, where they run inline.
	rscr render.RenderScratch
}

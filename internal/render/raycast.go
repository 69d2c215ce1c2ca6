package render

import (
	"math"
	"slices"

	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/octree"
	"repro/internal/pool"
	wpool "repro/internal/workers"
)

// Fragment is the partial image a rendering processor produces for one
// block: a subrectangle of the final image plus the block's position in the
// global front-to-back visibility order.
//
// Fragments produced through a RenderScratch are pooled: the consumer that
// ends up owning them (compositing) must hand them back with
// ReleaseFragments, which returns each struct and its pixel buffer to the
// producing scratch (see docs/ownership.md).
type Fragment struct {
	X0, Y0  int
	Img     *img.Image
	VisRank int // position in the view's visibility order

	owner *pool.Pool[Fragment] // producing scratch's pool; nil for RenderSerial's plain fragments
	store img.Image            // pooled backing image Img points into
}

// Renderer holds the rendering parameters shared by all blocks: the
// transfer function and whether to shade. A zero-value Renderer renders with
// the seismic transfer function; NewRenderer sets it up front. Sampling and
// shading are fixed: rays step half the local cell size and stop at opacity
// 0.99, and lighting keeps an ambient floor of 0.35.
type Renderer struct {
	TF       *TransferFunction
	Lighting bool

	lut    *TFLUT
	lutFor *TransferFunction // TF the lut was baked from
}

// The paper's sampling and shading choices (Section 4.2): rays step half
// the local cell size, a Phong term lit from lightDir keeps an ambient
// floor, and a ray stops once its opacity reaches earlyTermination.
const (
	stepScale        = 0.5
	ambient          = 0.35
	earlyTermination = 0.99
)

// lightDir is the unit direction toward the light.
var lightDir = norm(Vec3{-0.4, -0.5, -0.76})

// NewRenderer returns a renderer with the default seismic transfer function.
func NewRenderer() *Renderer {
	return &Renderer{TF: SeismicTF()}
}

func (r *Renderer) defaults() {
	if r.TF == nil {
		r.TF = SeismicTF()
	}
	if r.lut == nil || r.lutFor != r.TF {
		r.lut = r.TF.BuildLUT(tfLUTSize)
		r.lutFor = r.TF
	}
}

// tfLUTSize is the resolution of the baked transfer-function table; the
// pipeline quantizes scalars to 8 bit, so 4096 entries oversample the data
// 16x and keep the lerp error far below one 8-bit step.
const tfLUTSize = 4096

// Prepare fills in the transfer function and bakes its lookup table.
// Rendering does this implicitly, but call it explicitly before sharing one
// Renderer across goroutines: afterwards rendering only reads the struct.
func (r *Renderer) Prepare() { r.defaults() }

// blockRect is the projected screen rectangle of a block, the part of it
// the block's occupied box can project to (the only pixels worth casting;
// the fragment keeps the whole rectangle) and the block's sampling step —
// everything a scanline band needs besides the block data.
type blockRect struct {
	x0, y0, x1, y1     int
	tx0, ty0, tx1, ty1 int
	step               float64
}

// trimMargin, in pixels, is how far outside the projected occupied box a
// pixel centre may lie and still be cast. A ray's sample points lie within
// rounding (~1e-15) of the line through its pixel centre, and that line
// passes the box at no less than the pixel's distance from the box's
// projected bounds — half a pixel of slack is some ten orders of magnitude
// more than the predicate beyondBox needs to hold for every sample.
const trimMargin = 0.5

// projectBlockWith computes the block's projected rectangle, applies
// empty-space skipping, and takes the fragment from the scratch's pool (a
// nil scratch allocates a plain one — RenderSerial's reference path). It
// also builds the block's point-location index, so the returned geometry is
// safe to ray-cast from multiple goroutines. ok is false when the block is
// skipped. Safe to call concurrently for distinct blocks on one scratch —
// the pool is mutex-guarded.
func (r *Renderer) projectBlockWith(bd *BlockData, view *View, rs *RenderScratch) (*Fragment, blockRect, bool) {
	// Empty-space skipping at three granularities: the table build marks
	// the empty octree regions castRay leaps and bounds the occupied box
	// rays and pixels are clipped to (both armed only when the baked table
	// maps values <= 0, its entry 0, to no density), and yields the block
	// maximum, which skips a transparent block wholesale.
	mx := bd.buildEmptyRegions(r.lut.tab[0][3] <= 0)
	if r.TF.TransparentBelow(float64(mx)) {
		return nil, blockRect{}, false
	}
	bmin, bmax := bd.Root.Bounds()
	// Projected bounding rectangle.
	fx0, fy0, fx1, fy1, _ := view.ProjectBox(bmin, bmax)
	x0 := clampInt(int(math.Floor(fx0)), 0, view.Width)
	y0 := clampInt(int(math.Floor(fy0)), 0, view.Height)
	x1 := clampInt(int(math.Ceil(fx1))+1, 0, view.Width)
	y1 := clampInt(int(math.Ceil(fy1))+1, 0, view.Height)
	if x1 <= x0 || y1 <= y0 {
		return nil, blockRect{}, false
	}
	step := stepScale * bd.MinCellSize() // also builds the cell index
	if step <= 0 {
		step = 1e-3
	}
	var frag *Fragment
	if rs != nil {
		frag = rs.getFragment(x0, y0, x1-x0, y1-y0)
	} else {
		frag = &Fragment{X0: x0, Y0: y0, Img: img.New(x1-x0, y1-y0)}
	}
	g := blockRect{x0: x0, y0: y0, x1: x1, y1: y1, tx0: x0, ty0: y0, tx1: x1, ty1: y1, step: step}
	// Trim the pixel loop to the occupied box, where it is smaller than the
	// block: a ray through any other pixel has no sample inside it.
	olo, ohi := bd.occupied()
	for i := 0; i < 3; i++ {
		olo[i], ohi[i] = math.Max(olo[i], bmin[i]), math.Min(ohi[i], bmax[i])
	}
	if olo != bmin || ohi != bmax {
		if fx0, fy0, fx1, fy1, inFront := view.ProjectBox(olo, ohi); inFront {
			g.tx0 = clampInt(int(math.Ceil(fx0-trimMargin)), x0, x1)
			g.ty0 = clampInt(int(math.Ceil(fy0-trimMargin)), y0, y1)
			g.tx1 = clampInt(int(math.Floor(fx1+trimMargin))+1, x0, x1)
			g.ty1 = clampInt(int(math.Floor(fy1+trimMargin))+1, y0, y1)
		}
	}
	return frag, g, true
}

// castRows ray-casts scanlines [yLo, yHi) of the block's projected
// rectangle into frag, leaving out the pixels the occupied box cannot
// project to. The sampler carries the cell cache across pixels — adjacent
// rays usually enter the same cell, so most samples skip the octree point
// location entirely.
func (r *Renderer) castRows(bd *BlockData, view *View, frag *Fragment, g blockRect, yLo, yHi int, s *sampler) {
	bmin, bmax := bd.Root.Bounds()
	view.prepare()
	for py := max(yLo, g.ty0); py < min(yHi, g.ty1); py++ {
		row := view.rowOffset(py)
		for px := g.tx0; px < g.tx1; px++ {
			o, d := view.rowRay(row, px)
			t0, t1, hit := rayBox(o, d, bmin, bmax)
			if !hit {
				continue
			}
			if t0 < 0 {
				t0 = 0
			}
			ar, ag, ab, aa := r.castRay(s, o, d, t0, t1, g.step)
			cr, cg, cb, ca := float32(ar), float32(ag), float32(ab), float32(aa)
			if ca > 0 {
				frag.Img.Set(px-g.x0, py-g.y0, cr, cg, cb, ca)
			}
		}
	}
}

// minTileRows is the smallest scanline band worth dispatching to its own
// goroutine; below this the dispatch overhead outweighs the parallelism.
// maxTileRows caps a single tile so one dominant block cannot serialize
// the frame tail.
const (
	minTileRows = 16
	maxTileRows = 64
)

// RenderBlock ray-casts one block and returns its fragment, or nil when the
// block's projection misses the image entirely or the block is empty space
// (its maximum value maps to zero density everywhere). It is
// RenderBlocksWith on a one-block list with a private scratch at the
// automatic width (workers.Width(1) goroutines, so GOMAXPROCS=1 renders
// inline).
//
//repro:allow deadexport: bench
func (r *Renderer) RenderBlock(bd *BlockData, view *View) *Fragment {
	return r.RenderBlocksWith([]*BlockData{bd}, view, 0, nil)[0]
}

// renderBlockSerialWith projects and casts one block on the calling
// goroutine, taking the fragment from the scratch's pool when one is
// supplied. With a nil scratch it is the reference path RenderParallelWith
// is verified against.
func (r *Renderer) renderBlockSerialWith(bd *BlockData, view *View, rs *RenderScratch) *Fragment {
	r.defaults()
	frag, g, ok := r.projectBlockWith(bd, view, rs)
	if !ok {
		return nil
	}
	var s sampler
	s.reset(bd)
	r.castRows(bd, view, frag, g, g.y0, g.y1, &s)
	return frag
}

// castRay integrates the volume rendering equation front-to-back along one
// ray segment and returns the accumulated colour and opacity, which
// castRows rounds to the pixel. The sampler provides cached cell location
// and the baked TF table provides emission/density, keeping the loop
// allocation-free. A sample outside the block's occupied box moves on to
// the box, or ends the ray, without being located, and one that lands in
// an empty octree region (BlockData's empty-region table) leaps to the
// region's far side — both on the same t sequence, skipping only samples
// that provably contribute nothing; see sampler.clip and sampler.leap.
//
// The per-sample path works on float64 scalars, never on Vec3 values: the
// compiler keeps no array of more than one element in registers, so a
// sample point or gradient held as a Vec3 goes through the stack on every
// sample. The lighting spells out dot and scale in their operation order.
//
//repro:allocfree
func (r *Renderer) castRay(s *sampler, o, d Vec3, t0, t1, step float64) (ar, ag, ab, aa float64) {
	ox, oy, oz := o[0], o[1], o[2]
	dx, dy, dz := d[0], d[1], d[2]
	for t := t0 + step/2; t < t1; t += step {
		px, py, pz := ox+t*dx, oy+t*dy, oz+t*dz
		if !s.inCell(px, py, pz) {
			if s.beyondBox(px, py, pz) {
				t = s.clip(o, d, Vec3{px, py, pz}, t, t1, step)
				continue
			}
			if !s.find(px, py, pz) {
				continue
			}
		}
		if s.empty {
			if last, ok := s.leap(o, d, Vec3{px, py, pz}, t, t1, step); ok {
				t = last
				continue
			}
			s.loadVals() // the point was clamped into the cell: evaluate it there
		}
		er, eg, eb, density := r.lut.Lookup(s.sample(px, py, pz))
		if density <= 0 {
			continue
		}
		alpha := 1 - math.Exp(-density*step)
		if r.Lighting {
			gx, gy, gz := s.gradient(px, py, pz)
			gl := math.Sqrt(gx*gx + gy*gy + gz*gz)
			if gl > 1e-9 {
				inv := 1 / gl
				nx, ny, nz := gx*inv, gy*inv, gz*inv
				diff := nx*lightDir[0] + ny*lightDir[1] + nz*lightDir[2]
				if diff < 0 {
					diff = -diff // double-sided shading for volumes
				}
				shade := ambient + (1-ambient)*diff
				er *= shade
				eg *= shade
				eb *= shade
			} else {
				er *= ambient
				eg *= ambient
				eb *= ambient
			}
		}
		w := (1 - aa) * alpha
		ar += w * er
		ag += w * eg
		ab += w * eb
		aa += w
		if aa >= earlyTermination {
			break
		}
	}
	return ar, ag, ab, aa
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CompositeFragments assembles fragments into a full image by compositing
// in visibility order (front to back): fragments with lower VisRank are in
// front. Large images are composited in parallel horizontal strips; the
// per-pixel operation order is by VisRank regardless, so the result is
// identical for any strip count.
func CompositeFragments(w, h int, frags []*Fragment) *img.Image {
	return compositeFragmentsWith(w, h, frags, 0, nil)
}

// minStripRows is the smallest compositing strip worth its own goroutine.
const minStripRows = 64

// cmpVisRank orders fragments front to back. A package-level function so
// the steady-state sort allocates no closure.
func cmpVisRank(a, b *Fragment) int { return a.VisRank - b.VisRank }

// compositeFragmentsWith composites with nw workers (0 = workers.Width(1),
// 1 = serial), drawing its order slice and output canvas from the scratch and
// dispatching the strip fan-out on the scratch's pool. The returned image
// is a borrow, valid until the next composite on the same scratch; a nil
// scratch is a private one, so the image is the caller's. Output is
// pixel-identical either way: the stable front-to-back order and per-pixel
// arithmetic do not depend on the scratch.
func compositeFragmentsWith(w, h int, frags []*Fragment, nw int, rs *RenderScratch) *img.Image {
	if rs == nil {
		rs = &RenderScratch{}
	}
	ordered := rs.ordered[:0]
	for _, f := range frags {
		if f != nil && f.Img != nil {
			ordered = append(ordered, f)
		}
	}
	slices.SortStableFunc(ordered, cmpVisRank)
	rs.ordered = ordered
	if rs.frame == nil {
		rs.frame = &img.Image{}
	}
	out := rs.frame
	out.Pix = pool.Grow(out.Pix, 4*w*h)
	clear(out.Pix)
	out.W, out.H = w, h
	if nw <= 0 {
		nw = wpool.Width(1)
	}
	if nw > h/minStripRows {
		nw = h / minStripRows
	}
	if nw <= 1 {
		compositeStrip(out, ordered, 0, h)
		return out
	}
	band := (h + nw - 1) / nw
	rs.strip = stripJob{out: out, ordered: ordered, band: band, h: h}
	if rs.stripF == nil {
		rs.stripF = func(i int) {
			j := &rs.strip
			lo := i * j.band
			hi := lo + j.band
			if hi > j.h {
				hi = j.h
			}
			compositeStrip(j.out, j.ordered, lo, hi)
		}
	}
	rs.Pool.Run(nw, (h+band-1)/band, rs.stripF)
	rs.strip = stripJob{}
	return out
}

// compositeStrip composites rows [yLo, yHi) of every fragment, in the
// given (visibility) order, into out.
func compositeStrip(out *img.Image, ordered []*Fragment, yLo, yHi int) {
	for _, f := range ordered {
		fy0 := f.Y0
		if fy0 < yLo {
			fy0 = yLo
		}
		fy1 := f.Y0 + f.Img.H
		if fy1 > yHi {
			fy1 = yHi
		}
		for gy := fy0; gy < fy1; gy++ {
			y := gy - f.Y0
			for x := 0; x < f.Img.W; x++ {
				gx := f.X0 + x
				if gx < 0 || gx >= out.W {
					continue
				}
				sr, sg, sb, sa := f.Img.At(x, y)
				if sa == 0 {
					continue
				}
				dr, dg, db, da := out.At(gx, gy)
				// dst is in front (earlier visibility): dst over src.
				t := 1 - da
				out.Set(gx, gy, dr+t*sr, dg+t*sg, db+t*sb, da+t*sa)
			}
		}
	}
}

// RenderSerial is the reference single-process renderer: extract every
// block at the level, render, and composite, all on the calling goroutine.
// It is used by tests to verify the distributed pipeline and RenderParallel
// pixel-for-pixel, and by the Figure 3 experiment as the timing baseline.
func RenderSerial(rr *Renderer, m *mesh.Mesh, scalar []float32, blockLevel, level uint8, view *View) (*img.Image, error) {
	rr.defaults()
	blocks := m.Tree.Blocks(blockLevel)
	cells := make([]octree.Cell, len(blocks))
	for i, b := range blocks {
		cells[i] = b.Root
	}
	order := octree.VisibilityOrder(cells, view.ViewDir())
	rank := make([]int, len(blocks))
	for vis, bi := range order {
		rank[bi] = vis
	}
	var frags []*Fragment
	for i, b := range blocks {
		bd, err := ExtractBlockData(m, scalar, b, level)
		if err != nil {
			return nil, err
		}
		f := rr.renderBlockSerialWith(bd, view, nil)
		if f != nil {
			f.VisRank = rank[i]
			frags = append(frags, f)
		}
	}
	return compositeFragmentsWith(view.Width, view.Height, frags, 1, nil), nil
}

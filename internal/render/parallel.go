// This file is the shared-memory parallel rendering engine: workers.Pool
// fans block extraction and ray casting out across goroutines, mirroring
// the paper's distributed renderer at the goroutine level. Every pixel is
// produced by exactly one goroutine with the same arithmetic as the serial
// path, so the output is pixel-identical for any worker count.

package render

import (
	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/pool"
	wpool "repro/internal/workers"
)

// ReleaseFragments returns scratch-produced fragments (struct, image and
// pixel buffer) to the producing RenderScratch's pool; RenderSerial's plain
// fragments are left to the garbage collector. Only callers that own the
// fragments outright may release — after compositing has copied or encoded
// everything it needs — and the fragments are unusable afterwards. The
// distributed pipeline calls this at the end of each Composite, closing the
// render-side allocation loop — the consumer release is the lifetime signal
// that lets a pipelined frame outlive its render call (see
// docs/ownership.md).
func ReleaseFragments(frags []*Fragment) {
	for _, f := range frags {
		if f != nil && f.owner != nil {
			f.Img = nil
			f.owner.Put(f)
		}
	}
}

// tileJob is one scanline band of one block's projected rectangle.
type tileJob struct {
	bi       int
	yLo, yHi int
}

// buildTilesInto appends the tile list to dst: the projected rectangles of
// the visible fragments split into row bands so the tile count comfortably
// exceeds the worker count — block-level parallelism alone would let one
// dominant block serialize the frame.
func buildTilesInto(dst []tileJob, frags []*Fragment, rects []blockRect, workers int) []tileJob {
	nvis := 0
	for _, f := range frags {
		if f != nil {
			nvis++
		}
	}
	if nvis == 0 {
		return dst
	}
	bandsPer := 1
	if nvis < 4*workers {
		bandsPer = (4*workers + nvis - 1) / nvis
	}
	tiles := dst
	for bi, f := range frags {
		if f == nil {
			continue
		}
		g := rects[bi]
		rows := g.y1 - g.y0
		nb := bandsPer
		// A dominant block must split regardless of how many visible
		// blocks there are, or its tile alone sets the frame time.
		if byRows := (rows + maxTileRows - 1) / maxTileRows; nb < byRows {
			nb = byRows
		}
		if maxNB := rows / minTileRows; nb > maxNB {
			nb = maxNB
		}
		if nb < 1 {
			nb = 1
		}
		band := (rows + nb - 1) / nb
		for lo := g.y0; lo < g.y1; lo += band {
			hi := lo + band
			if hi > g.y1 {
				hi = g.y1
			}
			tiles = append(tiles, tileJob{bi: bi, yLo: lo, yHi: hi})
		}
	}
	return tiles
}

// RenderBlocksWith ray-casts a set of prepared blocks across `workers`
// goroutines (0 = the automatic width, workers.Width(1)) and returns their
// fragments, aligned with bds (nil for skipped or nil blocks). Projection
// runs block-parallel; casting runs tile-parallel over scanline bands. The
// caller assigns VisRank afterwards; the caller's View is not mutated (the fan-outs render
// through a frozen copy held by the scratch). Output is pixel-identical for
// any scratch/workers combination, and to RenderSerial's per-block path.
//
// Everything per-frame comes from the RenderScratch: the fragment/rect/tile
// tables, the Fragment structs and their pixel buffers, the fan-out
// closures, and the worker pool the fan-outs dispatch on (rs.Pool; nil
// spawns per call) — so a steady-state frame on a scratch with a pool
// allocates nothing. The scratch must belong to the calling rank and serves
// one frame at a time: the returned slice is a borrow valid until the next
// call, and the fragments stay live until their consumer returns them with
// ReleaseFragments. A nil scratch is a private one, dropped on return, so
// its results are the caller's (docs/ownership.md). The Renderer itself may
// be shared across ranks.
func (r *Renderer) RenderBlocksWith(bds []*BlockData, view *View, workers int, rs *RenderScratch) []*Fragment {
	if rs == nil {
		rs = &RenderScratch{}
	}
	if workers <= 0 {
		workers = wpool.Width(1)
	}
	r.Prepare()
	rs.view = *view
	rs.view.Prepare()
	view = &rs.view
	rs.frags = pool.Grow(rs.frags, len(bds))
	frags := rs.frags
	clear(frags)
	rs.rects = pool.Grow(rs.rects, len(bds))
	if workers == 1 {
		for i, bd := range bds {
			if bd != nil {
				frags[i] = r.renderBlockSerialWith(bd, view, rs)
			}
		}
		return frags
	}
	// The fan-out closures are bound once to the scratch and read their
	// arguments from rs.job, so a steady-state frame allocates neither
	// closures nor tables.
	rs.job = renderJob{r: r, bds: bds, view: view, frags: frags, rects: rs.rects}
	if rs.projFn == nil {
		rs.projFn = func(i int) {
			j := &rs.job
			if j.bds[i] == nil {
				return
			}
			if frag, g, ok := j.r.projectBlockWith(j.bds[i], j.view, rs); ok {
				j.frags[i], j.rects[i] = frag, g
			}
		}
	}
	rs.Pool.Run(workers, len(bds), rs.projFn)
	rs.tiles = buildTilesInto(rs.tiles[:0], frags, rs.rects, workers)
	rs.job.tiles = rs.tiles
	if rs.castFn == nil {
		rs.castFn = func(k int) {
			j := &rs.job
			tl := j.tiles[k]
			var s sampler
			s.reset(j.bds[tl.bi])
			j.r.castRows(j.bds[tl.bi], j.view, j.frags[tl.bi], j.rects[tl.bi], tl.yLo, tl.yHi, &s)
		}
	}
	rs.Pool.Run(workers, len(rs.tiles), rs.castFn)
	rs.job = renderJob{} // do not pin the caller's blocks across frames
	return frags
}

// RenderParallelWith renders the same image as RenderSerial using
// `workers` goroutines (0 = the automatic width, workers.Width(1)): block
// extraction fans out across them, ray casting runs tile-parallel (so a
// single huge block cannot serialize the frame), and compositing runs in
// parallel strips.
// The output is pixel-exact against RenderSerial for any workers/scratch/
// pool combination — every pixel is computed by exactly one goroutine with
// identical arithmetic.
//
// The ExtractScratch makes it a frame loop: block i is extracted into
// scratch slot i, the block partition and visibility ranks are cached per
// (mesh, level, view direction), the render/composite stages run through
// the embedded RenderScratch, and every fan-out dispatches on scratch.Pool
// (nil spawns per call) — so rendering the same mesh partition from a fixed
// view every frame on a scratch with a pool allocates nothing at steady
// state. The scratch's block data, fragments and output canvas are
// overwritten by the next frame, so at most one frame may be in flight per
// scratch: the returned image is a borrow, valid until the next call with
// the same scratch. A nil scratch is a private one, dropped on return, so
// the image is the caller's (docs/ownership.md).
func RenderParallelWith(rr *Renderer, m *mesh.Mesh, scalar []float32, blockLevel, level uint8, view *View, workers int, scratch *ExtractScratch) (*img.Image, error) {
	if scratch == nil {
		scratch = &ExtractScratch{}
	}
	if workers <= 0 {
		workers = wpool.Width(1)
	}
	rr.Prepare()
	scratch.view = *view
	scratch.view.Prepare()
	view = &scratch.view
	scratch.render.Pool = scratch.Pool
	blocks, rank := frameTables(m, blockLevel, view.ViewDir(), scratch)
	scratch.Grow(len(blocks)) // slots must exist before the fan-out
	scratch.bdsOut = pool.Grow(scratch.bdsOut, len(blocks))
	bds := scratch.bdsOut
	clear(bds)
	// The extraction closure is bound once to the scratch; its per-frame
	// arguments travel through exJob (the mutex lives there too, reset-free:
	// it is always left unlocked).
	j := &scratch.exJob
	j.m, j.scalar, j.blocks, j.level, j.bds = m, scalar, blocks, level, bds
	j.firstErr = nil
	if scratch.exFn == nil {
		scratch.exFn = func(i int) {
			j := &scratch.exJob
			bd := scratch.Slot(i)
			if err := ExtractBlockDataInto(bd, j.m, j.scalar, j.blocks[i], j.level); err != nil {
				j.mu.Lock()
				if j.firstErr == nil {
					j.firstErr = err
				}
				j.mu.Unlock()
				return
			}
			j.bds[i] = bd
		}
	}
	scratch.Pool.Run(workers, len(blocks), scratch.exFn)
	err := j.firstErr
	j.m, j.scalar, j.blocks, j.bds = nil, nil, nil, nil
	if err != nil {
		return nil, err
	}
	frags := rr.RenderBlocksWith(bds, view, workers, &scratch.render)
	kept := scratch.kept[:0]
	for i, f := range frags {
		if f != nil {
			f.VisRank = rank[i]
			kept = append(kept, f)
		}
	}
	scratch.kept = kept
	out := compositeFragmentsWith(view.Width, view.Height, kept, workers, &scratch.render)
	ReleaseFragments(kept)
	return out, nil
}

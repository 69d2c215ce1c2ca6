package main

import (
	"slices"
	"sync"
	"time"

	"repro/internal/compositor"
	"repro/internal/lic"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/octree"
	"repro/internal/pfs"
	"repro/internal/quadtree"
	"repro/internal/quake"
	"repro/internal/render"
)

// Direct probes time one public call of one layer in a loop, on the
// inputs of the workload that lists them: they are the layer numbers a
// span cannot give (a kernel with the pipeline's waiting taken out, an
// allocation count, a byte ratio). Each runs a fixed call count and
// reports a median.

// probeEnv is what the probes share: the workload's dataset and options
// and one decoded step.
type probeEnv struct {
	cfg    runConfig
	store  pfs.Store
	mesh   *mesh.Mesh
	opts   probeOpts
	step   string    // object name of the middle step
	raw    []byte    // its bytes
	vec    []float32 // decoded
	scalar []float32 // magnitude, quantized the pipeline's way, dequantized
	vmax   float32
}

// probeOpts is the part of the workload's options the probes read.
type probeOpts struct {
	w, h      int
	view      render.View
	lighting  bool
	level     uint8
	licSize   int
	renderers int
	world     int // ranks in the workload's world
}

func newProbeEnv(cfg runConfig, store pfs.Store, steps int, vmax float32, o probeOpts) *probeEnv {
	m, err := quake.ReadMesh(store)
	if err != nil {
		fatalf("probe: %v", err)
	}
	e := &probeEnv{cfg: cfg, store: store, mesh: m, opts: o, step: quake.StepObject(steps / 2), vmax: vmax}
	e.raw = make([]byte, m.NumNodes()*quake.BytesPerNode)
	if err := store.ReadAt(nil, e.step, 0, e.raw); err != nil {
		fatalf("probe: %v", err)
	}
	if e.vec, err = quake.DecodeStepInto(nil, e.raw); err != nil {
		fatalf("probe: %v", err)
	}
	mag := render.MagnitudeInto(nil, e.vec)
	e.scalar = render.DequantizeInto(nil, render.QuantizeInto(nil, mag, 0, vmax))
	e.opts.level = max(min(o.level, m.Tree.MaxDepth()), 2)
	return e
}

// probes maps the names a workload file may list to the probe groups.
var probes = map[string]func(e *probeEnv, m metricSet){
	"solver":     probeSolver,
	"render":     probeRender,
	"mpiio":      probeMPIIO,
	"decode":     probeDecode,
	"compositor": probeCompositor,
	"lic":        probeLIC,
	"net":        probeNet,
}

// probeSolver times quake.Solver.Step on the workload's mesh: the cost
// behind dataset generation, and so behind setup_s everywhere.
func probeSolver(e *probeEnv, m metricSet) {
	s, err := newSolver(e.cfg.dataset())
	if err != nil {
		fatalf("probe solver: %v", err)
	}
	m.put("quake.solver_step_us", "us", 1e6*medianSeconds(40, s.Step))
}

// probeRender times the shared-memory renderer on the whole mesh from the
// workload's view (no ranks, no messages), and block extraction alone.
func probeRender(e *probeEnv, m metricSet) {
	rr := render.NewRenderer()
	rr.Lighting = e.opts.lighting
	view := e.opts.view
	var scratch render.ExtractScratch
	frame := func() {
		if _, err := render.RenderParallelWith(rr, e.mesh, e.scalar, 2, e.opts.level, &view, 0, &scratch); err != nil {
			fatalf("probe render: %v", err)
		}
	}
	m.put("render.frame_ms", "ms", 1e3*medianSeconds(9, frame))
	const frames = 5
	a0, _ := mallocs()
	for i := 0; i < frames; i++ {
		frame()
	}
	a1, _ := mallocs()
	m.put("render.allocs_per_frame", "count", float64(a1-a0)/frames)

	blocks := e.mesh.Tree.Blocks(2)
	bds := make([]render.BlockData, len(blocks))
	extract := func() {
		for i, b := range blocks {
			if err := render.ExtractBlockDataInto(&bds[i], e.mesh, e.scalar, b, e.opts.level); err != nil {
				fatalf("probe extract: %v", err)
			}
		}
	}
	m.put("render.extract_us_per_block", "us", 1e6*medianSeconds(9, extract)/float64(len(blocks)))
}

// levelIDs returns the sorted node ids a render at the workload's level
// needs — the set an adaptive fetch reads.
func (e *probeEnv) levelIDs() []int32 {
	var ids []int32
	for _, b := range e.mesh.Tree.Blocks(2) {
		ids = append(ids, render.BlockNodeIDs(e.mesh, b, e.opts.level)...)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

func indexedView(ids []int32) *mpiio.IndexedBlock {
	displs := make([]int64, len(ids))
	for i, id := range ids {
		displs[i] = int64(id)
	}
	return &mpiio.IndexedBlock{Blocklen: 1, Displs: displs, ElemSize: quake.BytesPerNode}
}

// probeMPIIO times the two read modes on one step object through the
// level's indexed view: a 4-rank two-phase collective round (each rank a
// quarter of the ids) and one rank's independent sieved read of them all.
func probeMPIIO(e *probeEnv, m metricSet) {
	ids := e.levelIDs()
	const ranks, warm, rounds = 4, 3, 30
	var mu sync.Mutex
	var useful, phys, shuffle int64
	var a0, a1 uint64
	roundS := make([]float64, 0, rounds)
	mpi.RunReal(ranks, func(c *mpi.Comm) {
		f, err := mpiio.Open(c, e.store, e.step)
		if err != nil {
			fatalf("probe mpiio: %v", err)
		}
		r := c.Rank()
		f.SetView(0, indexedView(ids[len(ids)*r/ranks:len(ids)*(r+1)/ranks]))
		size, err := f.ViewSize()
		if err != nil {
			fatalf("probe mpiio: %v", err)
		}
		dst := make([]byte, size)
		for i := 0; i < warm+rounds; i++ {
			if r == 0 && i == warm {
				a0, _ = mallocs()
			}
			t0 := time.Now()
			if _, err := f.ReadAllInto(i+1, dst); err != nil {
				fatalf("probe mpiio: %v", err)
			}
			if r == 0 && i >= warm {
				roundS = append(roundS, time.Since(t0).Seconds())
			}
		}
		if r == 0 {
			a1, _ = mallocs()
		}
		mu.Lock()
		useful += f.UsefulBytes
		phys += f.PhysBytes
		shuffle += f.ShuffleBytes
		mu.Unlock()
	})
	m.put("mpiio.collective_round_us", "us", 1e6*median(roundS))
	m.put("mpiio.allocs_per_round", "count", float64(a1-a0)/rounds)
	m.put("mpiio.sieve_useful_ratio", "ratio", float64(useful)/float64(max(phys, 1)))
	m.put("mpiio.shuffle_bytes_per_round", "B", float64(shuffle)/(warm+rounds))

	f, err := mpiio.Open(nil, e.store, e.step)
	if err != nil {
		fatalf("probe mpiio: %v", err)
	}
	f.SetView(0, indexedView(ids))
	size, err := f.ViewSize()
	if err != nil {
		fatalf("probe mpiio: %v", err)
	}
	dst := make([]byte, size)
	m.put("mpiio.indep_read_us", "us", 1e6*medianSeconds(rounds, func() {
		if _, err := f.ReadInto(dst); err != nil {
			fatalf("probe mpiio: %v", err)
		}
	}))
}

// probeDecode times what an input rank does to a step's bytes after the
// read: decode, then magnitude and 8-bit quantization.
func probeDecode(e *probeEnv, m metricSet) {
	vec := make([]float32, len(e.vec))
	sec := medianSeconds(15, func() {
		var err error
		if vec, err = quake.DecodeStepInto(vec, e.raw); err != nil {
			fatalf("probe decode: %v", err)
		}
	})
	m.put("quake.decode_mb_per_s", "MB/s", float64(len(e.raw))/1e6/sec)
	var mag []float32
	var q []uint8
	sec = medianSeconds(15, func() {
		mag = render.MagnitudeInto(mag, vec)
		q = render.QuantizeInto(q, mag, 0, e.vmax)
	})
	m.put("render.quantize_mb_per_s", "MB/s", float64(4*len(vec))/1e6/sec)
}

// probeCompositor renders the mesh's blocks once, deals the fragments
// round-robin to the workload's renderer count, and times the sort-last
// exchange alone over mpi.RunReal: SLIC raw, SLIC with RLE, direct send.
func probeCompositor(e *probeEnv, m metricSet) {
	n, w, h := e.opts.renderers, e.opts.w, e.opts.h
	view := e.opts.view
	view.Prepare()
	blocks := e.mesh.Tree.Blocks(2)
	roots := make([]octree.Cell, len(blocks))
	for i, b := range blocks {
		roots[i] = b.Root
	}
	visRank := make([]int, len(blocks))
	for pos, bi := range octree.VisibilityOrder(roots, view.ViewDir()) {
		visRank[bi] = pos
	}
	rr := render.NewRenderer()
	rr.Prepare()
	frags := make([][]*render.Fragment, n)
	rects := make([][]compositor.Rect, n)
	for i, b := range blocks {
		bd, err := render.ExtractBlockData(e.mesh, e.scalar, b, e.opts.level)
		if err != nil {
			fatalf("probe compositor: %v", err)
		}
		f := rr.RenderBlock(bd, &view)
		if f == nil {
			continue
		}
		f.VisRank = visRank[i]
		frags[i%n] = append(frags[i%n], f)
		rects[i%n] = append(rects[i%n], compositor.Rect{X0: f.X0, Y0: f.Y0, X1: f.X0 + f.Img.W, Y1: f.Y0 + f.Img.H})
	}
	sched := compositor.BuildSchedule(rects, w, h, n)
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	const warm, rounds = 2, 12
	// exchange runs warm+rounds composites and returns rank 0's median
	// seconds and the per-round messages and bytes summed over ranks.
	exchange := func(slic, compress bool) (sec, msgs, bytes float64) {
		var mu sync.Mutex
		var ts []float64
		mpi.RunReal(n, func(c *mpi.Comm) {
			scr := compositor.NewCompositeScratch()
			me := c.Rank()
			for i := 0; i < warm+rounds; i++ {
				t0 := time.Now()
				var st compositor.Stats
				var err error
				tag := 100 + (i&7)*16
				if slic {
					im, _, s, e := compositor.SLICWith(c, group, me, sched, frags[me], w, h, tag, compress, scr)
					scr.ReleaseStrip(im)
					st, err = s, e
				} else {
					im, _, s, e := compositor.DirectSendWith(c, group, me, frags[me], w, h, tag, compress, scr)
					scr.ReleaseStrip(im)
					st, err = s, e
				}
				if err != nil {
					fatalf("probe compositor: %v", err)
				}
				dt := time.Since(t0).Seconds()
				c.Barrier() // lock-step, so a round times one exchange
				if i < warm {
					continue
				}
				mu.Lock()
				if me == 0 {
					ts = append(ts, dt)
				}
				msgs += float64(st.MsgsSent) / rounds
				bytes += float64(st.BytesSent) / rounds
				mu.Unlock()
			}
		})
		return median(ts), msgs, bytes
	}
	sec, msgs, raw := exchange(true, false)
	m.put("compositor.slic_raw_ms", "ms", 1e3*sec)
	m.put("compositor.msgs_per_frame", "count", msgs)
	m.put("compositor.bytes_per_frame", "B", raw)
	sec, _, rle := exchange(true, true)
	m.put("compositor.slic_rle_ms", "ms", 1e3*sec)
	m.put("compositor.rle_ratio", "ratio", raw/max(rle, 1))
	sec, _, _ = exchange(false, false)
	m.put("compositor.directsend_ms", "ms", 1e3*sec)
}

// probeLIC times one surface-LIC image at the workload's LIC size from
// the middle step's surface velocities.
func probeLIC(e *probeEnv, m metricSet) {
	surf := e.mesh.SurfaceNodes()
	samples := make([]quadtree.Sample, len(surf))
	for i, id := range surf {
		p := e.mesh.Nodes[id].Pos()
		samples[i] = quadtree.Sample{X: p[0], Y: p[1], VX: float64(e.vec[3*id]), VY: float64(e.vec[3*id+1])}
	}
	tree, err := quadtree.Build(samples, 8)
	if err != nil {
		fatalf("probe lic: %v", err)
	}
	size := e.opts.licSize
	var grid quadtree.Grid
	if err := tree.ResampleInto(&grid, size, size); err != nil {
		fatalf("probe lic: %v", err)
	}
	var scr lic.Scratch
	m.put("lic.step_ms", "ms", 1e3*medianSeconds(9, func() {
		if _, err := lic.ComputeWith(&grid, size, size, lic.Config{L: size / 12, Seed: 7, Phase: -1}, &scr); err != nil {
			fatalf("probe lic: %v", err)
		}
	}))
}

// probeNet times the loopback TCP transport alone: a 64 KiB ping-pong
// between two ranks, and bringing up and tearing down the workload's
// world with nothing to do.
func probeNet(e *probeEnv, m metricSet) {
	payload := make([]byte, 64<<10)
	const warm, trips = 20, 200
	ts := make([]float64, 0, trips)
	if _, err := mpi.RunNet(2, func(c *mpi.Comm) {
		const tag = 11
		for i := 0; i < warm+trips; i++ {
			if c.Rank() == 0 {
				t0 := time.Now()
				c.Send(1, tag, int64(len(payload)), payload)
				c.Recv(1, tag)
				if i >= warm {
					ts = append(ts, time.Since(t0).Seconds())
				}
			} else {
				msg := c.Recv(0, tag)
				c.Send(0, tag, msg.Bytes, msg.Data)
			}
		}
	}); err != nil {
		fatalf("probe net: %v", err)
	}
	m.put("mpi.net_roundtrip_us", "us", 1e6*median(ts))
	m.put("mpi.net_bootstrap_ms", "ms", 1e3*medianSeconds(5, func() {
		if _, err := mpi.RunNet(e.opts.world, func(*mpi.Comm) {}); err != nil {
			fatalf("probe net: %v", err)
		}
	}))
}

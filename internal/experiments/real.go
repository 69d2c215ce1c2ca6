package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/compositor"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/workers"
)

// DatasetSize selects how large a generated test dataset is.
type DatasetSize int

const (
	// Small is used by -quick runs and unit-style benches.
	Small DatasetSize = iota
	// Medium is the default for image-quality figures.
	Medium
	// large is Figure 3's full-size dataset: the basin refines one level
	// deeper than Medium's, so the cells a coarser level drops dominate
	// its render, as they do at the paper's scale.
	large
)

// MakeDataset generates a reproducible earthquake dataset in memory:
// basin mesh, double-couple source, the requested number of stored steps.
// The frequency target is tuned so the mesh actually grades — the slow
// basin refines one or two levels deeper than the surrounding halfspace,
// like the paper's wavelength-adapted Northridge mesh.
func MakeDataset(size DatasetSize, steps int) (pfs.Store, *mesh.Mesh, error) {
	maxLevel := uint8(4)
	minLevel := uint8(2)
	fmax := 0.08 // halfspace stops at level 3, basin refines to the cap
	// A broad, slow basin keeps most cells at the finest levels — like the
	// Northridge mesh, where the surface layers dominate the cell count.
	model := &quake.BasinModel{
		VsSurface: 800, VsBottom: 3200,
		Cx: 0.5, Cy: 0.5, Rx: 0.5, Ry: 0.45, Rz: 0.3,
		VsBasin:  200,
		VpOverVs: 1.8, Rho: 2300, Rim: 0.7,
	}
	switch size {
	case Medium:
		// Basin reaches level 6, surface rock level 4, deep rock level 3:
		// four levels of grading for the adaptive-rendering experiments.
		maxLevel, minLevel, fmax = 6, 3, 0.16
	case large:
		maxLevel, minLevel, fmax = 7, 3, 0.32
	}
	cfg := mesh.Config{
		Domain: 20000, FMax: fmax, PointsPerWave: 4,
		MaxLevel: maxLevel, MinLevel: minLevel,
	}
	m, err := mesh.Generate(cfg, model)
	if err != nil {
		return nil, nil, err
	}
	s, err := quake.NewSolver(m, quake.DefaultSolverConfig())
	if err != nil {
		return nil, nil, err
	}
	s.AddSource(quake.NewDoubleCouple(s, [3]float64{0.45, 0.55, 0.3}, 0.04, 1e13, 0.5))
	st := pfs.NewMemStore()
	// Space stored steps so the wave crosses a good part of the basin.
	total := steps * 6
	if _, err := quake.ProduceDataset(s, st, quake.RunConfig{Steps: total, OutEvery: 6}); err != nil {
		return nil, nil, err
	}
	return st, m, nil
}

// figLayout is the processor layout the image figures run the pipeline
// on. Frames do not depend on the layout (one input rank or many, any
// renderer count), so the smallest one with more than one renderer does:
// its frames still go through the SLIC composite.
var figLayout = core.Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}

// figOptions returns the options of an image figure: the pipeline's
// defaults for a px×px frame, over the dataset's first steps steps, which
// bound the range scan.
func figOptions(px, steps int) core.Options {
	opts := core.DefaultOptions(px, px)
	opts.MaxSteps = steps
	return opts
}

// figWorkload builds the dataset of st under opts and a workload on it
// aimed at opts' view and at dataset step t alone.
func figWorkload(st pfs.Store, opts core.Options, t int) (*core.RealWorkload, error) {
	ds, err := core.NewDataset(figLayout, opts, st)
	if err != nil {
		return nil, err
	}
	w := ds.NewWorkload(opts.Width, opts.Height, opts.View, opts.TFName)
	if err := w.SetStepWindow(t, t+1); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// figFrame runs the pipeline once over w's one-step window and returns
// the frame and the run's Result. The frame stays valid until w runs
// again.
func figFrame(w *core.RealWorkload) (*img.Image, *core.Result, error) {
	p, err := core.NewPipeline(figLayout, w)
	if err != nil {
		return nil, nil, err
	}
	if _, err := p.RunReal(); err != nil {
		return nil, nil, err
	}
	return w.Frame(0), p.Res, nil
}

// Fig3 reproduces Figure 3: full-resolution vs adaptive (coarser octree
// level) rendering — the adaptive image is several times cheaper while
// staying visually close. Every level is one pipeline run of the last
// step at that Options.Level; render_time_s is the pipeline's render
// stage (Result.AvgRender). The full-size figure runs on the large
// dataset. Returns the timing/quality table and writes each level's image.
func Fig3(quick bool, imgDir string) (*trace.Table, error) {
	size := large
	px := 256
	if quick {
		size, px = Small, 96
	}
	const nsteps = 4
	st, m, err := MakeDataset(size, nsteps)
	if err != nil {
		return nil, err
	}
	depth := m.Tree.MaxDepth()
	levels := []uint8{depth, depth - 1, depth - 2}
	ws := make([]*core.RealWorkload, len(levels))
	for i, lvl := range levels {
		opts := figOptions(px, nsteps)
		opts.Level = lvl
		if ws[i], err = figWorkload(st, opts, nsteps-1); err != nil {
			return nil, err
		}
		defer ws[i].Close()
	}
	tb := trace.NewTable("Figure 3 — full vs adaptive rendering",
		"level", "cells", "render_time_s", "speedup", "rmse_vs_full", "psnr_db")
	// A level's time is its minimum over a few runs, interleaved across
	// the levels: a quick render is about a millisecond, so a single shot
	// lets one GC pause decide the speedup column. The first run also warms the
	// workload's scratches.
	const reps = 3
	ims := make([]*img.Image, len(levels))
	dts := make([]float64, len(levels))
	for rep := 0; rep < reps; rep++ {
		for i, w := range ws {
			im, res, err := figFrame(w)
			if err != nil {
				return nil, err
			}
			if dt := res.AvgRender(); rep == 0 || dt < dts[i] {
				dts[i] = dt
			}
			ims[i] = im
		}
	}
	fullImg, fullTime := ims[0], dts[0]
	for i, lvl := range levels {
		cells := 0
		for _, b := range m.Tree.Blocks(2) {
			bd, _, err := render.BlockTables(m, b, lvl, nil)
			if err != nil {
				return nil, err
			}
			cells += bd.NumCells()
		}
		im, dt := ims[i], dts[i]
		if i == 0 {
			tb.AddRow(lvl, cells, dt, 1.0, 0.0, "inf")
		} else {
			tb.AddRow(lvl, cells, dt, fullTime/dt, img.RMSE(fullImg, im),
				fmt.Sprintf("%.1f", img.PSNR(fullImg, im)))
		}
		if imgDir != "" {
			if err := writePNG(imgDir, fmt.Sprintf("fig3_level%d.png", lvl), im); err != nil {
				return nil, err
			}
		}
	}
	return tb, nil
}

// Fig4 reproduces Figure 4: temporal-domain enhancement at a late timestep
// brings out wave fronts whose amplitude has decayed. The table reports
// how much visible (non-transparent) structure the enhancement recovers:
// the same step rendered by the pipeline without and with
// Options.Enhancement.
func Fig4(quick bool, imgDir string) (*trace.Table, error) {
	size := Medium
	px := 192
	if quick {
		size, px = Small, 80
	}
	const nsteps = 8
	st, _, err := MakeDataset(size, nsteps)
	if err != nil {
		return nil, err
	}
	tb := trace.NewTable("Figure 4 — temporal enhancement at a late timestep",
		"variant", "visible_pixels", "mean_opacity")
	for _, enhance := range []bool{false, true} {
		opts := figOptions(px, nsteps)
		opts.Enhancement = enhance
		// The late step: direct rendering shows little.
		w, err := figWorkload(st, opts, nsteps-1)
		if err != nil {
			return nil, err
		}
		im, _, err := figFrame(w)
		w.Close()
		if err != nil {
			return nil, err
		}
		visible := 0
		var sum float64
		for i := 3; i < len(im.Pix); i += 4 {
			if im.Pix[i] > 0.02 {
				visible++
			}
			sum += float64(im.Pix[i])
		}
		name := "plain"
		if enhance {
			name = "enhanced"
		}
		tb.AddRow(name, visible, sum/float64(px*px))
		if imgDir != "" {
			if err := writePNG(imgDir, fmt.Sprintf("fig4_%s.png", name), im); err != nil {
				return nil, err
			}
		}
	}
	return tb, nil
}

// Fig11 reproduces Figure 11: rendering with and without gradient Phong
// lighting (Options.Lighting). Lighting adds shading variation that
// reveals flow structure.
func Fig11(quick bool, imgDir string) (*trace.Table, error) {
	size := Medium
	px := 192
	if quick {
		size, px = Small, 80
	}
	const nsteps = 4
	st, _, err := MakeDataset(size, nsteps)
	if err != nil {
		return nil, err
	}
	tb := trace.NewTable("Figure 11 — lighting on/off", "variant", "render_time_s", "rmse_vs_unlit")
	var unlit *img.Image
	for _, lit := range []bool{false, true} {
		opts := figOptions(px, nsteps)
		opts.Lighting = lit
		w, err := figWorkload(st, opts, nsteps-1)
		if err != nil {
			return nil, err
		}
		defer w.Close()
		im, res, err := figFrame(w)
		if err != nil {
			return nil, err
		}
		name := "unlit"
		if lit {
			name = "lit"
		} else {
			unlit = im
		}
		tb.AddRow(name, res.AvgRender(), img.RMSE(unlit, im))
		if imgDir != "" {
			if err := writePNG(imgDir, fmt.Sprintf("fig11_%s.png", name), im); err != nil {
				return nil, err
			}
		}
	}
	return tb, nil
}

// Fig13 reproduces Figures 13/14: simultaneous volume rendering and
// surface LIC (Options.LIC) for a sequence of timesteps, one pipeline run
// per step so each row times its own LIC (Result.LICSec) and render
// stage.
func Fig13(quick bool, imgDir string) (*trace.Table, error) {
	size := Medium
	px := 192
	licPx := 128
	if quick {
		size, px, licPx = Small, 80, 48
	}
	const nsteps = 4
	st, m, err := MakeDataset(size, nsteps)
	if err != nil {
		return nil, err
	}
	opts := figOptions(px, nsteps)
	opts.LIC, opts.LICSize = true, licPx
	w, err := figWorkload(st, opts, 0)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	surf := len(m.SurfaceNodes())
	tb := trace.NewTable("Figures 13/14 — volume + surface LIC",
		"step", "surface_nodes", "lic_time_s", "volume_time_s")
	for t := 0; t < nsteps; t++ {
		if err := w.SetStepWindow(t, t+1); err != nil {
			return nil, err
		}
		im, res, err := figFrame(w)
		if err != nil {
			return nil, err
		}
		tb.AddRow(t, surf, res.LICSec, res.AvgRender())
		if imgDir != "" {
			if err := writePNG(imgDir, fmt.Sprintf("fig13_step%d.png", t), im); err != nil {
				return nil, err
			}
		}
	}
	return tb, nil
}

func writePNG(dir, name string, im *img.Image) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return im.WritePNG(f)
}

// RenderScaling measures the shared-memory parallel renderer: one frame
// rendered with 1, 2, 4 and, when larger, the automatic width
// (workers.Width(1), all of GOMAXPROCS) against the serial reference,
// reporting wall-clock speedup and verifying pixel-exact parity (the
// max_abs_diff column must be exactly 0).
func RenderScaling(quick bool) (*trace.Table, error) {
	size := Medium
	px := 256
	if quick {
		size, px = Small, 128
	}
	st, m, err := MakeDataset(size, 2)
	if err != nil {
		return nil, err
	}
	// Step 1's field, quantized over its own range as the pipeline would.
	buf := make([]byte, m.NumNodes()*quake.BytesPerNode)
	if err := st.ReadAt(nil, quake.StepObject(1), 0, buf); err != nil {
		return nil, err
	}
	vec, err := quake.DecodeStepInto(nil, buf)
	if err != nil {
		return nil, err
	}
	mag := render.MagnitudeInto(nil, vec)
	lo, hi := render.MinMax(mag)
	scalar := render.DequantizeInto(nil, render.QuantizeInto(nil, mag, lo, hi))
	rr := render.NewRenderer()
	depth := m.Tree.MaxDepth()
	view := render.DefaultView(px, px)
	start := time.Now()
	ref, err := render.RenderSerial(rr, m, scalar, 2, depth, &view)
	if err != nil {
		return nil, err
	}
	serial := time.Since(start).Seconds()
	tb := trace.NewTable("Parallel renderer scaling — workers vs frame time",
		"workers", "frame_s", "speedup", "max_abs_diff")
	tb.AddRow("serial", serial, 1.0, 0.0)
	counts := []int{1, 2, 4}
	if n := workers.Width(1); n > 4 {
		counts = append(counts, n)
	}
	for _, k := range counts {
		v := render.DefaultView(px, px)
		start := time.Now()
		im, err := render.RenderParallelWith(rr, m, scalar, 2, depth, &v, k, nil)
		if err != nil {
			return nil, err
		}
		dt := time.Since(start).Seconds()
		tb.AddRow(k, dt, serial/dt, img.MaxAbsDiff(ref, im))
	}
	return tb, nil
}

// IOStrategies reproduces the Section 5.3 comparison: a single collective
// noncontiguous read (two-phase MPI-IO) versus independent contiguous
// reads, for m input processors fetching one interleaved timestep from the
// simulated parallel file system. Virtual time includes seeks, bandwidth
// contention and the two-phase shuffle.
func IOStrategies(quick bool) (*trace.Table, error) {
	stepBytes := int64(32 << 20)
	recSize := int64(64)
	if quick {
		stepBytes = 4 << 20
	}
	cfg := mpi.SimConfig{
		OutBW: 50e6, InBW: 400e6, Latency: 20e-6,
		DiskClientBW: 20e6, DiskAggBW: 1000e6, SeekTime: 200e-6,
	}
	st := pfs.NewMemStore()
	st.CreateVirtual("step.dat", stepBytes)
	nrec := stepBytes / recSize
	tb := trace.NewTable("Section 5.3 — collective noncontiguous vs independent contiguous read",
		"input_procs", "collective_s", "independent_s", "coll_phys_reads", "indep_phys_reads")
	var firstErr error
	for _, m := range []int{1, 2, 4, 8} {
		physColl, physInd := make([]int, m), make([]int, m)
		// Collective: each rank wants an interleaved quarter of the records
		// grouped in runs of 16 (octree-block-shaped pattern).
		tColl := mpi.RunSim(m, cfg, func(c *mpi.Comm) {
			var displs []int64
			run := int64(16)
			for base := int64(c.Rank()) * run; base < nrec; base += run * int64(m) {
				displs = append(displs, base)
			}
			f, err := mpiio.Open(c, st, "step.dat")
			if err != nil {
				firstErr = err
				return
			}
			f.SetView(0, mpiio.IndexedBlock{Blocklen: int(run), Displs: displs, ElemSize: recSize})
			n, err := f.ViewSize()
			if err == nil {
				_, err = f.ReadAllInto(1, make([]byte, n))
			}
			if err != nil {
				firstErr = err
				return
			}
			physColl[c.Rank()] = f.PhysReads
		})
		// Independent: each rank reads its contiguous 1/m of the file.
		tInd := mpi.RunSim(m, cfg, func(c *mpi.Comm) {
			f, err := mpiio.Open(c, st, "step.dat")
			if err != nil {
				firstErr = err
				return
			}
			lo := stepBytes * int64(c.Rank()) / int64(m)
			hi := stepBytes * int64(c.Rank()+1) / int64(m)
			f.SetView(lo, mpiio.Contig{N: int(hi - lo), ElemSize: 1})
			if _, err := f.ReadInto(make([]byte, hi-lo)); err != nil {
				firstErr = err
				return
			}
			physInd[c.Rank()] = f.PhysReads
		})
		if firstErr != nil {
			return nil, firstErr
		}
		tb.AddRow(m, tColl, tInd, sum(physColl), sum(physInd))
	}
	return tb, nil
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Compositing reproduces the SLIC study (Section 4.4 and the conclusions):
// SLIC vs plain direct send vs binary swap on real fragments, with and
// without RLE compression, reporting message counts, bytes and wall time.
func Compositing(quick bool) (*trace.Table, error) {
	w, h := 512, 512
	blocksPerRank := 4
	groups := []int{4, 8, 16}
	if quick {
		w, h = 128, 128
		groups = []int{4, 8}
	}
	tb := trace.NewTable("SLIC vs direct send vs binary swap (real images)",
		"ranks", "algorithm", "msgs", "mbytes", "wall_s")
	for _, n := range groups {
		frags := make([][]*render.Fragment, n)
		rng := rand.New(rand.NewSource(17))
		vis := 0
		for r := 0; r < n; r++ {
			for b := 0; b < blocksPerRank; b++ {
				fw := w/3 + rng.Intn(w/3)
				fh := h/3 + rng.Intn(h/3)
				f := &render.Fragment{
					X0: rng.Intn(w - fw), Y0: rng.Intn(h - fh),
					VisRank: vis, Img: img.New(fw, fh),
				}
				for i := 0; i < fw*fh; i++ {
					if rng.Float64() < 0.4 {
						a := rng.Float32()
						f.Img.Pix[4*i+3] = a
						f.Img.Pix[4*i] = a * rng.Float32()
					}
				}
				vis++
				frags[r] = append(frags[r], f)
			}
		}
		rects := make([][]compositor.Rect, n)
		for r, fs := range frags {
			for _, f := range fs {
				rects[r] = append(rects[r], compositor.Rect{X0: f.X0, Y0: f.Y0, X1: f.X0 + f.Img.W, Y1: f.Y0 + f.Img.H})
			}
		}
		sched := compositor.BuildSchedule(rects, w, h, n)
		group := make([]int, n)
		for i := range group {
			group[i] = i
		}
		type variant struct {
			name     string
			compress bool
			run      func(c *mpi.Comm, me int, compress bool) (compositor.Stats, error)
		}
		variants := []variant{
			{"directsend", false, func(c *mpi.Comm, me int, comp bool) (compositor.Stats, error) {
				_, _, s, err := compositor.DirectSendWith(c, group, me, frags[me], w, h, 100, comp, nil)
				return s, err
			}},
			{"directsend+rle", true, func(c *mpi.Comm, me int, comp bool) (compositor.Stats, error) {
				_, _, s, err := compositor.DirectSendWith(c, group, me, frags[me], w, h, 100, comp, nil)
				return s, err
			}},
			{"slic", false, func(c *mpi.Comm, me int, comp bool) (compositor.Stats, error) {
				_, _, s, err := compositor.SLICWith(c, group, me, sched, frags[me], w, h, 100, comp, nil)
				return s, err
			}},
			{"slic+rle", true, func(c *mpi.Comm, me int, comp bool) (compositor.Stats, error) {
				_, _, s, err := compositor.SLICWith(c, group, me, sched, frags[me], w, h, 100, comp, nil)
				return s, err
			}},
			{"binaryswap", false, func(c *mpi.Comm, me int, comp bool) (compositor.Stats, error) {
				flat := render.CompositeFragments(w, h, frags[me])
				_, _, s, err := compositor.BinarySwapWith(c, group, me, flat, w, h, 100, nil)
				return s, err
			}},
		}
		for _, v := range variants {
			var mu sync.Mutex
			var msgs int
			var bytes int64
			var firstErr error
			start := time.Now()
			mpi.RunReal(n, func(c *mpi.Comm) {
				s, err := v.run(c, c.Rank(), v.compress)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				msgs += s.MsgsSent
				bytes += s.BytesSent
				mu.Unlock()
			})
			if firstErr != nil {
				return nil, firstErr
			}
			tb.AddRow(n, v.name, msgs, float64(bytes)/1e6, time.Since(start).Seconds())
		}
	}
	return tb, nil
}

// Command quakeviz runs the parallel visualization pipeline over a dataset
// produced by quakesim: input processors fetch and preprocess timesteps
// through the MPI-IO layer, rendering processors ray-cast their octree
// blocks and composite with SLIC, and the output processor assembles and
// writes one PNG per timestep.
//
// Every rank runs in this process, and the ranks of a role split
// GOMAXPROCS between them for their shared-memory fan-outs (render and
// composite; the LIC convolution takes all of it).
// GOMAXPROCS=1 runs every fan-out inline; frames are byte-identical at any
// setting.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/pfs"
	"repro/internal/quadtree"
	"repro/internal/quake"
	"repro/internal/render"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quakeviz: ")

	data := flag.String("data", "dataset", "dataset directory (from quakesim)")
	out := flag.String("out", "frames", "output directory for PNG frames")
	width := flag.Int("width", 512, "image width")
	height := flag.Int("height", 512, "image height")
	groups := flag.Int("groups", 2, "input processor groups (1DIP: number of IPs)")
	ips := flag.Int("ips", 1, "input processors per group (2DIP when > 1)")
	renderers := flag.Int("renderers", 4, "rendering processors (they split GOMAXPROCS between them)")
	outputs := flag.Int("outputs", 1, "output processors")
	level := flag.Int("level", 255, "adaptive rendering level (255 = full)")
	blockLevel := flag.Int("block", 2, "octree block (distribution) level")
	lighting := flag.Bool("lighting", false, "gradient Phong lighting")
	enhance := flag.Bool("enhance", false, "temporal-domain enhancement")
	licOn := flag.Bool("lic", false, "surface LIC vector-field underlay")
	adaptiveFetch := flag.Bool("afetch", false, "adaptive fetching (read only the render level)")
	strategy := flag.String("read", "independent", "read strategy: independent | collective")
	comp := flag.String("compositor", "slic", "compositor: slic | directsend")
	compress := flag.Bool("compress", false, "RLE-compress compositing traffic and the strips sent to the output ranks")
	steps := flag.Int("steps", 0, "timesteps to render (0 = all)")
	gifPath := flag.String("gif", "", "also write an animated GIF to this path")
	azimuth := flag.Float64("azimuth", -1000, "camera azimuth in degrees (with -elevation)")
	elevation := flag.Float64("elevation", 55, "camera elevation in degrees above the surface")
	fov := flag.Float64("fov", 0, "perspective field of view in degrees (0 = orthographic)")
	extent := flag.Float64("extent", 0, "view extent in domain units (smaller = close-up; 0 = fit)")
	tf := flag.String("tf", "seismic", "transfer function preset: seismic | gray | hot")
	pgvPath := flag.String("pgv", "", "write a peak-ground-velocity surface map PNG to this path")
	flag.Parse()

	store, err := pfs.NewDirStore(*data)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions(*width, *height)
	if *azimuth > -999 {
		opts.View = render.OrbitView(*width, *height, *azimuth, *elevation)
	}
	opts.View.FOVDeg = *fov
	opts.View.Extent = *extent
	opts.TFName = *tf
	opts.Level = uint8(*level)
	opts.BlockLevel = uint8(*blockLevel)
	opts.Lighting = *lighting
	opts.Enhancement = *enhance
	opts.LIC = *licOn
	opts.AdaptiveFetch = *adaptiveFetch
	opts.Compress = *compress
	opts.MaxSteps = *steps
	switch *strategy {
	case "independent":
		opts.ReadStrategy = core.ReadIndependent
	case "collective":
		opts.ReadStrategy = core.ReadCollective
	default:
		log.Fatalf("unknown read strategy %q", *strategy)
	}
	switch *comp {
	case "slic":
		opts.Compositor = core.CompositeSLIC
	case "directsend":
		opts.Compositor = core.CompositeDirectSend
	default:
		log.Fatalf("unknown compositor %q", *comp)
	}

	layout := core.Layout{Groups: *groups, IPsPerGroup: *ips, Renderers: *renderers, Outputs: *outputs}
	w, err := core.NewRealWorkload(layout, opts, store)
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.NewPipeline(layout, w)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pipeline: %d input (%dx%d), %d render, %d output ranks; %d steps",
		layout.NumInput(), *groups, *ips, *renderers, *outputs, w.Steps())

	elapsed, err := p.RunReal()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for t := 0; t < w.Steps(); t++ {
		frame := w.Frame(t)
		if frame == nil {
			log.Fatalf("missing frame %d", t)
		}
		path := filepath.Join(*out, fmt.Sprintf("frame_%04d.png", t))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := frame.WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		if *gifPath == "" {
			// Frame written out: release its canvas to the frame ring (the
			// GIF path still needs every frame below).
			w.ReleaseFrame(t)
		}
	}
	if *gifPath != "" {
		frames := make([]*img.Image, w.Steps())
		for t := range frames {
			frames[t] = w.Frame(t)
		}
		f, err := os.Create(*gifPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := img.WriteAnimGIF(f, frames, 12); err != nil {
			log.Fatal(err)
		}
		f.Close()
		log.Printf("animation -> %s", *gifPath)
	}
	if *pgvPath != "" {
		if err := writePGVMap(store, w, *pgvPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("PGV map -> %s", *pgvPath)
	}
	w.Close() // run is over: shut the per-rank worker pools down
	res := p.Res
	fmt.Printf("rendered %d frames in %.2fs (%.2fs/frame steady-state interframe)\n",
		res.Frames, elapsed, res.Interframe(layout.Groups))
	fmt.Printf("stage totals: fetch %.2fs  prep %.2fs  send %.2fs  render %.2fs  composite %.2fs\n",
		res.FetchSec, res.PrepSec, res.SendSec, res.RenderSec, res.CompSec)
	fmt.Printf("frames written to %s\n", *out)
}

// writePGVMap computes the peak-ground-velocity map over the dataset's
// surface nodes, resamples it through the quadtree, and writes a
// hot-colormapped PNG.
func writePGVMap(store pfs.Store, w *core.RealWorkload, path string) error {
	meta, err := quake.ReadMeta(store)
	if err != nil {
		return err
	}
	m := w.Mesh()
	surf := m.SurfaceNodes()
	pgv, err := quake.PeakGroundVelocity(store, meta, surf)
	if err != nil {
		return err
	}
	samples := make([]quadtree.Sample, len(surf))
	var peak float64
	for i, id := range surf {
		p := m.Nodes[id].Pos()
		v := float64(pgv[i])
		samples[i] = quadtree.Sample{X: p[0], Y: p[1], VX: v}
		if v > peak {
			peak = v
		}
	}
	qt, err := quadtree.Build(samples, 8)
	if err != nil {
		return err
	}
	const size = 256
	grid, err := qt.Resample(size, size)
	if err != nil {
		return err
	}
	out := img.New(size, size)
	tf := render.HotTF()
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := grid.VX[y*size+x]
			s := 0.0
			if peak > 0 {
				s = v / peak
			}
			r, g, b, _ := tf.Lookup(s)
			out.Set(x, y, float32(r), float32(g), float32(b), 1)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return out.WritePNG(f)
}

// Command quakeviz runs the parallel visualization pipeline over a dataset
// produced by quakesim: input processors fetch and preprocess timesteps
// through the MPI-IO layer, rendering processors ray-cast their octree
// blocks and composite with SLIC, and the output processor assembles and
// writes one PNG per timestep.
//
// By default every rank runs in this process. In rank mode (-rank) the
// process hosts one rank on the TCP transport (mpi.Join) — the deployment
// shape the paper runs, where input/renderer/output ranks span machines.
// Every rank process is started with the same flags plus its own -rank;
// rank 0 binds the -coord address and the others register with it, after
// which the pipeline runs exactly the code paths it runs in-process, with
// every payload crossing the sockets through the wire codecs. For a
// single-host tryout, -spawn forks the whole job locally:
//
//	quakeviz -spawn -data "" -groups 2 -renderers 3 -outputs 1 -steps 3
//
// With -data "", each process deterministically regenerates the same small
// demo dataset in memory (the solver is bit-reproducible), so a job runs
// with no files at all. A process writes the frames it assembled; frames
// are byte-identical in either mode.
//
// The ranks of a role split GOMAXPROCS between them for their
// shared-memory fan-outs (render and composite; the LIC convolution takes
// all of it), in rank mode as if every rank of its role shared the
// process. GOMAXPROCS=1 runs every fan-out inline; frames are
// byte-identical at any setting.
//
// Exit codes: 0 for a clean run, 1 for a hard failure, 3 for a run
// completed with degraded frames (-tolerate), 4 for a run aborted on a
// lost peer. The -spawn parent exits with the largest code of its
// children.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quadtree"
	"repro/internal/quake"
	"repro/internal/render"
)

// Exit codes, surfaced per process and folded to their maximum by the
// -spawn parent.
const (
	exitClean    = 0
	exitFatal    = 1
	exitDegraded = 3
	exitPeerLost = 4
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quakeviz: ")

	data := flag.String("data", "dataset", "dataset directory from quakesim (empty = in-memory demo dataset)")
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
	steps := flag.Int("steps", 0, "timesteps to render (0 = all; the demo dataset has 3)")
	gifPath := flag.String("gif", "", "also write an animated GIF to this path (rank mode: only with -outputs 1)")
	azimuth := flag.Float64("azimuth", -1000, "camera azimuth in degrees (with -elevation)")
	elevation := flag.Float64("elevation", 55, "camera elevation in degrees above the surface")
	fov := flag.Float64("fov", 0, "perspective field of view in degrees (0 = orthographic)")
	extent := flag.Float64("extent", 0, "view extent in domain units (smaller = close-up; 0 = fit)")
	tf := flag.String("tf", "seismic", "transfer function preset: seismic | gray | hot")
	pgvPath := flag.String("pgv", "", "write a peak-ground-velocity surface map PNG to this path (rank mode: by rank 0)")
	tolerate := flag.Bool("tolerate", false, "degrade on lost ranks and failed reads instead of aborting (exit 3 when frames degraded)")
	rank := flag.Int("rank", -1, "host only this rank, over TCP (-1 = every rank in this process; set by -spawn)")
	spawn := flag.Bool("spawn", false, "fork the whole job as local rank processes and wait")
	coord := flag.String("coord", "127.0.0.1:47600", "rank mode: coordinator address rank 0 binds and peers dial")
	listen := flag.String("listen", "127.0.0.1:0", "rank mode: address this rank binds for peer connections")
	timeout := flag.Duration("timeout", 30*time.Second, "rank mode: bootstrap dial/handshake timeout")
	heartbeat := flag.Duration("heartbeat", mpi.DefaultNetHeartbeat, "rank mode: peer heartbeat interval; a link fails after 8 intervals with no byte moving (negative disables heartbeats and the read-side check; writes stay bounded by 10s)")
	reconnect := flag.Int("reconnect", mpi.DefaultNetReconnectAttempts, "rank mode: reconnect attempts before a silent peer is declared lost (negative disables healing)")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}
	layout := core.Layout{Groups: *groups, IPsPerGroup: *ips, Renderers: *renderers, Outputs: *outputs}
	size := layout.WorldSize()
	if *gifPath != "" && (*spawn || *rank >= 0) && *outputs != 1 {
		log.Fatal("-gif needs every frame in one process: rank mode takes it only with -outputs 1")
	}
	if *spawn {
		os.Exit(spawnJob(size))
	}
	if *rank < -1 || *rank >= size {
		log.Fatalf("-rank %d outside [0,%d) (layout %+v)", *rank, size, layout)
	}
	if *rank >= 0 {
		log.SetPrefix(fmt.Sprintf("quakeviz rank %d: ", *rank))
	}

	store, retry := retryStore(openStore(*data, *steps), *tolerate, max(*rank, 0))
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
	opts.Faults.Tolerate = *tolerate
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

	w, err := core.NewRealWorkload(layout, opts, store)
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.NewPipeline(layout, w)
	if err != nil {
		log.Fatal(err)
	}
	var elapsed float64
	var runErr error
	if *rank < 0 {
		log.Printf("pipeline: %d input (%dx%d), %d render, %d output ranks; %d steps",
			layout.NumInput(), *groups, *ips, *renderers, *outputs, w.Steps())
		elapsed, runErr = p.RunReal()
	} else {
		elapsed, runErr = runRank(p, mpi.NetConfig{
			Rank: *rank, Size: size,
			Coordinator: *coord, Listen: *listen,
			DialTimeout: *timeout,
			Tuning:      mpi.NetTuning{Heartbeat: *heartbeat, ReconnectAttempts: *reconnect},
		}, *tolerate)
	}
	w.Close() // run is over: shut the per-rank worker pools down

	res := p.Res
	code := exitClean
	switch {
	case errors.Is(runErr, mpi.ErrPeerLost):
		log.Printf("aborted on lost peer: %v", runErr)
		os.Exit(exitPeerLost)
	case runErr != nil:
		log.Print(runErr)
		os.Exit(exitFatal)
	case res.DegradedFrames > 0:
		log.Printf("completed degraded: %d degraded frame(s)", res.DegradedFrames)
		code = exitDegraded
	}

	if wrote := writeFrames(w, *out, *gifPath); wrote > 0 {
		fmt.Printf("rendered %d frames in %.2fs (%.2fs/frame steady-state interframe)\n",
			res.Frames, elapsed, res.Interframe(layout.Groups))
		fmt.Printf("stage totals: fetch %.2fs  prep %.2fs  send %.2fs  render %.2fs  composite %.2fs\n",
			res.FetchSec, res.PrepSec, res.SendSec, res.RenderSec, res.CompSec)
		fmt.Printf("%d frames written to %s\n", wrote, *out)
	}
	if *pgvPath != "" && *rank <= 0 {
		if err := writePGVMap(store, w, *pgvPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("PGV map -> %s", *pgvPath)
	}
	if retry != nil && retry.Faults() > 0 {
		log.Printf("storage healed %d transient read fault(s) in %d retries", retry.Faults(), retry.Retries())
	}
	os.Exit(code)
}

// runRank joins the TCP job as the rank cfg names, runs that rank's role of
// p and tears the connection down, returning the elapsed wall time in
// seconds and the run's error.
func runRank(p *core.Pipeline, cfg mpi.NetConfig, tolerate bool) (float64, error) {
	nw, err := mpi.Join(cfg)
	if err != nil {
		return 0, fmt.Errorf("join: %w", err)
	}
	c := nw.Comm()
	log.Printf("up, %s rank of %d", p.Layout.RoleOf(cfg.Rank), cfg.Size)
	start := time.Now()
	err = func() (err error) {
		// Peer loss without -tolerate surfaces as a panic from a blocked
		// receive; recover it into the exit-code classification instead
		// of crashing the process with a stack trace.
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok {
					err = e
				} else {
					err = fmt.Errorf("%v", r)
				}
			}
		}()
		if err := p.Run(c); err != nil {
			return err
		}
		// Drain the job before teardown: Close drops in-flight messages,
		// so no rank may leave until every rank is done sending. A lost
		// rank never reaches the barrier, so a degraded job lingers
		// briefly instead and tears down without it.
		if tolerate && nw.Stats().PeersLost > 0 {
			time.Sleep(150 * time.Millisecond)
			return nil
		}
		c.Barrier()
		return nil
	}()
	elapsed := time.Since(start).Seconds()
	if cerr := nw.Close(); cerr != nil {
		log.Printf("close: %v", cerr)
	}
	log.Printf("done in %.2fs (sent %d msgs / %d B, recv %d msgs / %d B, %d peer(s) lost)",
		elapsed, c.MsgsSent, c.BytesSent, c.MsgsRecv, c.BytesRecv, nw.Stats().PeersLost)
	return elapsed, err
}

// writeFrames writes one PNG per frame this process assembled into dir, and
// with gifPath set an animation of them, and returns how many it wrote.
// Frames assembled in another rank's process are not here and are skipped.
func writeFrames(w *core.RealWorkload, dir, gifPath string) int {
	var frames []*img.Image
	for t := 0; t < w.Steps(); t++ {
		frame := w.Frame(t)
		if frame == nil {
			continue
		}
		if len(frames) == 0 {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("frame_%04d.png", t)))
		if err != nil {
			log.Fatal(err)
		}
		if err := frame.WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		frames = append(frames, frame)
		if gifPath == "" {
			// Frame written out: release its canvas to the frame ring (the
			// GIF path still needs every frame).
			w.ReleaseFrame(t)
		}
	}
	if gifPath != "" && len(frames) > 0 {
		f, err := os.Create(gifPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := img.WriteAnimGIF(f, frames, 12); err != nil {
			log.Fatal(err)
		}
		f.Close()
		log.Printf("animation -> %s", gifPath)
	}
	return len(frames)
}

// retryStore is where -tolerate reaches storage: with it, reads go through
// the retry layer, which heals transient faults below MPI-IO so that no
// rank of a collective read ever observes one and only a fault worth
// degrading over reaches the fetch path (docs/faults.md). The jitter is
// seeded by rank so ranks that fault together do not retry in lockstep.
// Without the flag the store is handed on bare (retry nil) and a transient
// fault aborts the run like any other.
func retryStore(st pfs.Store, tolerate bool, rank int) (pfs.Store, *pfs.RetryStore) {
	if !tolerate {
		return st, nil
	}
	retry := pfs.NewRetryStore(st, pfs.RetryConfig{BaseDelay: time.Millisecond, Seed: uint64(rank)})
	return retry, retry
}

// openStore opens the dataset directory, or with dir empty regenerates the
// deterministic in-memory demo dataset every process rebuilds identically.
func openStore(dir string, steps int) pfs.Store {
	if dir != "" {
		st, err := pfs.NewDirStore(dir)
		if err != nil {
			log.Fatal(err)
		}
		return st
	}
	if steps <= 0 || steps > 8 {
		steps = 3
	}
	st, err := quake.DemoDataset(steps)
	if err != nil {
		log.Fatal(err)
	}
	return st
}

// childArgs returns the arguments of rank r's process in a job spawned with
// args: the parent's own, then -rank and -spawn=false. flag keeps the last
// value of a repeated flag, so a child parses spawn as false however the
// parent spelled it (-spawn, --spawn, -spawn=1, -spawn=T, ...) and never
// spawns a job of its own.
func childArgs(args []string, r int) []string {
	return append(args[:len(args):len(args)], fmt.Sprintf("-rank=%d", r), "-spawn=false")
}

// spawnJob forks one child per rank with this process's own flags
// (childArgs), and waits for the whole job. Children share stdout/stderr;
// the job's exit code is the maximum child code, so one degraded (3) or
// peer-lost (4) rank marks the whole run.
func spawnJob(size int) int {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	procs := make([]*exec.Cmd, size)
	for r := range procs {
		cmd := exec.Command(self, childArgs(os.Args[1:], r)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("spawn rank %d: %v", r, err)
		}
		procs[r] = cmd
	}
	code := exitClean
	for r, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			rc := exitFatal
			var xe *exec.ExitError
			if errors.As(err, &xe) && xe.ExitCode() > 0 {
				rc = xe.ExitCode()
			}
			log.Printf("rank %d: exit %d (%v)", r, rc, err)
			code = max(code, rc)
		}
	}
	return code
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

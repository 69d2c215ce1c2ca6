// Command quakerank launches one rank of the visualization pipeline as an
// OS process on the TCP transport (mpi.Join) — the deployment shape the
// paper runs, where input/renderer/output ranks span machines. Every rank
// process is started with the same layout flags plus its own -rank; rank 0
// binds the coordinator address and the others register with it, after
// which the pipeline runs exactly the code paths RunReal runs in-process,
// with every payload crossing the sockets through the wire codecs.
//
// A multi-machine job points -data at a shared dataset directory (from
// quakesim) and -coord at rank 0's address. For a single-host tryout,
// -spawn forks the whole job locally:
//
//	quakerank -spawn -groups 2 -renderers 3 -outputs 1 -steps 3
//
// With no -data, each rank deterministically regenerates the same small
// demo dataset in memory (the solver is bit-reproducible), so the
// launcher works with no files at all — every process sees identical
// bytes, which is the property the transport needs from a real shared
// filesystem anyway.
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
	"repro/internal/mesh"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// Job exit codes, surfaced per rank and folded to their maximum by the
// -spawn parent: a clean run, a hard failure, a run completed with
// degraded frames (lost rank tolerated), or a run aborted on a lost
// peer with tolerance off.
const (
	exitClean    = 0
	exitFatal    = 1
	exitDegraded = 3
	exitPeerLost = 4
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quakerank: ")

	rank := flag.Int("rank", -1, "this process's rank (set by -spawn; required otherwise)")
	coord := flag.String("coord", "127.0.0.1:47600", "coordinator address rank 0 binds and peers dial")
	listen := flag.String("listen", "127.0.0.1:0", "address this rank binds for peer connections")
	spawn := flag.Bool("spawn", false, "fork the whole job as local processes and wait")
	data := flag.String("data", "", "dataset directory from quakesim (empty = in-memory demo dataset)")
	out := flag.String("out", "frames", "output directory for PNG frames (written by output ranks)")
	width := flag.Int("width", 256, "image width")
	height := flag.Int("height", 256, "image height")
	groups := flag.Int("groups", 2, "input processor groups")
	ips := flag.Int("ips", 1, "input processors per group")
	renderers := flag.Int("renderers", 3, "rendering processors")
	outputs := flag.Int("outputs", 1, "output processors")
	steps := flag.Int("steps", 0, "timesteps to render (0 = all; demo dataset has 3)")
	strategy := flag.String("read", "independent", "read strategy: independent | collective")
	comp := flag.String("compositor", "slic", "compositor: slic | directsend")
	compress := flag.Bool("compress", false, "RLE-compress compositing traffic and the strips sent to the output ranks")
	workers := flag.Int("workers", 0, "per-rank render worker goroutines (0 = auto)")
	timeout := flag.Duration("timeout", 30*time.Second, "bootstrap dial/handshake timeout")
	heartbeat := flag.Duration("heartbeat", mpi.DefaultNetHeartbeat, "peer heartbeat interval (negative disables liveness probing)")
	reconnect := flag.Int("reconnect", mpi.DefaultNetReconnectAttempts, "reconnect attempts before a silent peer is declared lost (negative disables healing)")
	tolerate := flag.Bool("tolerate", false, "degrade on lost ranks and failed reads instead of aborting (exit 3 when frames degraded)")
	flag.Parse()

	layout := core.Layout{Groups: *groups, IPsPerGroup: *ips, Renderers: *renderers, Outputs: *outputs}
	size := layout.WorldSize()

	if *spawn {
		os.Exit(spawnJob(size))
	}
	if *rank < 0 || *rank >= size {
		log.Fatalf("need -rank in [0,%d) (layout %+v), or -spawn to fork the whole job", size, layout)
	}

	store, retry := retryStore(openStore(*data, *steps), *tolerate, *rank)
	opts := core.DefaultOptions(*width, *height)
	opts.View = render.DefaultView(*width, *height)
	opts.MaxSteps = *steps
	opts.Compress = *compress
	opts.Workers = *workers
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
	if *tolerate {
		opts.Faults.Tolerate = true
	}

	w, err := core.NewRealWorkload(layout, opts, store)
	if err != nil {
		log.Fatal(err)
	}
	p, err := core.NewPipeline(layout, w)
	if err != nil {
		log.Fatal(err)
	}

	nw, err := mpi.Join(mpi.NetConfig{
		Rank: *rank, Size: size,
		Coordinator: *coord, Listen: *listen,
		DialTimeout: *timeout,
		Tuning: mpi.NetTuning{
			Heartbeat:         *heartbeat,
			ReconnectAttempts: *reconnect,
		},
	})
	if err != nil {
		log.Fatalf("rank %d: join: %v", *rank, err)
	}
	c := nw.Comm()
	log.Printf("rank %d/%d up (%s)", *rank, size, layout.RoleOf(*rank))
	start := time.Now()
	runErr := func() (err error) {
		// Peer loss without -tolerate surfaces as a panic from a blocked
		// receive; recover it into the exit-code classification instead
		// of crashing the process with a stack trace.
		defer func() {
			if r := recover(); r != nil {
				if e, ok := r.(error); ok {
					err = e
				} else {
					err = fmt.Errorf("rank %d: %v", *rank, r)
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
		if *tolerate && nw.Stats().PeersLost > 0 {
			time.Sleep(150 * time.Millisecond)
			return nil
		}
		c.Barrier()
		return nil
	}()
	if err := nw.Close(); err != nil {
		log.Printf("rank %d: close: %v", *rank, err)
	}
	w.Close()

	code := exitClean
	switch {
	case runErr != nil && errors.Is(runErr, mpi.ErrPeerLost):
		log.Printf("rank %d: aborted on lost peer: %v", *rank, runErr)
		code = exitPeerLost
	case runErr != nil:
		log.Printf("rank %d: %v", *rank, runErr)
		code = exitFatal
	case p.Res.DegradedFrames > 0:
		log.Printf("rank %d: completed degraded: %d degraded frame(s), %d peer(s) lost",
			*rank, p.Res.DegradedFrames, nw.Stats().PeersLost)
		code = exitDegraded
	}
	if code == exitFatal || code == exitPeerLost {
		os.Exit(code)
	}

	wrote := 0
	for t := 0; t < w.Steps(); t++ {
		frame := w.Frame(t)
		if frame == nil {
			continue // assembled on another rank's process
		}
		if wrote == 0 {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		f, err := os.Create(filepath.Join(*out, fmt.Sprintf("frame_%04d.png", t)))
		if err != nil {
			log.Fatal(err)
		}
		if err := frame.WritePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		wrote++
	}
	if wrote > 0 {
		log.Printf("rank %d: %d frames -> %s in %.2fs (sent %d msgs / %d B, recv %d msgs / %d B)",
			*rank, wrote, *out, time.Since(start).Seconds(),
			c.MsgsSent, c.BytesSent, c.MsgsRecv, c.BytesRecv)
	}
	if retry != nil && retry.Faults() > 0 {
		log.Printf("rank %d: storage healed %d transient read fault(s) in %d retries", *rank, retry.Faults(), retry.Retries())
	}
	if code != exitClean {
		os.Exit(code) // degraded completion: frames written, exit 3
	}
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

// spawnJob forks one child per rank with this process's own flags plus
// -rank, and waits for the whole job. Children share stdout/stderr; the
// job's exit code is the maximum child code, so one degraded (3) or
// peer-lost (4) rank marks the whole run.
func spawnJob(size int) int {
	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	args := make([]string, 0, len(os.Args))
	for _, a := range os.Args[1:] {
		if a != "-spawn" && a != "--spawn" && a != "-spawn=true" && a != "--spawn=true" {
			args = append(args, a)
		}
	}
	procs := make([]*exec.Cmd, size)
	for r := 0; r < size; r++ {
		cmd := exec.Command(self, append([]string{fmt.Sprintf("-rank=%d", r)}, args...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("spawn rank %d: %v", r, err)
		}
		procs[r] = cmd
	}
	code := 0
	for r, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			rc := exitFatal
			var xe *exec.ExitError
			if errors.As(err, &xe) && xe.ExitCode() > 0 {
				rc = xe.ExitCode()
			}
			log.Printf("rank %d: exit %d (%v)", r, rc, err)
			if rc > code {
				code = rc
			}
		}
	}
	return code
}

// openStore opens the shared dataset directory, or regenerates the
// deterministic in-memory demo dataset every rank can rebuild
// identically.
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
	cfg := mesh.Config{Domain: 2000, FMax: 1.2, PointsPerWave: 4, MaxLevel: 4, MinLevel: 2}
	msh, err := mesh.Generate(cfg, demoMaterial{})
	if err != nil {
		log.Fatal(err)
	}
	s, err := quake.NewSolver(msh, quake.DefaultSolverConfig())
	if err != nil {
		log.Fatal(err)
	}
	s.AddSource(quake.PointSource{Node: s.NearestNode([3]float64{0.5, 0.5, 0.3}),
		Dir: [3]float64{0, 0, 1}, Amplitude: 1e12, Freq: 2})
	st := pfs.NewMemStore()
	if _, err := quake.ProduceDataset(s, st, quake.RunConfig{Steps: steps * 4, OutEvery: 4}); err != nil {
		log.Fatal(err)
	}
	return st
}

// demoMaterial is the demo dataset's layered halfspace with a soft
// basin-like inclusion (the shape the tests use).
type demoMaterial struct{}

// At returns the material at a normalized domain position.
func (demoMaterial) At(p [3]float64) mesh.Material {
	vs := 900 + 2000*p[2]
	if d := (p[0]-0.5)*(p[0]-0.5) + (p[1]-0.5)*(p[1]-0.5) + p[2]*p[2]; d < 0.09 {
		vs = 400
	}
	return mesh.Material{Rho: 2200, Vs: vs, Vp: 1.8 * vs}
}

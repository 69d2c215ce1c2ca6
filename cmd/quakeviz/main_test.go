package main

// The binary's two run modes end to end, its -spawn argument builder, and
// where -tolerate reaches storage.
import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// freePort reserves an ephemeral loopback port for the coordinator: the
// children must all dial a concrete address, so -coord cannot use :0.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runJob runs the built binary with args under a deadline and returns its
// combined output, failing t unless it exits 0.
func runJob(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	done := make(chan []byte, 1)
	var runErr error
	go func() {
		out, err := cmd.CombinedOutput()
		runErr = err
		done <- out
	}()
	var out []byte
	select {
	case out = <-done:
	case <-time.After(4 * time.Minute):
		cmd.Process.Kill()
		t.Fatalf("%v timed out\n%s", args, <-done)
	}
	if runErr != nil {
		t.Fatalf("%v: %v\n%s", args, runErr, out)
	}
	return out
}

// TestSpawnSmoke: one command, two modes, identical frames. The binary runs
// a tiny job with every rendering stage on — the enhancement hand-off
// between two groups, the LIC underlay, lighting, RLE strips — and the
// fault policy, once as a -spawn job of rank processes on loopback TCP
// with heartbeats and healing enabled, and once in-process with the same
// flags. Both must exit 0 and write every frame, byte for byte the same.
func TestSpawnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and forks a whole multi-process job")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "quakeviz")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	const steps = 2
	flags := []string{
		"-data", "", "-groups", "2", "-ips", "1", "-renderers", "2", "-outputs", "1",
		"-steps", fmt.Sprint(steps), "-width", "48", "-height", "48",
		"-lic", "-enhance", "-lighting", "-compress", "-tolerate",
		"-coord", freePort(t), "-heartbeat", "50ms", "-reconnect", "3", "-timeout", "30s",
	}
	spawned, inproc := filepath.Join(dir, "spawned"), filepath.Join(dir, "inproc")
	out := runJob(t, bin, append([]string{"-spawn", "-out", spawned}, flags...)...)
	runJob(t, bin, append([]string{"-out", inproc}, flags...)...)
	for step := 0; step < steps; step++ {
		name := fmt.Sprintf("frame_%04d.png", step)
		a, err := os.ReadFile(filepath.Join(spawned, name))
		if err != nil || len(a) == 0 {
			t.Fatalf("missing or empty frame %s (err=%v)\njob output:\n%s", name, err, out)
		}
		b, err := os.ReadFile(filepath.Join(inproc, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the spawned job's frame differs from the in-process run's", name)
		}
	}
}

// TestSpawnChildArgs: however the parent spelled -spawn, its children parse
// it as false and take their own rank, so a child never forks a job of its
// own. No process is started.
func TestSpawnChildArgs(t *testing.T) {
	for _, spelling := range []string{"-spawn", "--spawn", "-spawn=1", "-spawn=T", "-spawn=true"} {
		args := []string{"-groups", "2", spelling, "-rank", "7", "-lic"}
		fs := flag.NewFlagSet("child", flag.ContinueOnError)
		spawn := fs.Bool("spawn", false, "")
		rank := fs.Int("rank", -1, "")
		fs.Int("groups", 0, "")
		fs.Bool("lic", false, "")
		if err := fs.Parse(childArgs(args, 3)); err != nil {
			t.Fatalf("%s: %v", spelling, err)
		}
		if *spawn || *rank != 3 || fs.NArg() != 0 {
			t.Errorf("%s: child parses spawn=%v rank=%d, %d stray arguments; want false, 3, 0", spelling, *spawn, *rank, fs.NArg())
		}
		if args[2] != spelling || len(args) != 6 {
			t.Errorf("%s: building the child's arguments changed the parent's: %q", spelling, args)
		}
	}
}

// runPipeline runs the whole pipeline in-process over st, the way main
// does after the store is opened, and returns the workload and result.
func runPipeline(st pfs.Store, tolerate bool) (*core.RealWorkload, *core.Result, error) {
	layout := core.Layout{Groups: 1, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	opts := core.DefaultOptions(32, 32)
	opts.ReadStrategy = core.ReadCollective
	opts.Faults.Tolerate = tolerate
	w, err := core.NewRealWorkload(layout, opts, st)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewPipeline(layout, w)
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	var runErr error
	mpi.RunReal(layout.WorldSize(), func(c *mpi.Comm) {
		if err := p.Run(c); err != nil {
			mu.Lock()
			runErr = errors.Join(runErr, err)
			mu.Unlock()
		}
	})
	return w, p.Res, runErr
}

// TestTolerateWiresRetryStore pins where -tolerate reaches storage: with
// the flag, a transient fault injected beneath the store the binary opens
// heals in the retry layer — below MPI-IO, which matters for the
// collective reads this runs, because core never re-runs a collective
// fetch — so frames are bit-identical to a clean run and the pipeline's
// own fault counters stay zero; without it the same fault surfaces (in the
// construction-time scan, before any rank can block on a failed peer).
func TestTolerateWiresRetryStore(t *testing.T) {
	const steps = 2
	base := openStore("", steps)
	faulty := func() *faultinject.Store {
		return faultinject.Wrap(base, faultinject.Config{
			Seed: 11, PTransient: 1,
			Match: func(name string) bool { return strings.HasPrefix(name, "step_") },
		})
	}
	ref, _, err := runPipeline(base, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	inj := faulty()
	st, retry := retryStore(inj, true, 0)
	w, res, err := runPipeline(st, true)
	if err != nil {
		t.Fatalf("-tolerate: %v", err)
	}
	defer w.Close()
	injected := inj.Stats().Transients
	if injected == 0 {
		t.Fatal("the schedule injected nothing")
	}
	if retry.Retries() != injected || retry.Faults() != injected {
		t.Errorf("retry layer: %d retries, %d faults, want %d of each", retry.Retries(), retry.Faults(), injected)
	}
	if res.FaultEvents != 0 || res.Retries != 0 || res.StaleSteps != 0 || res.DegradedFrames != 0 {
		t.Errorf("the pipeline saw faults the retry layer should have healed: %+v", res)
	}
	for step := 0; step < steps; step++ {
		if d := img.MaxAbsDiff(ref.Frame(step), w.Frame(step)); d != 0 {
			t.Errorf("step %d differs from the clean run (max abs %g)", step, d)
		}
	}

	st, retry = retryStore(faulty(), false, 0)
	if retry != nil {
		t.Error("retry layer installed without -tolerate")
	}
	if w, _, err := runPipeline(st, false); !errors.Is(err, pfs.ErrTransient) {
		t.Errorf("without -tolerate: err = %v, want the injected transient fault", err)
	} else if w != nil {
		w.Close()
	}
}

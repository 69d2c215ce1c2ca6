// Command quakebench is this repository's benchmark: one command that
// generates the datasets, runs a named workload through the real pipeline
// (batch over mpi.RunReal or loopback mpi.RunNet, or served through the
// quakeserve stack), checks every frame it produced, and prints every
// end-to-end metric (-trace 0) or every per-layer metric (-trace 1) by
// name with its unit. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md next to this file defines them.
//
//	bash bench/run.sh -workload batch_render -seed 1 -seconds 8 -trace 0
//	bash bench/run.sh                       # every workload, both ways
//	bash bench/run.sh -selfcheck            # do two sets of runs agree?
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything the run writes
// (datasets, traces) goes under .bench_build in the current directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// result is the last line a workload run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// envHeader is the first line a workload run prints: what the numbers
// were measured on.
type envHeader struct {
	Env struct {
		Workload   string      `json:"workload"`
		Trace      int         `json:"trace"`
		Seed       int64       `json:"seed"`
		Azimuth    float64     `json:"batch_azimuth_deg"`
		Seconds    int         `json:"seconds"`
		Scale      string      `json:"scale"`
		Commit     string      `json:"commit"`
		Date       string      `json:"date"`
		GOOS       string      `json:"goos"`
		GOARCH     string      `json:"goarch"`
		CPU        string      `json:"cpu"`
		NProc      int         `json:"nproc"`
		GOMAXPROCS int         `json:"gomaxprocs"`
		Go         string      `json:"go"`
		Dataset    datasetInfo `json:"dataset"`
	} `json:"env"`
}

// buildCommit is the revision the binary was built from; run.sh sets it
// at link time when the checkout is a git repository.
var buildCommit = "unknown"

const workDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload to run (a file under bench/workloads); empty runs every workload, untraced then traced")
	seed := flag.Int64("seed", 1, "seed for the generated inputs: batch camera azimuth, serve request sequences")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: tracing off, print the end-to-end metrics; 1: traced run, print the per-layer metrics and write "+workDir+"/trace/<workload>.json")
	scale := flag.String("scale", "full", "full, or smoke: a tiny mesh and a fixed handful of passes or requests")
	selfcheck := flag.Bool("selfcheck", false, "run every workload (or -workload) ten times twice over and report whether the two sets agree within BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "smoke") || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(runSelfcheck(*workload, *seconds, *scale))
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *scale))
	}
	sp, err := findSpec(*workload)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := runConfig{spec: sp, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, smoke: *scale == "smoke", workDir: workDir}
	out := runWorkload(cfg)

	var h envHeader
	e := &h.Env
	e.Workload, e.Trace, e.Seed, e.Seconds, e.Scale = sp.Name, *trace, *seed, *seconds, *scale
	e.Commit, e.Date = buildCommit, time.Now().UTC().Format(time.RFC3339)
	e.GOOS, e.GOARCH, e.CPU = runtime.GOOS, runtime.GOARCH, cpuModel()
	e.NProc, e.GOMAXPROCS, e.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	e.Dataset, e.Azimuth = out.dataset, seedAzimuth(*seed)
	printJSON(h)
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload one way and removes the datasets it
// generated.
func runWorkload(cfg runConfig) outcome {
	defer os.RemoveAll(cfg.dataRoot())
	var out outcome
	switch {
	case cfg.spec.Batch != nil && cfg.trace:
		out = runBatchTraced(cfg)
	case cfg.spec.Batch != nil:
		out = runBatch(cfg)
	case cfg.trace:
		out = runServeTraced(cfg)
	default:
		out = runServe(cfg)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "quakebench: %s: FAILED CHECK: %s\n", cfg.spec.Name, p)
	}
	for name, mv := range out.metrics {
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			fatalf("%s: metric %s is %v", cfg.spec.Name, name, mv.Value)
		}
	}
	return out
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(b))
}

// runChild runs one workload in a process of its own — so that its CPU
// time and resident memory are its own — and returns its result line.
func runChild(name string, seed int64, seconds int, trace int, scale string) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-scale", scale)
	cmd.Stderr = os.Stderr
	outb, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(outb), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload untraced, then traced, each in a child
// process, and prints one document with every metric of both runs.
func runAll(seed int64, seconds int, scale string) int {
	specs, err := loadSpecs()
	if err != nil {
		fatalf("%v", err)
	}
	type both struct {
		EndToEnd result `json:"end_to_end"`
		PerLayer result `json:"per_layer"`
	}
	doc := map[string]both{}
	code := 0
	for _, sp := range specs {
		var b both
		if b.EndToEnd, err = runChild(sp.Name, seed, seconds, 0, scale); err != nil {
			fatalf("%v", err)
		}
		if b.PerLayer, err = runChild(sp.Name, seed, seconds, 1, scale); err != nil {
			fatalf("%v", err)
		}
		if !b.EndToEnd.Correct || !b.PerLayer.Correct {
			code = 1
		}
		doc[sp.Name] = b
	}
	printJSON(map[string]any{"workloads": doc})
	return code
}

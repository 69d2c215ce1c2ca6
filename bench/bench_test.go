package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at -scale smoke, untraced and
// traced, and holds the output to BENCHMARK.json: the output checks pass,
// every declared workload and metric is emitted with a finite value and
// the declared unit, and nothing undeclared is.
func TestSmokeAllWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := loadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(bf.Workloads) {
		t.Fatalf("%d workload files, BENCHMARK.json declares %d", len(specs), len(bf.Workloads))
	}
	declared := map[string]bool{}
	for _, w := range bf.Workloads {
		declared[w.Name] = true
	}
	work := t.TempDir()
	for _, sp := range specs {
		if !declared[sp.Name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", sp.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{spec: sp, seed: 7, seconds: 1, trace: traced, smoke: true, workDir: work}
			out := runWorkload(cfg)
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", sp.Name, traced, out.failed, out.attempted, out.problems)
			}
			decls := bf.EndToEnd
			if traced {
				decls = bf.PerLayer
			}
			want := map[string]string{}
			for _, d := range decls {
				want[d.Name] = d.Unit
			}
			for name, mv := range out.metrics {
				unit, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is not declared in BENCHMARK.json", sp.Name, traced, name)
				case unit != mv.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", sp.Name, name, mv.Unit, unit)
				case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s: metric %s is %v", sp.Name, name, mv.Value)
				case !traced && mv.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", sp.Name, name, mv.Value)
				}
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q is outside the allowed alphabet", name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s traced=%v: declared metric %s was not emitted", sp.Name, traced, name)
			}
		}
		// The traced run leaves a Chrome trace-event file behind.
		b, err := os.ReadFile(filepath.Join(work, "trace", sp.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(b, &events); err != nil {
			t.Errorf("%s: trace file is not a JSON array of events: %v", sp.Name, err)
		}
		spans := 0
		for _, e := range events {
			if e["ph"] == "X" && e["name"] != "" && e["ts"] != nil && e["dur"] != nil {
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("%s: trace file has no complete events", sp.Name)
		}
	}
}

func TestParseSpecIsStrict(t *testing.T) {
	good := `{"name":"x","why":"y","dataset":"basin-m","serve":{"viewers":1,"width":64,"height":64,"plan":"explore","scrubs_per_view":1,"elevation":30}}`
	if _, err := parseSpec([]byte(good)); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"unknown key":    strings.Replace(good, `"viewers"`, `"viewrs"`, 1),
		"unknown plan":   strings.Replace(good, `explore`, `wander`, 1),
		"trailing data":  good + `{}`,
		"both kinds":     strings.Replace(good, `"serve"`, `"batch":{},"serve"`, 1),
		"no dataset":     strings.Replace(good, `basin-m`, `basin-xl`, 1),
		"two-line why":   strings.Replace(good, `"why":"y"`, `"why":"y\nz"`, 1),
		"probe on serve": strings.Replace(good, `"dataset"`, `"probes":["render"],"dataset"`, 1),
	} {
		if _, err := parseSpec([]byte(bad)); err == nil {
			t.Errorf("%s: accepted %s", name, bad)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestSeedAzimuthStaysOnSymmetricViews(t *testing.T) {
	seen := map[int]bool{}
	for seed := int64(1); seed <= 64; seed++ {
		a := seedAzimuth(seed)
		if a != seedAzimuth(seed) || a < 0 || a >= 360 {
			t.Fatalf("seed %d: azimuth %v", seed, a)
		}
		r := math.Mod(a, 90)
		if !(r >= 29 && r <= 31) && !(r >= 59 && r <= 61) {
			t.Errorf("seed %d: azimuth %v is not within a degree of 30 or 60 modulo 90", seed, a)
		}
		seen[int(a/90)*2+int(r/45)] = true
	}
	if len(seen) != 8 {
		t.Errorf("64 seeds reached %d of the 8 symmetric views", len(seen))
	}
}

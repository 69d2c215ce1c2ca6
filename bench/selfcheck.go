package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// metricDecl is one declared metric; Bound is only set for end-to-end
// metrics.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// runSelfcheck asks the question the benchmark's acceptance asks: do two
// sets of runs of the same code agree? Each set is ten runs per workload
// (three under -scale smoke), each with its own seed and in its own
// process. Per workload and end-to-end metric it prints both medians and
// quartiles, the spread (interquartile distance over the median) and how
// much worse the second median is than the first, and it fails when that
// exceeds the metric's bound. A metric whose own spread is wider than its
// bound cannot tell a regression from noise: it is reported as
// unresolved, never as unchanged, and fails the check too (except
// setup_s, whose spread the acceptance rule leaves out).
func runSelfcheck(only string, seconds int, scale string) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatalf("self-check needs BENCHMARK.json in the current directory: %v", err)
	}
	runs := 10
	if scale == "smoke" {
		runs = 3
	}
	bad := 0
	for _, wl := range bf.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := runChild(wl.Name, int64(set*runs+i+1), seconds, 0, scale)
				if err != nil {
					fatalf("%v", err)
				}
				if !res.Correct {
					fmt.Printf("%s seed %d: output check failed (%d of %d)\n", wl.Name, set*runs+i+1, res.Failed, res.Attempted)
					bad++
				}
				for name, mv := range res.Metrics {
					sets[set][name] = append(sets[set][name], mv.Value)
				}
			}
		}
		for _, d := range bf.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-14s %-17s MISSING from the output\n", wl.Name, d.Name)
				bad++
				continue
			}
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			spread := max((a3-a1)/ma, (b3-b1)/mb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "FAIL: second set worse than the first by more than the bound"
				bad++
			case spread > d.Bound && d.Name != "setup_s":
				verdict = "UNRESOLVED: spread wider than the bound"
				bad++
			case spread > d.Bound:
				verdict = "unresolved (spread wider than the bound; not part of acceptance for setup_s)"
			}
			fmt.Printf("%-14s %-17s A %.5g [%.5g, %.5g]  B %.5g [%.5g, %.5g] %s  spread %.2f%%  worse by %+.2f%%  bound %.0f%%  %s\n",
				wl.Name, d.Name, ma, a1, a3, mb, b1, b3, d.Unit, 100*spread, 100*worse, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("self-check: %d problems\n", bad)
		return 1
	}
	fmt.Println("self-check: both sets agree within every bound")
	return 0
}

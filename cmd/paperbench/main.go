// Command paperbench regenerates every table and figure of the paper's
// evaluation section. Timing figures (8, 9, 10, 12, the adaptive-fetching
// observation and the Section 5 model validation) run the pipeline at
// paper scale (100M cells, 400 MB/step, 64-128 renderers) on the
// discrete-event machine model calibrated to LeMieux; image figures (3, 4,
// 11, 13/14) run the real renderer over a generated earthquake dataset;
// the Section 5.3 I/O comparison and the compositing study run the real
// MPI-IO and compositor code paths. The image figures render on all of
// GOMAXPROCS (GOMAXPROCS=1 renders them single-threaded, pixel-identical),
// and renderpar sweeps 1, 2, 4 and that width.
//
// Usage:
//
//	paperbench               # everything
//	paperbench -fig 8        # one figure
//	paperbench -quick        # smaller sweeps (CI-friendly)
//	paperbench -images out/  # also write the figures' PNGs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	fig := flag.String("fig", "all", "figure to run: 3,4,8,9,10,11,12,13,io,slic,afetch,model,prefetch,balance,rlecomp,renderpar,all (image figures render on GOMAXPROCS threads)")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	images := flag.String("images", "", "directory for PNG output (empty = no images)")
	flag.Parse()

	type exp struct {
		name string
		run  func() (*trace.Table, error)
	}
	q := *quick
	dir := *images
	all := []exp{
		{"3", func() (*trace.Table, error) { return experiments.Fig3(q, dir) }},
		{"4", func() (*trace.Table, error) { return experiments.Fig4(q, dir) }},
		{"8", func() (*trace.Table, error) { return experiments.Fig8(q) }},
		{"9", func() (*trace.Table, error) { return experiments.Fig9(q) }},
		{"10", func() (*trace.Table, error) { return experiments.Fig10(q) }},
		{"11", func() (*trace.Table, error) { return experiments.Fig11(q, dir) }},
		{"12", func() (*trace.Table, error) { return experiments.Fig12(q) }},
		{"13", func() (*trace.Table, error) { return experiments.Fig13(q, dir) }},
		{"io", func() (*trace.Table, error) { return experiments.IOStrategies(q) }},
		{"slic", func() (*trace.Table, error) { return experiments.Compositing(q) }},
		{"afetch", func() (*trace.Table, error) { return experiments.AdaptiveFetch(q) }},
		{"model", func() (*trace.Table, error) { return experiments.ModelValidation(q) }},
		{"prefetch", func() (*trace.Table, error) { return experiments.PrefetchAblation(q) }},
		{"balance", func() (*trace.Table, error) { return experiments.LoadBalanceAblation(q) }},
		{"rlecomp", func() (*trace.Table, error) { return experiments.CompressionAblation(q) }},
		{"renderpar", func() (*trace.Table, error) { return experiments.RenderScaling(q) }},
	}
	want := strings.Split(*fig, ",")
	match := func(name string) bool {
		for _, w := range want {
			if w == "all" || w == name {
				return true
			}
		}
		return false
	}
	ran := 0
	for _, e := range all {
		if !match(e.name) {
			continue
		}
		tb, err := e.run()
		if err != nil {
			log.Fatalf("figure %s: %v", e.name, err)
		}
		if err := tb.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		log.Fatalf("no experiment matches -fig %q", *fig)
	}
}

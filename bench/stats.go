package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics, 0 for an empty sample. xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is the 50th percentile; xs is sorted in place.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the acceptance rule for this benchmark's spreads is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// mallocs returns the process-wide cumulative allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// medianSeconds times fn samples times (after one untimed warm-up call)
// and returns the median seconds per call. Direct probes use it: a median
// over a fixed call count does the same work on both sides of a later
// comparison and shrugs off a scheduler hiccup.
func medianSeconds(samples int, fn func()) float64 {
	fn()
	ts := make([]float64, samples)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's measurements by name.
type metricSet map[string]metric

// put records one measurement.
func (m metricSet) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// cpuModel returns the processor model string from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fatalf reports a failure of the benchmark itself (not of the program
// under test) and exits non-zero without printing a result.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quakebench: "+format+"\n", args...)
	os.Exit(2)
}

// currentRSSMB returns this process's resident set size in MB.
func currentRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler tracks the peak resident set size over a measured phase.
// The process-lifetime high-water mark (VmHWM) would not do: it is set by
// the solver generating the dataset during set-up, which is not the
// program under test. Starting the sampler returns set-up's freed memory
// to the operating system first, so the peak is the measured phase's own.
type rssSampler struct {
	stopc chan struct{}
	peak  chan float64
}

func startRSSSampler() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stopc: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		peak := currentRSSMB()
		for {
			select {
			case <-tick.C:
				peak = max(peak, currentRSSMB())
			case <-s.stopc:
				s.peak <- max(peak, currentRSSMB())
				return
			}
		}
	}()
	return s
}

// stop ends the sampling goroutine and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	return <-s.peak
}

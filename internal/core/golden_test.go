package core

// PR 2's end-to-end golden test: a tiny deterministic run of the whole
// stack — CSR elastodynamic solver -> ProduceDataset -> MPI-IO indexed
// reads -> distributed block render -> SLIC composite -> assembled frame —
// checksummed against a recorded constant. Any change that silently alters
// solver physics, read bytes, extraction, ray casting or compositing moves
// the checksum; intentional changes must update the constant (and say so
// in the PR). The hash is taken over the 8-bit-quantized frame, the same
// quantization the PNG writer uses, so it is insensitive to sub-quantum
// float dust but pins every visible pixel.

import (
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"repro/internal/img"
	"repro/internal/mpi"
)

// goldenFrameSum is the FNV-1a 64 checksum of the quantized golden frame,
// recorded on linux/amd64 (go1.24). The pipeline is worker-count and
// rank-schedule invariant, so the value is stable across GOMAXPROCS.
const goldenFrameSum = 0x4fbb5f0b485d5ec8

// quantizeFrame returns the 8-bit RGBA bytes of a float frame, clamped the
// way image export quantizes.
func quantizeFrame(m *img.Image) []byte {
	out := make([]byte, 4*m.W*m.H)
	for i, v := range m.Pix {
		x := v
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		out[i] = byte(x*255 + 0.5)
	}
	return out
}

// goldenSum runs the golden layout (2 groups x 1 input rank, 3 renderers,
// 1 output) over the first steps timesteps with opts and returns the
// FNV-1a 64 checksum of bytes(frame) over the frames in step order.
func goldenSum(t *testing.T, steps int, opts Options, bytes func(*img.Image) []byte) uint64 {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		// The golden constants were recorded on amd64; other architectures
		// may fuse multiply-adds (FMA) and move low-order float bits.
		t.Skipf("golden frame recorded on amd64, running on %s", runtime.GOARCH)
	}
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}
	w, res := runReal(t, store, l, opts)
	if res.Frames != steps {
		t.Fatalf("frames = %d, want %d", res.Frames, steps)
	}
	h := fnv.New64a()
	for step := 0; step < steps; step++ {
		frame := w.Frame(step)
		if frame == nil {
			t.Fatalf("missing frame %d", step)
		}
		h.Write(bytes(frame))
	}
	return h.Sum64()
}

func TestGoldenPipelineFrame(t *testing.T) {
	if got := goldenSum(t, 3, smallOpts(48, 48), quantizeFrame); got != goldenFrameSum {
		t.Errorf("golden pipeline checksum = %#x, want %#x\n"+
			"If this change is intentional (solver, I/O, render or compositing math changed on purpose), update goldenFrameSum.", got, goldenFrameSum)
	}
}

// goldenLICFrameSum is the FNV-1a 64 checksum of the golden run with the
// surface-LIC underlay on, recorded on linux/amd64 (go1.24) at the commit
// before PR 20 touched any LIC kernel. Unlike goldenFrameSum it is taken
// over the frames' exact float32 bit patterns: the underlay path
// (quadtree resample, convolution, colorize, wire, stretch-and-under) is
// held bit-identical across commits, not just visibly identical.
const goldenLICFrameSum = 0x21dc63ce43e71213

// frameBits returns the little-endian IEEE-754 bytes of a float frame.
func frameBits(m *img.Image) []byte { return mpi.AppendFloat32s(nil, m.Pix) }

// TestGoldenLICFrame pins the LIC underlay across commits the way
// TestGoldenPipelineFrame pins the volume rendering: a non-square frame
// over a smaller square LIC image, so the resample, the convolution, the
// colorize and the stretch under the frame all run off the identity. Six
// steps, because the source needs three before the surface moves faster
// than the stagnation threshold: the run covers stagnant (pure noise),
// partly flowing and fully flowing fields.
func TestGoldenLICFrame(t *testing.T) {
	opts := smallOpts(48, 40)
	opts.LIC = true
	opts.LICSize = 32
	if got := goldenSum(t, 6, opts, frameBits); got != goldenLICFrameSum {
		t.Errorf("golden LIC checksum = %#x, want %#x\n"+
			"If this change is intentional (the underlay's math changed on purpose), update goldenLICFrameSum.", got, goldenLICFrameSum)
	}
}

// TestGoldenFrameWorkerInvariant reruns the golden configuration with a
// different worker setting and layout split and demands bit-identical
// frames — the determinism claim the golden constant rests on.
func TestGoldenFrameWorkerInvariant(t *testing.T) {
	store := buildDataset(t, 2)
	base := smallOpts(40, 40)
	ref, _ := runReal(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, base)
	alt := base
	alt.Workers = 3
	got, _ := runReal(t, store, Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, alt)
	for step := 0; step < 2; step++ {
		a, b := ref.Frame(step), got.Frame(step)
		if a == nil || b == nil {
			t.Fatalf("missing frame %d", step)
		}
		if d := img.MaxAbsDiff(a, b); d != 0 {
			t.Errorf("step %d: frame differs across layout/workers (max abs %g)", step, d)
		}
	}
}

// TestScratchReuseInvariant extends the worker/layout-invariance claim to
// PR 3's steady-state reuse paths: with enough timesteps that every pooled
// buffer (wire payloads, share staging, compositor scratch, strip
// canvases, LIC state) is on its second or later life, frames must stay
// bit-identical across layouts, worker counts, compositors and wire
// compression — and RLE compression itself must not move a single bit.
func TestScratchReuseInvariant(t *testing.T) {
	const steps = 4 // >= 2 steps per input rank in every layout below
	store := buildDataset(t, steps)
	base := smallOpts(40, 40)
	base.LIC = true
	base.LICSize = 32
	ref, _ := runReal(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, base)
	for _, tc := range []struct {
		name string
		l    Layout
		mod  func(*Options)
	}{
		{"compressed", Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1},
			func(o *Options) { o.Compress = true }},
		{"directsend", Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1},
			func(o *Options) { o.Compositor = CompositeDirectSend }},
		{"directsend-compressed", Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 2},
			func(o *Options) { o.Compositor = CompositeDirectSend; o.Compress = true }},
		{"relayout-workers", Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 2},
			func(o *Options) { o.Workers = 3 }},
		{"compressed-relayout", Layout{Groups: 2, IPsPerGroup: 2, Renderers: 2, Outputs: 1},
			func(o *Options) { o.Compress = true; o.ReadStrategy = ReadCollective }},
	} {
		opts := base
		tc.mod(&opts)
		got, res := runReal(t, store, tc.l, opts)
		if res.Frames != steps {
			t.Fatalf("%s: %d frames, want %d", tc.name, res.Frames, steps)
		}
		for step := 0; step < steps; step++ {
			a, b := ref.Frame(step), got.Frame(step)
			if a == nil || b == nil {
				t.Fatalf("%s: missing frame %d", tc.name, step)
			}
			if d := img.MaxAbsDiff(a, b); d != 0 {
				t.Errorf("%s: step %d differs from reference (max abs %g)", tc.name, step, d)
			}
		}
	}
}

// TestLPTBalanceMatchesSelectionSort: the sort-based longest-processing-
// time assignment must reach exactly the max load of the legacy O(n^2)
// selection-sort ordering — the greedy placement only depends on the
// descending size sequence, which both produce.
func TestLPTBalanceMatchesSelectionSort(t *testing.T) {
	store := buildDataset(t, 1)
	for _, renderers := range []int{1, 2, 3, 5} {
		opts := smallOpts(32, 32)
		l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: renderers, Outputs: 1}
		w, err := NewRealWorkload(l, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		nb := len(w.ds.blockCells)
		// Legacy ordering: PR 1's repeated-swap selection sort, verbatim.
		order := make([]int, nb)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < nb; i++ {
			for j := i + 1; j < nb; j++ {
				if len(w.ds.blockCells[order[j]]) > len(w.ds.blockCells[order[i]]) {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		if !sort.SliceIsSorted(order, func(a, b int) bool {
			return len(w.ds.blockCells[order[a]]) > len(w.ds.blockCells[order[b]])
		}) {
			t.Fatal("legacy selection sort did not produce descending sizes")
		}
		legacyLoad := make([]int, renderers)
		for _, bi := range order {
			best := 0
			for r := 1; r < renderers; r++ {
				if legacyLoad[r] < legacyLoad[best] {
					best = r
				}
			}
			legacyLoad[best] += len(w.ds.blockCells[bi])
		}
		newLoad := make([]int, renderers)
		total := 0
		for r, blocks := range w.ds.rblocks {
			for _, bi := range blocks {
				newLoad[r] += len(w.ds.blockCells[bi])
				total += len(w.ds.blockCells[bi])
			}
		}
		cells := 0
		for bi := range w.ds.blockCells {
			cells += len(w.ds.blockCells[bi])
		}
		if total != cells {
			t.Fatalf("renderers own %d cells, mesh has %d", total, cells)
		}
		if got, want := maxOf(newLoad), maxOf(legacyLoad); got != want {
			t.Errorf("renderers=%d: LPT max load %d, legacy max load %d (%v vs %v)",
				renderers, got, want, newLoad, legacyLoad)
		}
	}
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

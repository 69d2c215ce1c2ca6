package core

// PR 4's hot-path benchmarks: one input-rank fetch step (steady Into chain
// vs the retained allocating chain) and the frame-ring assemble canvas
// (acquire/release vs a fresh allocation per frame). Both run in the
// `-benchtime 1x` smoke of `make ci` so they cannot bit-rot.

import (
	"testing"

	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/quake"
	"repro/internal/render"
)

// collectiveFetchWorkload is quakebench's batch_io shape at test scale: the
// two IPs of one group reading collectively through their committed views,
// adaptive fetch, temporal enhancement on (so every step also reads the
// previous object independently through the same view).
func collectiveFetchWorkload(tb testing.TB, steps int, mod func(*Options)) (*RealWorkload, Layout) {
	tb.Helper()
	opts := smallOpts(32, 32)
	opts.ReadStrategy, opts.AdaptiveFetch, opts.Enhancement = ReadCollective, true, true
	if mod != nil {
		mod(&opts)
	}
	l := Layout{Groups: 1, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
	w, err := NewRealWorkload(l, opts, buildDataset(tb, steps))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	return w, l
}

// BenchmarkFetchStep measures one full input-rank fetch of a timestep
// (open, contiguous read, decode, magnitude, quantize, scatter into the
// share). `steady` is the PR 4 allocation-free path through Fetch; `legacy`
// is the pre-PR-4 chain rebuilt verbatim on the same store; `collective` is
// a lock-step round of both IPs of collectiveFetchWorkload, the path whose
// view and two-phase plan are computed once and replayed.
func BenchmarkFetchStep(b *testing.B) {
	const steps = 4
	store := buildDataset(b, steps)
	opts := smallOpts(32, 32)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("steady", func(b *testing.B) {
		mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
			if c.Rank() != 0 {
				return
			}
			if _, err := w.Fetch(c, 0, 0, 1); err != nil { // warm buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Fetch(c, i%steps, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("collective", func(b *testing.B) {
		w, l := collectiveFetchWorkload(b, steps, nil)
		mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
			part := c.Rank()
			if part >= l.IPsPerGroup {
				return
			}
			fetch := func(i int) {
				if _, err := w.Fetch(c, 1+i%(steps-1), part, l.IPsPerGroup); err != nil {
					b.Error(err)
				}
			}
			for i := 0; i < steps; i++ { // warm every step object's path
				fetch(i)
			}
			if part == 0 {
				b.ReportAllocs()
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				fetch(i)
			}
		})
	})
	b.Run("legacy", func(b *testing.B) {
		mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
			if c.Rank() != 0 {
				return
			}
			n := w.ds.meta.NumNodes
			share := make([]uint8, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := mpiio.Open(c, store, quake.StepObject(i%steps))
				if err != nil {
					b.Fatal(err)
				}
				raw := make([]byte, n*quake.BytesPerNode)
				if err := f.ReadContigInto(0, raw); err != nil {
					b.Fatal(err)
				}
				q := render.QuantizeInto(nil, stepMagnitude(b, raw), 0, w.ds.vmax)
				copy(share, q)
			}
		})
	})
}

// BenchmarkFrameRing measures the per-frame assemble canvas: `ring` cycles
// one canvas through Acquire (which clears) and Release, `fresh` allocates
// a new frame per step as the pre-PR-4 Assemble did.
func BenchmarkFrameRing(b *testing.B) {
	const w, h = 512, 512
	strip := img.New(w, h/2)
	paste := func(frame *img.Image) {
		copy(frame.Pix[:len(strip.Pix)], strip.Pix)
		copy(frame.Pix[len(strip.Pix):], strip.Pix)
	}
	b.Run("ring", func(b *testing.B) {
		r := NewFrameRing(2, w, h)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame := r.Acquire(w, h)
			paste(frame)
			r.Release(frame)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame := img.New(w, h)
			paste(frame)
		}
	})
}

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

// BenchmarkFetchStep measures one full input-rank fetch of a timestep
// (open, contiguous read, decode, magnitude, quantize, scatter into the
// share). `steady` is the PR 4 allocation-free path through Fetch; `legacy`
// is the pre-PR-4 chain rebuilt verbatim on the same store.
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

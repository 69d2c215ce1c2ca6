package core

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/compositor"
	"repro/internal/img"
	"repro/internal/mpi"
)

// NewFrameRing returns a ring preloaded with depth w×h canvases, for the
// tests and benchmarks of the ring itself (a workload's ring starts empty).
func NewFrameRing(depth, w, h int) *FrameRing {
	r := &FrameRing{free: make([]*img.Image, 0, depth)}
	for i := 0; i < depth; i++ {
		r.free = append(r.free, img.New(w, h))
	}
	return r
}

// pasteStrip shows one strip alone as the workload keeps and reads frames:
// stitched into a frame-wide stream as Assemble stitches it (stitchStrip),
// then pasted over frame as Frame pastes a stream (compositor.PasteRLE over
// every row). A refused strip touches nothing. The stream starts in a
// buffer on the stack, so pasting a small strip allocates nothing.
func pasteStrip(frame *img.Image, sp *stripPayload) error {
	var buf [1 << 10]byte
	s := compositor.NewStitch(frame.W, frame.H)
	stream, err := stitchStrip(&s, buf[:0], sp)
	if err != nil {
		return err
	}
	return compositor.PasteRLE(frame, compositor.Strip{H: frame.H}, stream)
}

// refAssembler wraps the workload under test's Assemble. Before the
// workload stitches a step, it builds that step's frame the way frames were
// assembled in place before they were kept as streams — a cleared canvas,
// each strip pasted over it in arrival order (a raw canvas copied whole,
// every pixel of its rows; a stream through compositor.PasteRLE), then the
// LIC underlay composited under it (img.Image.Under of frozenStretchInto).
// It hands the strips on in reverse order, bottom strip first, so the
// workload must sort them; and it can first drop the middle strip (by
// rows, so the strip above it ends where a gap begins) or the underlay of
// one step, as a lost renderer or LIC rank would.
type refAssembler struct {
	*RealWorkload
	t                    *testing.T
	dropStrip, dropUnder int // the step to drop them at; -1: none

	mu  sync.Mutex
	ref map[int]*img.Image
}

func (a *refAssembler) Assemble(c *mpi.Comm, t int, strips []mpi.Message, lic *mpi.Message) error {
	slices.SortFunc(strips, func(x, y mpi.Message) int {
		return y.Data.(*stripPayload).Strip.Y0 - x.Data.(*stripPayload).Strip.Y0
	})
	if mid := len(strips) / 2; t == a.dropStrip {
		strips[mid].Data.(*stripPayload).release()
		strips[mid].Data = nil
	}
	if t == a.dropUnder && lic != nil {
		lic.Data.(*licPayload).release()
		lic.Data = nil
	}
	ref := img.New(a.opts.Width, a.opts.Height)
	for _, s := range strips {
		sp, ok := s.Data.(*stripPayload)
		switch {
		case !ok:
		case sp.compressed:
			if err := compositor.PasteRLE(ref, sp.Strip, sp.rle); err != nil {
				a.t.Errorf("step %d: reference paste: %v", t, err)
			}
		case sp.Strip.H > 0:
			copy(ref.Pix[4*sp.Strip.Y0*ref.W:], sp.Img.Pix)
		}
	}
	if lic != nil && lic.Data != nil {
		var stretch img.Image
		ref.Under(frozenStretchInto(&stretch, &lic.Data.(*licPayload).Img, ref.W, ref.H))
	}
	a.mu.Lock()
	a.ref[t] = ref
	a.mu.Unlock()
	return a.RealWorkload.Assemble(c, t, strips, lic)
}

// TestFrameStoreMatchesReference: a frame kept as its stitched stream and
// underlay copy, and built when read, is the frame assembly in place made,
// in every float bit (math.Float32bits, which tells -0 from +0), on RunReal
// and RunNet, for raw and compressed strips handed to Assemble bottom
// strip first, with and without a LIC underlay, on two output ranks, and
// for degraded frames under the fault policy: one missing its middle
// strip, one whose underlay was dropped. The flags are the ones those
// drops call for.
func TestFrameStoreMatchesReference(t *testing.T) {
	const steps = 4
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 2}
	for _, tc := range []struct {
		name          string
		compress, lic bool
		degrade       bool
	}{
		{name: "raw"},
		{name: "rle", compress: true},
		{name: "raw-lic", lic: true},
		{name: "rle-lic", compress: true, lic: true},
		{name: "raw-degraded", lic: true, degrade: true},
		{name: "rle-degraded", compress: true, lic: true, degrade: true},
	} {
		for _, over := range []struct {
			name string
			run  transportRun
		}{{"real", overReal}, {"net", overNet}} {
			t.Run(tc.name+"/"+over.name, func(t *testing.T) {
				opts := smallOpts(48, 40)
				dropStrip, dropUnder := -1, -1
				if tc.degrade {
					opts = tolerant(48, 40)
					dropStrip, dropUnder = 1, 2
				}
				opts.Compress, opts.LIC, opts.LICSize = tc.compress, tc.lic, 24
				w, err := NewRealWorkload(l, opts, store)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Close)
				a := &refAssembler{RealWorkload: w, t: t, dropStrip: dropStrip, dropUnder: dropUnder, ref: map[int]*img.Image{}}
				runWorkloadOver(t, w, a, l, over.run, nil)
				lit := 0
				for step := 0; step < steps; step++ {
					got, want := w.Frame(step), a.ref[step]
					if got == nil || want == nil {
						t.Fatalf("step %d: frame %v, reference %v", step, got != nil, want != nil)
					}
					for i := range want.Pix {
						if g, r := math.Float32bits(got.Pix[i]), math.Float32bits(want.Pix[i]); g != r {
							t.Fatalf("step %d: float %d has bits %08x, the reference %08x", step, i, g, r)
						}
					}
					for i := 3; i < len(want.Pix); i += 4 {
						if want.Pix[i] != 0 {
							lit++
						}
					}
					if deg := step == dropStrip || step == dropUnder; w.FrameDegraded(step) != deg {
						t.Errorf("step %d: degraded = %v, want %v", step, w.FrameDegraded(step), deg)
					}
				}
				if lit == 0 {
					t.Error("no frame has a lit pixel: the comparison shows nothing")
				}
			})
		}
	}
}

// TestFrameStoreHoldsNoCanvas pins what frames cost before they are read.
// After a full 24-step pass at 512², the workload holds every frame as a
// stream and has allocated no canvas: its ring — where every canvas a
// frame is read into comes from — has made no img.New call and holds
// nothing. A consumer that then reads and releases the frames one at a
// time is served from one canvas: the ring makes exactly one img.New call
// and never holds more than that canvas.
func TestFrameStoreHoldsNoCanvas(t *testing.T) {
	const steps, size = 24, 512
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, res, _ := runPipelineOver(t, store, l, smallOpts(size, size), overReal, nil)
	if res.Frames != steps {
		t.Fatalf("%d frames, want %d", res.Frames, steps)
	}
	if w.ring.made != 0 || len(w.ring.free) != 0 {
		t.Fatalf("after the pass the ring has made %d canvases and holds %d, want none", w.ring.made, len(w.ring.free))
	}
	streams := 0
	for step, f := range w.frames {
		if f.img != nil {
			t.Errorf("step %d has a canvas before it was read", step)
		}
		streams += len(f.rle)
	}
	t.Logf("%d frames kept in %d stream bytes; as canvases they would take %d", steps, streams, steps*16*size*size)
	for step := 0; step < steps; step++ {
		if w.Frame(step) == nil {
			t.Fatalf("step %d has no frame", step)
		}
		if w.ring.made != 1 || len(w.ring.free) != 0 {
			t.Fatalf("reading step %d: the ring has made %d canvases and holds %d, want 1 made, lent out", step, w.ring.made, len(w.ring.free))
		}
		w.ReleaseFrame(step)
		if len(w.ring.free) != 1 {
			t.Fatalf("after releasing step %d the ring holds %d canvases, want 1", step, len(w.ring.free))
		}
	}
}

// TestFrameStoreReadDuringRun: a consumer reads and releases each frame as
// soon as it is assembled, while the two output ranks go on assembling
// later steps, as Frame allows (make ci runs it under the race detector).
// Every frame it reads is bit-identical to the frame a run read afterwards
// gives, and one canvas serves them all.
func TestFrameStoreReadDuringRun(t *testing.T) {
	const steps = 6
	store := buildDataset(t, steps)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 2}
	opts := smallOpts(64, 48)
	opts.Compress, opts.LIC, opts.LICSize = true, true, 24
	ref, _, _ := runPipelineOver(t, store, l, opts, overReal, nil)
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	done := make(chan error, 1)
	go func() {
		_, _, err := runOver(w, l, overReal)
		done <- err
	}()
	finished := false
	for step := 0; step < steps; {
		if m := w.Frame(step); m != nil {
			if !bytes.Equal(frameBits(m), frameBits(ref.Frame(step))) {
				t.Errorf("step %d read during the run differs from the reference run's", step)
			}
			w.ReleaseFrame(step)
			step++
			continue
		}
		if finished {
			t.Fatalf("the run ended without frame %d", step)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		case <-time.After(100 * time.Microsecond):
		}
	}
	if !finished {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if w.ring.made != 1 {
		t.Errorf("the ring made %d canvases for one reader releasing as it goes, want 1", w.ring.made)
	}
}

// BenchmarkFrameMaterialize times the first Frame(t) of a frame: the work
// that moved from Assemble to the frame's first read — a ring canvas
// cleared, the stream pasted, the LIC underlay composited under it — on
// BenchmarkAssemble's 512² frame of the golden scene in four strips, raw
// and run-length, without and with a 128² underlay. Assemble and
// ReleaseFrame run with the timer stopped, so the canvas is the ring's
// one canvas each time.
func BenchmarkFrameMaterialize(b *testing.B) {
	shapes, restore := hopBenchStrips(b)
	store := buildDataset(b, 1)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 4, Outputs: 1}
	for _, lic := range []bool{false, true} {
		for _, mode := range []string{"raw", "rle"} {
			name, set := mode, shapes[mode]
			if lic {
				name += "+lic128"
			}
			b.Run(name, func(b *testing.B) {
				opts := smallOpts(512, 512)
				opts.LIC, opts.LICSize = lic, 128
				w, err := NewRealWorkload(l, opts, store)
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				var licMsg *mpi.Message
				if lic {
					lp := &licPayload{Img: *img.New(128, 128)}
					for i := range lp.Img.Pix {
						lp.Img.Pix[i] = 0.5
					}
					licMsg = &mpi.Message{Data: lp}
				}
				strips := make([]mpi.Message, len(set))
				b.ReportAllocs()
				mpi.RunReal(1, func(c *mpi.Comm) {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						w.ReleaseFrame(0)
						restore(set)
						for k, sp := range set {
							strips[k] = mpi.Message{Src: l.RenderRank(k), Data: sp}
						}
						if err := w.Assemble(c, 0, strips, licMsg); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						if w.Frame(0) == nil {
							b.Fatal("no frame")
						}
					}
				})
			})
		}
	}
}

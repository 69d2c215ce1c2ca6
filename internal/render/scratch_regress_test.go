package render

// PR 5's regression harness for the renderer-side scratch: a steady-state
// rendered frame through RenderParallelWith — extraction, projection, tile
// ray casting, strip compositing, fragment release — must allocate nothing
// for any worker count, the scratch path must stay pixel-exact against the
// serial reference (TestRenderParallelWithScratchMatchesSerial covers
// that), and the fragment pool must honor the consumer-release contract:
// fragments a consumer holds across frames keep their pixels, at the cost
// of fresh fragments for the next frame.

import (
	"testing"

	"repro/internal/img"
	"repro/internal/workers"
)

// TestRenderFrameAllocFree is the PR 5 acceptance gate for the renderer:
// with an ExtractScratch (and its embedded RenderScratch), a steady-state
// fixed-view frame is exactly 0 allocs/op end-to-end — serially and
// dispatching on a persistent worker pool, on the dense field and on the
// sparse one and the surface layer, where every frame rebuilds the
// empty-region tables and occupied boxes after extraction reset them and
// casts clipped rays over trimmed pixel loops.
func TestRenderFrameAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	m := gradedRenderMesh(t)
	dense, sparse, surface := waveField(m), centeredBall(m), surfaceLayer(m)
	level := m.Tree.MaxDepth()
	for _, tc := range []struct {
		name    string
		f       []float32
		workers int
		pooled  bool
	}{
		{"serial", dense, 1, false},
		{"pooled-3", dense, 3, true},
		{"sparse-serial", sparse, 1, false},
		{"sparse-pooled-3", sparse, 3, true},
		{"surface-serial", surface, 1, false},
		{"surface-pooled-3", surface, 3, true},
	} {
		f := tc.f
		t.Run(tc.name, func(t *testing.T) {
			var scratch ExtractScratch
			if tc.pooled {
				p := workers.New(tc.workers)
				defer p.Close()
				scratch.Pool = p
			}
			view := DefaultView(64, 64)
			rr := NewRenderer()
			frame := func() {
				if _, err := RenderParallelWith(rr, m, f, 1, level, &view, tc.workers, &scratch); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ { // warm every pool and cache
				frame()
			}
			if avg := testing.AllocsPerRun(20, frame); avg != 0 {
				t.Errorf("steady-state %s frame allocates %v, want 0", tc.name, avg)
			}
		})
	}
}

// TestRenderScratchFragmentOwnership pins the fragment pool's consumer-
// release contract: fragments not released after a frame keep their pixels
// untouched while the next frame renders through fresh structs, and
// releasing them returns the structs to the scratch's pool for reuse.
func TestRenderScratchFragmentOwnership(t *testing.T) {
	m := gradedRenderMesh(t)
	fields := [][]float32{waveField(m), constField(m, 0.6)}
	level := m.Tree.MaxDepth()
	var rs RenderScratch
	rr := NewRenderer()
	view := DefaultView(48, 48)
	var bds []*BlockData
	for _, b := range m.Tree.Blocks(1) {
		bd, err := ExtractBlockData(m, fields[0], b, level)
		if err != nil {
			t.Fatal(err)
		}
		bds = append(bds, bd)
	}
	held := append([]*Fragment(nil), rr.RenderBlocksWith(bds, &view, 2, &rs)...)
	var snaps []*img.Image
	var kept []*Fragment
	for _, fr := range held {
		if fr != nil {
			kept = append(kept, fr)
			snaps = append(snaps, fr.Img.Clone())
		}
	}
	if len(kept) == 0 {
		t.Fatal("no visible fragments rendered")
	}
	// Second frame with different data, fragments of frame 1 still held:
	// the pool is empty, so the renderer must take fresh structs, leaving
	// the held fragments' pixels intact.
	for i, b := range m.Tree.Blocks(1) {
		if err := ExtractBlockDataInto(bds[i], m, fields[1], b, level); err != nil {
			t.Fatal(err)
		}
	}
	frags2 := append([]*Fragment(nil), rr.RenderBlocksWith(bds, &view, 2, &rs)...)
	for _, f2 := range frags2 {
		for _, f1 := range kept {
			if f2 == f1 {
				t.Fatal("held fragment was reused before its consumer released it")
			}
		}
	}
	for i, fr := range kept {
		if d := img.MaxAbsDiff(fr.Img, snaps[i]); d != 0 {
			t.Errorf("held fragment %d pixels changed under the next frame (max abs %g)", i, d)
		}
	}
	// Release both frames; the next frame must draw structs from the pool.
	ReleaseFragments(kept)
	ReleaseFragments(frags2)
	frags3 := rr.RenderBlocksWith(bds, &view, 2, &rs)
	reused := 0
	for _, f3 := range frags3 {
		if f3 == nil {
			continue
		}
		for _, f1 := range kept {
			if f3 == f1 {
				reused++
			}
		}
		for _, f2 := range frags2 {
			if f3 == f2 {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Error("released fragments were never reused by a later frame")
	}
	ReleaseFragments(frags3)
}

// BenchmarkRenderFrame measures one 64x64 frame of the graded mesh:
// `scratch` is the steady-state PR 5 path (must report 0 allocs/op),
// `scratch-sparse` the same over the sparse field (most samples leapt),
// `fresh` re-allocates the per-frame state as PR 4 did.
func BenchmarkRenderFrame(b *testing.B) {
	m := gradedRenderMesh(b)
	f := waveField(m)
	level := m.Tree.MaxDepth()
	rr := NewRenderer()
	view := DefaultView(64, 64)
	for _, tc := range []struct {
		name string
		f    []float32
	}{{"scratch", f}, {"scratch-sparse", centeredBall(m)}} {
		b.Run(tc.name, func(b *testing.B) {
			var scratch ExtractScratch
			scratch.Pool = workers.New(2)
			defer scratch.Pool.Close()
			if _, err := RenderParallelWith(rr, m, tc.f, 1, level, &view, 2, &scratch); err != nil {
				b.Fatal(err) // warm the scratch so the loop is steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RenderParallelWith(rr, m, tc.f, 1, level, &view, 2, &scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RenderParallelWith(rr, m, f, 1, level, &view, 2, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

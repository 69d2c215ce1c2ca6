package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/img"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/pool"
	"repro/internal/quake"
	"repro/internal/render"
)

func TestMissingStepFileFailsAtConstruction(t *testing.T) {
	store := buildDataset(t, 3)
	// Delete a middle step by replacing the store's knowledge of it: build
	// a new store missing step 1.
	broken := pfs.NewMemStore()
	copyObj(t, store, broken, quake.MeshObject)
	copyObj(t, store, broken, quake.MetaObject)
	copyObj(t, store, broken, quake.StepObject(0))
	copyObj(t, store, broken, quake.StepObject(2))
	_, err := NewRealWorkload(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1},
		smallOpts(16, 16), broken)
	if err == nil {
		t.Fatal("workload constructed despite missing step 1")
	}
	if !strings.Contains(err.Error(), "step") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestTruncatedStepFileFailsCleanly(t *testing.T) {
	store := buildDataset(t, 2)
	// Truncate step 1 to half its size.
	n, err := store.Size(quake.StepObject(1))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n/2)
	if err := store.ReadAt(nil, quake.StepObject(1), 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(quake.StepObject(1), buf); err != nil {
		t.Fatal(err)
	}
	// Construction scans the range and reads full steps: it must error, not
	// panic or hang.
	_, err = NewRealWorkload(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1},
		smallOpts(16, 16), store)
	if err == nil {
		t.Fatal("truncated step accepted")
	}
}

func TestCorruptMeshFailsCleanly(t *testing.T) {
	store := buildDataset(t, 1)
	raw := make([]byte, 40)
	if err := store.ReadAt(nil, quake.MeshObject, 0, raw); err != nil {
		t.Fatal(err)
	}
	store.Write(quake.MeshObject, raw[:17]) // truncated mid-header
	_, err := NewRealWorkload(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1},
		smallOpts(16, 16), store)
	if err == nil {
		t.Fatal("corrupt mesh accepted")
	}
}

func TestMetaMeshMismatchRejected(t *testing.T) {
	store := buildDataset(t, 1)
	meta, err := quake.ReadMeta(store)
	if err != nil {
		t.Fatal(err)
	}
	meta.NumNodes += 7
	if err := quake.WriteMeta(store, meta); err != nil {
		t.Fatal(err)
	}
	_, err = NewRealWorkload(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1},
		smallOpts(16, 16), store)
	if err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Fatalf("node-count mismatch not caught: %v", err)
	}
}

// TestMetaStepClaimBoundsAllocation: a meta object claiming 1<<22 steps
// over a store that holds two fails naming the last step it claims,
// before the claim sizes anything. Sized by the claim, the step-name
// table and the scan's per-step peaks came to 1.3 GB before the scan
// failed at step 2.
func TestMetaStepClaimBoundsAllocation(t *testing.T) {
	store := buildDataset(t, 2)
	meta, err := quake.ReadMeta(store)
	if err != nil {
		t.Fatal(err)
	}
	meta.NumSteps = 1 << 22
	if err := quake.WriteMeta(store, meta); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewDataset(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}, smallOpts(16, 16), store)
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("scanning step %d", 1<<22-1); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err %v, want one mentioning %q", err, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Errorf("refusing the claim allocated %d bytes", grew)
	}
}

// TestAssembleRejectsForeignPayloads: a strip or LIC message carrying
// anything but the pipeline's own payload type is an error naming the type,
// not a failed assertion that takes the output rank down.
func TestAssembleRejectsForeignPayloads(t *testing.T) {
	store := buildDataset(t, 1)
	opts := smallOpts(16, 16)
	opts.LIC = true
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mpi.RunReal(1, func(c *mpi.Comm) {
		err := w.Assemble(c, 0, []mpi.Message{{Src: l.RenderRank(0), Data: []float32{1}}}, nil)
		if err == nil || !strings.Contains(err.Error(), "unexpected strip payload []float32") {
			t.Errorf("foreign strip payload: %v", err)
		}
		err = w.Assemble(c, 0, nil, &mpi.Message{Data: "not an underlay"})
		if err == nil || !strings.Contains(err.Error(), "unexpected LIC payload string") {
			t.Errorf("foreign LIC payload: %v", err)
		}
	})
}

// TestAssembleWrongSizedUnderlay: a LIC underlay of another size than the
// workload's — over RunNet its size comes off the wire — is, under the
// fault policy, a dropped one: the frame is stored without it and flagged.
// Without the policy it fails the step. Either way the payload goes back to
// its pool, and a failed step hands its canvas back to the frame ring, as
// does a step failed by a foreign strip.
func TestAssembleWrongSizedUnderlay(t *testing.T) {
	store := buildDataset(t, 1)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}
	for _, tolerate := range []bool{true, false} {
		opts := smallOpts(16, 16)
		opts.LIC, opts.Faults.Tolerate = true, tolerate
		w, err := NewRealWorkload(l, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var underlays pool.Pool[licPayload]
		lp := underlays.Get()
		lp.owner, lp.Img = &underlays, *img.New(w.licSize()/2, w.licSize())
		canvases := len(w.ring.free)
		mpi.RunReal(1, func(c *mpi.Comm) {
			err := w.Assemble(c, 0, nil, &mpi.Message{Data: lp})
			if tolerate {
				if err != nil {
					t.Fatalf("tolerant assemble of a wrong-sized underlay: %v", err)
				}
				if w.Frame(0) == nil || !w.FrameDegraded(0) {
					t.Errorf("tolerant: frame %v, degraded %v; want a flagged frame", w.Frame(0) != nil, w.FrameDegraded(0))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "LIC underlay") {
				t.Errorf("strict assemble of a wrong-sized underlay: %v", err)
			}
			if w.Frame(0) != nil {
				t.Error("strict: a failed step stored its frame")
			}
			if got := len(w.ring.free); got != canvases {
				t.Errorf("strict: the ring holds %d canvases after the failed step, want %d", got, canvases)
			}
			if err := w.Assemble(c, 1, []mpi.Message{{Data: "not a strip"}}, nil); err == nil {
				t.Error("strict: foreign strip accepted")
			}
			if got := len(w.ring.free); got != canvases {
				t.Errorf("strict: the ring holds %d canvases after a foreign strip, want %d", got, canvases)
			}
		})
		if underlays.Get() != lp {
			t.Errorf("tolerate=%v: the wrong-sized underlay was not released", tolerate)
		}
	}
}

func TestSingleRankPerRole(t *testing.T) {
	// The minimal world: 1 input, 1 renderer, 1 output still works.
	store := buildDataset(t, 2)
	opts := smallOpts(24, 24)
	w, res, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}, opts, overReal, nil)
	if res.Frames != 2 || w.Frame(1) == nil {
		t.Fatalf("minimal layout failed: %d frames", res.Frames)
	}
}

func TestManyMoreRenderersThanBlocks(t *testing.T) {
	// More renderers than blocks: some get no work but must still take part
	// in compositing and credits.
	store := buildDataset(t, 2)
	opts := smallOpts(24, 24)
	opts.BlockLevel = 1 // at most 8 blocks
	w, res, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 12, Outputs: 1}, opts, overReal, nil)
	if res.Frames != 2 || w.Frame(1) == nil {
		t.Fatalf("oversubscribed renderers failed: %d frames", res.Frames)
	}
}

func TestMoreIPsThanSteps(t *testing.T) {
	// Groups beyond the step count idle cleanly.
	store := buildDataset(t, 2)
	opts := smallOpts(24, 24)
	w, res, _ := runPipelineOver(t, store, Layout{Groups: 5, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, opts, overReal, nil)
	if res.Frames != 2 || w.Frame(1) == nil {
		t.Fatalf("excess groups failed: %d frames", res.Frames)
	}
}

func TestMaxStepsLimits(t *testing.T) {
	store := buildDataset(t, 4)
	opts := smallOpts(24, 24)
	opts.MaxSteps = 2
	w, res, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, opts, overReal, nil)
	if res.Frames != 2 {
		t.Errorf("frames = %d, want 2", res.Frames)
	}
	if w.Frame(3) != nil {
		t.Error("frame beyond MaxSteps produced")
	}
}

func TestFixedVMaxSkipsScan(t *testing.T) {
	store := buildDataset(t, 2)
	opts := smallOpts(16, 16)
	opts.FixedVMax = 0.123
	w, err := NewRealWorkload(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	if w.VMax() != 0.123 {
		t.Errorf("vmax = %v", w.VMax())
	}
}

func TestPrefetchDepthZeroStillCorrect(t *testing.T) {
	// Depth 0 (no overlap) must produce identical frames, just slower.
	store := buildDataset(t, 3)
	opts := smallOpts(24, 24)
	l := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 2, Outputs: 1}
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(l, w)
	if err != nil {
		t.Fatal(err)
	}
	p.PrefetchDepth = 0
	var mu sync.Mutex
	var runErr error
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if err := p.Run(c); err != nil {
			mu.Lock()
			if runErr == nil {
				runErr = err
			}
			mu.Unlock()
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	want := serialFrame(t, w, opts, 2)
	if got := w.Frame(2); got == nil || imgRMSE(want, got) > 1e-5 {
		t.Error("depth-0 pipeline produced wrong frames")
	}
}

func TestOrbitViewInPipeline(t *testing.T) {
	store := buildDataset(t, 2)
	opts := smallOpts(24, 24)
	opts.View = render.OrbitView(24, 24, 45, 35)
	w, res, _ := runPipelineOver(t, store, Layout{Groups: 1, IPsPerGroup: 1, Renderers: 2, Outputs: 1}, opts, overReal, nil)
	if res.Frames != 2 || w.Frame(1) == nil {
		t.Fatal("orbit view pipeline failed")
	}
	want := serialFrame(t, w, opts, 1)
	if d := imgRMSE(want, w.Frame(1)); d > 1e-5 {
		t.Errorf("orbit view differs from serial: %v", d)
	}
}

func copyObj(t *testing.T, from, to pfs.Store, name string) {
	t.Helper()
	n, err := from.Size(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	if err := from.ReadAt(nil, name, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := to.Write(name, buf); err != nil {
		t.Fatal(err)
	}
}

// imgRMSE is a local alias avoiding an img import cycle in the test names.
func imgRMSE(a, b *img.Image) float64 { return img.RMSE(a, b) }

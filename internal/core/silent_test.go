package core

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
	"repro/internal/render"
)

// silentSteps is the number of steps silentStore writes.
const silentSteps = 6

// silentStore writes a dataset whose steps walk every block through the
// transitions a renderer's silent-block skip has to get right: step 0 is
// non-zero at every node; step 1 zero on the nodes of the odd blocks (so
// they fall silent); step 2 zero everywhere; step 3 non-zero everywhere
// again; step 4 zero but for one node, the last staged node of a block
// whose node count is no multiple of 8; step 5 zero on the nodes of the
// even blocks. Magnitudes lie in [0.2, 1] under a fixed quantization range
// of 1, so a non-zero node quantizes to a non-zero byte. The options it
// returns pin that range and leave enhancement off, so each step's bytes
// are its own.
func silentStore(tb testing.TB) (pfs.Store, Options) {
	tb.Helper()
	msh, err := quake.DemoMesh()
	if err != nil {
		tb.Fatal(err)
	}
	n := msh.NumNodes()
	store := pfs.NewMemStore()
	if err := quake.WriteMesh(store, msh); err != nil {
		tb.Fatal(err)
	}
	if err := quake.WriteMeta(store, quake.Meta{NumSteps: silentSteps, NumNodes: n, OutDT: 1}); err != nil {
		tb.Fatal(err)
	}
	opts := smallOpts(40, 40)
	opts.FixedVMax = 1
	// The block partition depends on the mesh and BlockLevel alone, and a
	// dataset with a fixed range reads no step to build it.
	d, err := NewDataset(Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}, opts, store)
	if err != nil {
		tb.Fatal(err)
	}
	zeroIn := func(parity int) []bool {
		zero := make([]bool, n)
		for bi, ids := range d.blockNodeIDs {
			if bi%2 == parity {
				for _, id := range ids {
					zero[id] = true
				}
			}
		}
		return zero
	}
	odd, even := zeroIn(1), zeroIn(0)
	hot := int32(-1)
	for _, ids := range d.blockNodeIDs {
		if len(ids)%8 != 0 {
			hot = ids[len(ids)-1]
			break
		}
	}
	if hot < 0 {
		tb.Fatal("every block's node count is a multiple of 8: no tail to test")
	}
	on := func(id int) float32 { return 0.2 + 0.8*float32(id*7919%97)/96 }
	for s := 0; s < silentSteps; s++ {
		vel := make([]float32, 3*n)
		for id := 0; id < n; id++ {
			var v float32
			switch s {
			case 0, 3:
				v = on(id)
			case 1:
				if !odd[id] {
					v = on(id)
				}
			case 4:
				if int32(id) == hot {
					v = 1
				}
			case 5:
				if !even[id] {
					v = on(id)
				}
			}
			vel[3*id] = v
		}
		if err := store.Write(quake.StepObject(s), quake.EncodeStep(vel)); err != nil {
			tb.Fatal(err)
		}
	}
	return store, opts
}

// checkMerged holds every renderer's blocks to the step whose quantized
// field is q: each corner value is the dequantized node byte, bit for bit
// (+0 in a silent block), the zero flag says whether the block is silent,
// and the block was left out of the step's render list exactly when it is
// silent and the workload skips silent blocks. It returns how many blocks
// were silent.
func checkMerged(tb testing.TB, w *RealWorkload, q []uint8) (silent int) {
	tb.Helper()
	for r, rs := range w.rendScr {
		for i, bi := range w.ds.rblocks[r] {
			ids := w.ds.blockNodeIDs[bi]
			quiet := true
			for _, id := range ids {
				quiet = quiet && q[id] == 0
			}
			if quiet {
				silent++
			}
			for ci, local := range w.ds.blockCornerLocal[bi] {
				for k, at := range local {
					want := render.Dequantize(q[ids[at]])
					if got := rs.bds[i].Vals[ci][k]; math.Float32bits(got) != math.Float32bits(want) {
						tb.Fatalf("renderer %d block %d cell %d corner %d = %v, want %v", r, bi, ci, k, got, want)
					}
				}
			}
			if rs.zero[i] != quiet {
				tb.Errorf("renderer %d block %d: zero flag %v, silent %v", r, bi, rs.zero[i], quiet)
			}
			if skipped := rs.live[i] == nil; skipped != (quiet && w.skipSilent) {
				tb.Errorf("renderer %d block %d: left out of the render %v, silent %v, skipSilent %v", r, bi, skipped, quiet, w.skipSilent)
			}
		}
	}
	return silent
}

// TestSilentSkipMatchesSerial runs silentStore's steps one window each,
// over the in-process and the network transport, and after every step
// holds each block's merge to the step's bytes (checkMerged) and the frame
// to RenderSerial on the same quantized field, pixel for pixel. Under a
// transfer function dense at 0 no block may be skipped, and the frames
// must still match. Three more runs split each step between two input
// ranks, under each read strategy, so blocks get their values through the
// gather plans of both parts.
func TestSilentSkipMatchesSerial(t *testing.T) {
	store, base := silentStore(t)
	dense := render.NewTransferFunction([]render.TFPoint{
		{S: 0, R: 0.2, G: 0.2, B: 0.3, Density: 0.6},
		{S: 1, R: 1, G: 0.3, B: 0, Density: 20},
	})
	for _, tc := range []struct {
		name string
		run  transportRun
		tf   *render.TransferFunction // nil: the options' transfer function
		read func(*Options)           // nil: one input rank per group, contiguous
	}{
		{"real", overReal, nil, nil},
		{"net", overNet, nil, nil},
		{"real-dense-at-0", overReal, dense, nil},
		{"net-dense-at-0", overNet, dense, nil},
		{"real-collective-2-parts", overReal, nil, func(o *Options) { o.ReadStrategy = ReadCollective }},
		{"real-adaptive-2-parts", overReal, nil, func(o *Options) { o.AdaptiveFetch = true }},
		{"real-contiguous-2-parts", overReal, nil, func(o *Options) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, opts := Layout{Groups: 2, IPsPerGroup: 1, Renderers: 3, Outputs: 1}, base
			if tc.read != nil {
				l.IPsPerGroup = 2
				tc.read(&opts)
			}
			w, err := NewRealWorkload(l, opts, store)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			rr := render.NewRenderer()
			rr.Lighting = opts.Lighting
			if tc.tf != nil {
				w.rend.TF, rr.TF = tc.tf, tc.tf
				w.aim()
			}
			if w.skipSilent != (tc.tf == nil) {
				t.Fatalf("skipSilent = %v under the %s transfer function", w.skipSilent, tc.name)
			}
			blocks := len(w.ds.roots)
			qs := frozenSteps(t, store, silentSteps, w.ds.meta.NumNodes, false, 0, w.ds.vmax)
			silent := make([]int, silentSteps)
			for s := range silent {
				if err := w.SetStepWindow(s, s+1); err != nil {
					t.Fatal(err)
				}
				runWorkloadOver(t, w, w, l, tc.run, nil)
				q := qs[s]
				silent[s] = checkMerged(t, w, q)
				view := opts.View
				want, err := render.RenderSerial(rr, w.ds.mesh, render.DequantizeInto(nil, q), opts.BlockLevel, w.ds.level, &view)
				if err != nil {
					t.Fatal(err)
				}
				got := w.Frame(0)
				if got == nil {
					t.Fatalf("step %d: no frame", s)
				}
				for i, v := range want.Pix {
					if math.Float32bits(got.Pix[i]) != math.Float32bits(v) {
						t.Fatalf("step %d: frame differs from RenderSerial at channel %d: %v, want %v", s, i, got.Pix[i], v)
					}
				}
				w.ReleaseFrame(0)
			}
			// The steps must walk the transitions silentStore promises.
			for s, want := range []struct{ lo, hi int }{
				{0, 0}, {1, blocks - 1}, {blocks, blocks}, {0, 0}, {1, blocks - 1}, {1, blocks - 1},
			} {
				if silent[s] < want.lo || silent[s] > want.hi {
					t.Errorf("step %d: %d of %d blocks silent, want [%d, %d]", s, silent[s], blocks, want.lo, want.hi)
				}
			}
		})
	}
}

// renderStep runs step s of a one-IP, one-renderer layout on the calling
// rank: input rank 0 fetches it and builds renderer 0's piece, which
// Render merges and ray-casts.
func renderStep(c *mpi.Comm, w *RealWorkload, s int, pieces []mpi.Message) (*rendered, error) {
	prep, err := w.Fetch(c, s, 0, 1)
	if err != nil {
		return nil, err
	}
	_, p := w.PayloadFor(c, s, prep, 0)
	pieces[0] = mpi.Message{Src: 0, Data: p}
	out, err := w.Render(c, s, 0, pieces)
	if err != nil {
		return nil, err
	}
	return out.(*rendered), nil
}

// TestLostBlockIsSilent: a block no piece reached is merged as a silent
// one. Under Faults.Tolerate its Vals are +0, it is left out of the render
// and the renderer flags the step (its strip carries the flag); without the fault policy the step fails.
func TestLostBlockIsSilent(t *testing.T) {
	store, opts := silentStore(t)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}
	for _, tolerate := range []bool{false, true} {
		opts.Faults.Tolerate = tolerate
		w, err := NewRealWorkload(l, opts, store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
			if c.Rank() != 0 {
				return
			}
			// Step 0 leaves every block live; step 3's piece is lost.
			out, err := renderStep(c, w, 0, make([]mpi.Message, 1))
			if err != nil {
				t.Error(err)
				return
			}
			render.ReleaseFragments(out.frags)
			rnd, err := w.Render(c, 3, 0, []mpi.Message{{Src: 0}})
			if !tolerate {
				if err == nil {
					t.Error("a lost block rendered without the fault policy")
				}
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			render.ReleaseFragments(rnd.(*rendered).frags)
			if !w.rendScr[0].degraded {
				t.Error("a lost block's step is not flagged degraded")
			}
			if n := checkMerged(t, w, make([]uint8, w.ds.meta.NumNodes)); n != len(w.ds.roots) {
				t.Errorf("%d of %d blocks silent after every piece was lost", n, len(w.ds.roots))
			}
		})
	}
}

// TestRenderStepAllocFree holds a warm renderer rank's step — merge the
// piece, leave the silent blocks out, ray-cast the rest — at 0 allocs/op
// through every transition of silentStore's steps: live, live→silent, all
// silent, silent→live and one hot node. Input rank 0 fetches each step and
// builds the piece in the same loop; the fragments go back to the scratch
// as Composite would return them.
func TestRenderStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	store, opts := silentStore(t)
	l := Layout{Groups: 1, IPsPerGroup: 1, Renderers: 1, Outputs: 1}
	w, err := NewRealWorkload(l, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
		if c.Rank() != 0 {
			return
		}
		pieces := make([]mpi.Message, 1)
		steps := func() {
			for s := 0; s < silentSteps; s++ {
				out, err := renderStep(c, w, s, pieces)
				if err != nil {
					t.Error(err)
					return
				}
				render.ReleaseFragments(out.frags)
			}
		}
		for i := 0; i < 3; i++ { // warm every pool
			steps()
		}
		if avg := testing.AllocsPerRun(10, steps); avg != 0 {
			t.Errorf("steady-state render steps allocate %v per pass of %d steps, want 0", avg, silentSteps)
		}
	})
}

package core

// The occupancy index (scanRange, liveBlocks) and the per-step read plans
// it trims (Dataset.commitSteps): a block the index calls silent is never
// read, shipped or merged, so a run with the index must render what a run
// that reads every block renders — the same scan's vmax pinned through
// FixedVMax, which builds no index — bit for bit, with the same degraded
// flags; the index's silent decision must be exactly "every node quantizes
// to 0"; and a pass over steps whose views the handles have seen builds no
// plan and allocates nothing.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/quake"
)

// TestSilentSkipMatchesFullRead: over RunReal and RunNet, collective and
// independent reads, enhancement off and on, one and two groups, and the
// whole run or a step window that starts mid-dataset, the run with the
// occupancy index renders the frames of the run that reads every block,
// bit for bit, with the same degraded flags — and reads fewer records.
func TestSilentSkipMatchesFullRead(t *testing.T) {
	const steps = 6
	store := buildDataset(t, steps)
	for _, read := range []ReadStrategy{ReadCollective, ReadIndependent} {
		for _, enhance := range []bool{false, true} {
			for _, groups := range []int{1, 2} {
				l := Layout{Groups: groups, IPsPerGroup: 2, Renderers: 2, Outputs: 1}
				opts := smallOpts(32, 32)
				opts.ReadStrategy, opts.AdaptiveFetch = read, read == ReadCollective
				opts.Enhancement, opts.EnhanceGain = enhance, 3
				scanned, err := NewDataset(l, opts, store)
				if err != nil {
					t.Fatal(err)
				}
				trimmed := false
				for tt := range scanned.stepPlan {
					for p := range scanned.stepPlan[tt] {
						trimmed = trimmed || scanned.stepPlan[tt][p].view.Size() < scanned.dense[p].view.Size()
					}
				}
				if !trimmed {
					t.Fatalf("read %v enhance %v groups %d: no step reads fewer records than the part", read, enhance, groups)
				}
				full := opts
				full.FixedVMax = scanned.VMax()
				whole, err := NewDataset(l, full, store)
				if err != nil {
					t.Fatal(err)
				}
				if whole.stepPlan != nil {
					t.Fatal("FixedVMax built an occupancy index")
				}
				for _, tr := range []struct {
					name string
					run  transportRun
				}{{"real", overReal}, {"net", overNet}} {
					for _, win := range [][2]int{{0, steps}, {3, steps}} {
						name := fmt.Sprintf("read%v/enhance=%v/groups=%d/%s/window%v", read, enhance, groups, tr.name, win)
						var frames [2]*RealWorkload
						for i, d := range []*Dataset{scanned, whole} {
							w := d.NewWorkload(opts.Width, opts.Height, opts.View, opts.TFName)
							t.Cleanup(w.Close)
							if err := w.SetStepWindow(win[0], win[1]); err != nil {
								t.Fatal(err)
							}
							res, _ := runWorkloadOver(t, w, w, l, tr.run, nil)
							if res.Frames != win[1]-win[0] {
								t.Fatalf("%s: %d frames, want %d", name, res.Frames, win[1]-win[0])
							}
							frames[i] = w
						}
						for s := 0; s < win[1]-win[0]; s++ {
							if !slices.Equal(frameBits(frames[0].Frame(s)), frameBits(frames[1].Frame(s))) {
								t.Errorf("%s: step %d differs from the every-block read", name, s)
							}
							if a, b := frames[0].FrameDegraded(s), frames[1].FrameDegraded(s); a != b {
								t.Errorf("%s: step %d degraded %v, %v reading every block", name, s, a, b)
							}
						}
					}
				}
			}
		}
	}
}

// TestOccupancyIndexExact: on random step records whose magnitudes
// crowd the rounding edge 0.5/255·vmax — exactly on it, one float32 step
// either side, subnormal, zero — with and without enhancement (whose
// value v + gain·|v − p| crosses the edge from both sides), a block is
// silent in the index exactly when every node of it quantizes to 0 in the
// frozen decode chain.
func TestOccupancyIndexExact(t *testing.T) {
	const nodes, steps, blocks = 200, 6, 40
	rng := rand.New(rand.NewSource(44))
	half := float32(0.5) // 0.5/255·vmax with vmax 255
	edge := []float32{0, 1e-40, math.Nextafter32(half, 0), half, math.Nextafter32(half, 1), 0.25, 0.3, 0.2}
	for _, gain := range []float32{0, 0.5, 1, 3} {
		store := pfs.NewMemStore()
		names := make([]string, steps)
		for s := range names {
			vec := make([]float32, 3*nodes)
			for i := 0; i < nodes; i++ {
				m := edge[rng.Intn(len(edge))]
				if rng.Intn(10) == 0 {
					m = rng.Float32() * 4
				}
				// A magnitude of (m, 0, 0) is m exactly; a sign flip keeps it.
				if rng.Intn(2) == 0 {
					m = -m
				}
				vec[3*i] = m
			}
			if s == 0 {
				vec[0] = 255 // vmax 255: the rounding edge is 0.5
			}
			names[s] = quake.StepObject(s)
			if err := store.Write(names[s], quake.EncodeStep(vec)); err != nil {
				t.Fatal(err)
			}
		}
		// Blocks of one to four nodes, so that silent ones are common.
		ids := make([][]int32, blocks)
		for b := range ids {
			for k := rng.Intn(4); k >= 0; k-- {
				ids[b] = append(ids[b], int32(rng.Intn(nodes)))
			}
			slices.Sort(ids[b])
			ids[b] = slices.Compact(ids[b])
		}
		vmax, peak, err := scanRange(store, nodes, names, ids, gain)
		if err != nil {
			t.Fatal(err)
		}
		if vmax != 255 {
			t.Fatalf("vmax %v, want 255", vmax)
		}
		live := liveBlocks(peak, vmax)
		qs := frozenSteps(t, store, steps, nodes, gain != 0, gain, vmax)
		silent := 0
		for s := range qs {
			for b, bids := range ids {
				want := slices.ContainsFunc(bids, func(id int32) bool { return qs[s][id] != 0 })
				if got := blockLive(live[s], int32(b)); got != want {
					t.Fatalf("gain %v step %d block %d: index live %v, frozen chain %v", gain, s, b, got, want)
				}
				if !want {
					silent++
				}
			}
		}
		if silent == 0 || silent == steps*blocks {
			t.Fatalf("gain %v: %d of %d blocks silent: the edge is not exercised", gain, silent, steps*blocks)
		}
	}
}

// TestSecondPassAllocFree: on batch_io's shape (collective, adaptive,
// enhancement) and on an independent one, a second pass over every step —
// Fetch and every renderer's piece — through views the handles met on the
// first pass commits no datatype, builds no sieve or collective plan and
// allocates nothing.
func TestSecondPassAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are skipped under the race detector")
	}
	const steps = 6
	for _, tc := range []struct {
		name string
		sh   fetchShape
	}{
		{"collective", batchIO},
		{"independent", fetchShape{batchIO.l, func(o *Options) { batchIO.mod(o); o.ReadStrategy = ReadIndependent }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, l := fetchWorkload(t, tc.sh, steps, nil)
			var avg float64
			builds := make([]int, l.IPsPerGroup)
			mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
				part := c.Rank()
				if part >= l.IPsPerGroup {
					return
				}
				pass := func() {
					for s := 0; s < steps; s++ {
						prep, err := w.Fetch(c, s, part, l.IPsPerGroup)
						if err != nil {
							t.Error(err)
						}
						for r := 0; r < l.Renderers; r++ {
							_, p := w.PayloadFor(c, s, prep, r)
							p.(*dataPayload).release()
						}
					}
				}
				pass()
				scr := w.ipScr[c.Rank()]
				before := scr.file.PlanBuilds + scr.pfile.PlanBuilds
				if part == 0 {
					avg = testing.AllocsPerRun(1, pass)
				} else {
					pass()
					pass()
				}
				builds[part] = scr.file.PlanBuilds + scr.pfile.PlanBuilds - before
			})
			if avg != 0 {
				t.Errorf("a second pass allocates %v times, want 0", avg)
			}
			for part, n := range builds {
				if n != 0 {
					t.Errorf("part %d built %d plans on passes over views it had seen", part, n)
				}
			}
		})
	}
}

// TestStepPlansContract: on one and two groups, with and without
// enhancement, under every read strategy, each covered step's plan of each
// part is the occupancy index's: live holds exactly the positions of the
// nodes of the step's live blocks, next those of the next step's where a
// hand-off follows (nil otherwise), read their union, and the view selects
// exactly the read positions' records, in order; and each piece PayloadFor builds at the step is the committed
// runs of the live blocks — every block's when stale — which checkPiece
// takes, declaring a byte per value plus eight per run, or 1 with no run.
func TestStepPlansContract(t *testing.T) {
	const steps = 5
	store := buildDataset(t, steps)
	for _, groups := range []int{1, 2} {
		for _, enhance := range []bool{false, true} {
			for _, st := range planStrategies {
				l := Layout{Groups: groups, IPsPerGroup: 2, Renderers: 3, Outputs: 1}
				opts := smallOpts(16, 16)
				opts.Enhancement, opts.EnhanceGain = enhance, 3
				st.mod(&opts)
				name := fmt.Sprintf("groups %d enhance %v %s", groups, enhance, st.name)
				d, err := NewDataset(l, opts, store)
				if err != nil {
					t.Fatal(err)
				}
				w := d.NewWorkload(opts.Width, opts.Height, opts.View, opts.TFName)
				t.Cleanup(w.Close)
				handoff := enhance && groups > 1
				for s := 0; s < steps; s++ {
					for p, ids := range d.partIDs {
						ps := d.partStep(s, p)
						liveAt := func(s int) []posRun {
							marks := make([]bool, len(ids))
							for bi, bids := range d.blockNodeIDs {
								if blockLive(d.liveAt(s), int32(bi)) {
									for _, id := range bids {
										if k, ok := slices.BinarySearch(ids, id); ok {
											marks[k] = true
										}
									}
								}
							}
							var runs []posRun
							for k, on := range marks {
								switch {
								case !on:
								case len(runs) > 0 && runs[len(runs)-1].hi == int32(k):
									runs[len(runs)-1].hi++
								default:
									runs = append(runs, posRun{int32(k), int32(k) + 1})
								}
							}
							return runs
						}
						wantNext := []posRun(nil)
						if handoff && s+1 < steps {
							wantNext = liveAt(s + 1)
						}
						if !slices.Equal(ps.live, liveAt(s)) || !slices.Equal(ps.next, wantNext) || !slices.Equal(ps.read, unionRuns(ps.live, wantNext)) {
							t.Fatalf("%s: step %d part %d plan is not the index's", name, s, p)
						}
						var viewed, read []int32
						for _, seg := range ps.view.Segments() {
							for off := seg.Off; off < seg.Off+seg.Len; off += quake.BytesPerNode {
								viewed = append(viewed, int32(off/quake.BytesPerNode))
							}
						}
						n := 0
						for _, r := range ps.read {
							read = append(read, ids[r.lo:r.hi]...)
						}
						for _, r := range ps.live {
							n += int(r.hi - r.lo)
						}
						if !slices.Equal(viewed, read) || n != ps.nlive || ps.nodes != len(ids) {
							t.Fatalf("%s: step %d part %d view selects %d records, reads %d", name, s, p, len(viewed), len(read))
						}
						for _, stale := range []bool{false, true} {
							scr := &ipScratch{part: p, q: make([]uint8, len(ids)), stale: stale}
							for r := range d.rblocks {
								bytes, v := w.PayloadFor(nil, s, scr, r)
								dp := v.(*dataPayload)
								var want []pieceRun
								for _, o := range d.gather[p][r].runs {
									if stale || blockLive(d.liveAt(s), o.Block) {
										want = append(want, o)
									}
								}
								got := make([]pieceRun, len(dp.runs))
								wantBytes := int64(0)
								for i, run := range dp.runs {
									got[i] = pieceRun{run.Block, run.Off, int32(len(run.Vals))}
									wantBytes += 8 + int64(len(run.Vals))
								}
								if !slices.Equal(got, want) {
									t.Fatalf("%s: step %d part %d renderer %d stale %v ships %v, owes %v", name, s, p, r, stale, got, want)
								}
								if wantBytes == 0 {
									wantBytes = 1
								}
								if bytes != wantBytes {
									t.Fatalf("%s: step %d part %d renderer %d declares %d bytes, its runs make %d", name, s, p, r, bytes, wantBytes)
								}
								if err := w.checkPiece(s, p, r, dp); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								dp.release()
							}
						}
					}
				}
			}
		}
	}
}

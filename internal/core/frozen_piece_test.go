package core

// Frozen oracle for PR 24 (the leap_test.go pattern): the data piece as it
// stood before the gather plan was committed — PayloadFor re-finding, per
// step, which run of every block's node list lies in the share (stepShare.has)
// or, collectively, gathering eight corner values per cell through global
// node ids into a second wire shape (blockVals), and Render's merge with a
// branch per shape — kept verbatim but for where the tables come from, and
// the planned path held to the corner values it left in the renderers'
// BlockData at tolerance 0.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/quake"
	"repro/internal/render"
)

// frozenStepShare is stepShare before PR 24, verbatim.
type frozenStepShare struct {
	t    int
	part int     // which group part fetched this share
	q    []uint8 // quantized scalar per node (sparse; only fetched ids set)
	ids  []int32 // which ids are set, sorted (nil means contiguous range)
	idLo int32   // for contiguous full fetch: [idLo, idHi)
	idHi int32
}

// has is stepShare.has before PR 24, verbatim.
func (s *frozenStepShare) has(id int32) bool {
	if s.ids != nil {
		lo, hi := 0, len(s.ids)
		for lo < hi {
			mid := (lo + hi) / 2
			if s.ids[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(s.ids) && s.ids[lo] == id
	}
	return id >= s.idLo && id < s.idHi
}

// frozenBlockVals is blockVals before PR 24, verbatim: the per-block piece
// of a collective-read payload, corner values in block-cell order.
type frozenBlockVals struct {
	Block int32
	Vals  []uint8 // 8 per cell
}

// frozenDataPayload is dataPayload before PR 24 without its pool.
type frozenDataPayload struct {
	runs  []blockRun
	bvals []frozenBlockVals
	vals  []uint8
	voff  []int
}

// frozenPieces carries what the frozen bodies read: the workload, for the
// Dataset tables that still exist, and the three PR 24 removed, rebuilt the
// way NewDataset built them.
type frozenPieces struct {
	w           *RealWorkload
	blockCorner [][][8]int32 // block -> cell -> global corner node ids
	collIDs     [][]int32    // group part -> merged node ids of the blocks it reads collectively
	allNeeded   []int32      // union of node ids at the render level, sorted
}

func newFrozenPieces(t *testing.T, w *RealWorkload) *frozenPieces {
	t.Helper()
	d := w.ds
	f := &frozenPieces{w: w, blockCorner: make([][][8]int32, len(d.blockCells))}
	for bi, cells := range d.blockCells {
		f.blockCorner[bi] = make([][8]int32, len(cells))
		for ci, cell := range cells {
			ids := d.mesh.CornerIDs(cell)
			if slices.Contains(ids[:], -1) {
				t.Fatalf("block %d cell %v has a corner with no node", bi, cell)
			}
			f.blockCorner[bi][ci] = ids
		}
	}
	partSets := make([][][]int32, d.layout.IPsPerGroup)
	for bi, ids := range d.blockNodeIDs {
		p := d.owner[bi] % d.layout.IPsPerGroup
		partSets[p] = append(partSets[p], ids)
	}
	for _, sets := range partSets {
		f.collIDs = append(f.collIDs, sortedUnion(sets))
	}
	f.allNeeded = sortedUnion(d.blockNodeIDs)
	return f
}

// needed is Dataset.needed before PR 24, verbatim.
func (f *frozenPieces) needed(p int) []int32 {
	n, m := len(f.allNeeded), f.w.ds.layout.IPsPerGroup
	return f.allNeeded[n*p/m : n*(p+1)/m]
}

// publish is what fetchStep (stale false) and degradeStep (stale true) left
// in the rank's reused share before PR 24: the step's id set under the
// workload's strategy, and — unless the step went stale — the step's values
// scattered over those ids in the NumNodes-sized q. all holds the step's
// quantized value of every node, so all[id] is what the strategy's read
// delivered for id.
func (f *frozenPieces) publish(share *frozenStepShare, t, part int, all []uint8, stale bool) {
	w, m := f.w, f.w.ds.layout.IPsPerGroup
	share.t, share.part = t, part
	share.ids, share.idLo, share.idHi = nil, 0, 0
	if share.q == nil {
		share.q = make([]uint8, w.ds.meta.NumNodes)
	}
	lo, hi := int32(0), int32(0)
	switch {
	case w.opts.ReadStrategy == ReadCollective:
		share.ids = f.collIDs[part]
	case w.opts.AdaptiveFetch:
		share.ids = f.needed(part)
	default:
		n := w.ds.meta.NumNodes
		lo, hi = int32(n*part/m), int32(n*(part+1)/m)
		share.idLo, share.idHi = lo, hi
	}
	if stale {
		return
	}
	for _, id := range share.ids {
		share.q[id] = all[id]
	}
	for id := lo; id < hi; id++ {
		share.q[id] = all[id]
	}
}

// payloadFor is RealWorkload.PayloadFor before PR 24, verbatim but for the
// tables' owner and the payload's pool.
func (f *frozenPieces) payloadFor(share *frozenStepShare, renderer int) (int64, *frozenDataPayload) {
	w := f.w
	p := &frozenDataPayload{}
	var bytes int64
	if w.opts.ReadStrategy == ReadCollective {
		for _, bi := range w.ds.rblocks[renderer] {
			if w.ds.owner[bi]%w.ds.layout.IPsPerGroup != share.part {
				continue // another IP of the group owns this block
			}
			cells := f.blockCorner[bi]
			p.voff = append(p.voff, len(p.vals))
			for _, corners := range cells {
				for _, id := range corners {
					p.vals = append(p.vals, share.q[id])
				}
			}
			p.bvals = append(p.bvals, frozenBlockVals{Block: int32(bi)})
			bytes += int64(8*len(cells)) + 8
		}
		for i := range p.bvals {
			end := len(p.vals)
			if i+1 < len(p.bvals) {
				end = p.voff[i+1]
			}
			p.bvals[i].Vals = p.vals[p.voff[i]:end]
		}
		if bytes == 0 {
			bytes = 1
		}
		return bytes, p
	}
	// Independent strategies: ship the runs of each block's node list that
	// fall inside this share.
	for _, bi := range w.ds.rblocks[renderer] {
		ids := w.ds.blockNodeIDs[bi]
		lo := 0
		for lo < len(ids) && !share.has(ids[lo]) {
			lo++
		}
		hi := lo
		for hi < len(ids) && share.has(ids[hi]) {
			hi++
		}
		if hi == lo {
			continue
		}
		p.voff = append(p.voff, len(p.vals))
		for k := lo; k < hi; k++ {
			p.vals = append(p.vals, share.q[ids[k]])
		}
		p.runs = append(p.runs, blockRun{Block: int32(bi), Off: int32(lo)})
		bytes += int64(hi-lo) + 8
	}
	for i := range p.runs {
		end := len(p.vals)
		if i+1 < len(p.runs) {
			end = p.voff[i+1]
		}
		p.runs[i].Vals = p.vals[p.voff[i]:end]
	}
	if bytes == 0 {
		bytes = 1
	}
	return bytes, p
}

// merge is the value merge of RealWorkload.Render before PR 24, verbatim but
// for its staging (local instead of the renderer scratch) and its result:
// the corner values per local block and whether the step degraded. A nil
// piece is a lost input rank's.
func (f *frozenPieces) merge(r int, pieces []*frozenDataPayload) (vals [][][8]float32, degraded bool, err error) {
	w := f.w
	mine := w.ds.rblocks[r]
	nodeVals := make([][]uint8, len(mine))
	corn := make([][]uint8, len(mine))
	got := make([]bool, len(mine))
	vals = make([][][8]float32, len(mine))
	for i, bi := range mine {
		nodeVals[i] = make([]uint8, len(w.ds.blockNodeIDs[bi]))
		vals[i] = make([][8]float32, len(w.ds.blockCells[bi]))
	}
	if w.opts.ReadStrategy == ReadCollective {
		for _, dp := range pieces {
			if dp == nil {
				continue
			}
			for _, bv := range dp.bvals {
				pos := w.ds.rblockPos[bv.Block]
				corn[pos] = bv.Vals
				got[pos] = true
			}
		}
	} else {
		// Zero the staging buffers exactly as the old fresh-map path did,
		// then scatter the runs of every piece into them.
		for i := range nodeVals {
			clear(nodeVals[i])
		}
		for _, dp := range pieces {
			if dp == nil {
				continue
			}
			for _, run := range dp.runs {
				pos := w.ds.rblockPos[run.Block]
				copy(nodeVals[pos][run.Off:], run.Vals)
				got[pos] = true
			}
		}
	}
	for i, bi := range mine {
		bdVals := vals[i]
		if !got[i] {
			if !w.opts.Faults.Tolerate {
				return nil, false, fmt.Errorf("core: renderer %d missing block %d", r, bi)
			}
			clear(bdVals)
			corn[i] = nil
			degraded = true
			continue
		}
		switch w.opts.ReadStrategy {
		case ReadCollective:
			bv := corn[i]
			for ci := range bdVals {
				for k := 0; k < 8; k++ {
					bdVals[ci][k] = float32(bv[8*ci+k]) / 255
				}
			}
		default:
			nv := nodeVals[i]
			for ci, local := range w.ds.blockCornerLocal[bi] {
				for k := 0; k < 8; k++ {
					bdVals[ci][k] = float32(nv[local[k]]) / 255
				}
			}
		}
		corn[i] = nil
	}
	return vals, degraded, nil
}

// TestPiecesMatchFrozen drives two input ranks and three renderers by hand
// through five steps under each of the three read strategies, plain and
// with temporal enhancement, and holds the planned path to the frozen one
// after every merge: the same corner values in every block, bit for bit, the
// same degraded flag, and the declared piece size the frozen path declared —
// except collectively, where it is nodes + 8 per block instead of
// 8·cells + 8, checked as exactly that. Step 2's object is cut short by one
// node record, so the part whose view reaches it (and, enhanced, step 3,
// which reads step 2 as its previous step) goes stale and ships what it
// fetched last while its peer ships fresh values; at step 4 part 1's piece
// is lost, and nothing but zeros stands in for its nodes.
//
// Mutation-checked: commitGather recording src one entry late, opening a new
// run at every node (the declared size gives it away) and shipping a
// collective block from the other part (NewDataset's coverage check refuses
// it); PayloadFor gathering from q[i] instead of q[src[i]]; Fetch not
// recording its part; mergePieces not clearing the staging (the lost piece's
// nodes keep the last step's values); fetchStep clearing q before it reads
// (the stale step ships zeros) each fail this test.
func TestPiecesMatchFrozen(t *testing.T) {
	const steps, badStep, lostStep, lostPart = 5, 2, 4, 1
	l := Layout{Groups: 1, IPsPerGroup: 2, Renderers: 3, Outputs: 1}
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"collective", func(o *Options) { o.ReadStrategy = ReadCollective }},
		{"adaptive", func(o *Options) { o.AdaptiveFetch = true }},
		{"contiguous", func(o *Options) {}},
		{"collective-enhanced", func(o *Options) { o.ReadStrategy = ReadCollective; o.Enhancement = true }},
		{"adaptive-enhanced", func(o *Options) { o.AdaptiveFetch = true; o.Enhancement = true }},
		{"contiguous-enhanced", func(o *Options) { o.Enhancement = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := buildDataset(t, steps)
			opts := tolerant(24, 24)
			opts.Level = 3
			tc.mod(&opts)
			w, err := NewRealWorkload(l, opts, store)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			f := newFrozenPieces(t, w)
			n := w.ds.meta.NumNodes

			// Every step's quantized value of every node, from whole-object
			// reads through the allocating reference chain.
			all := make([][]uint8, steps)
			var pmag []float32
			raw := make([]byte, n*quake.BytesPerNode)
			for step := range all {
				if err := store.ReadAt(nil, quake.StepObject(step), 0, raw); err != nil {
					t.Fatal(err)
				}
				mag := stepMagnitude(t, raw)
				enh := mag
				if opts.Enhancement && step > 0 {
					enh = render.EnhanceTemporalInto(nil, mag, pmag, opts.EnhanceGain)
				}
				all[step] = render.QuantizeInto(nil, enh, 0, w.ds.vmax)
				pmag = mag
			}

			// Cut the last node record any part reads off step badStep's
			// object: a part goes stale iff its view reaches that record.
			var last int32
			reach := func(part int) int32 {
				switch {
				case opts.ReadStrategy == ReadCollective:
					return f.collIDs[part][len(f.collIDs[part])-1]
				case opts.AdaptiveFetch:
					return f.needed(part)[len(f.needed(part))-1]
				}
				return int32(n*(part+1)/l.IPsPerGroup - 1)
			}
			for part := 0; part < l.IPsPerGroup; part++ {
				last = max(last, reach(part))
			}
			if err := store.ReadAt(nil, quake.StepObject(badStep), 0, raw); err != nil {
				t.Fatal(err)
			}
			if err := store.Write(quake.StepObject(badStep), raw[:int(last)*quake.BytesPerNode]); err != nil {
				t.Fatal(err)
			}
			stale := func(part, step int) bool {
				return reach(part) == last && (step == badStep || opts.Enhancement && step == badStep+1)
			}

			// The planned path: both input ranks fetch in lock step (the
			// collective needs them to) and build every renderer's piece.
			type piece struct {
				bytes int64
				data  any
			}
			pieces := make([][][]piece, steps) // step -> part -> renderer
			for step := range pieces {
				pieces[step] = make([][]piece, l.IPsPerGroup)
			}
			mpi.RunReal(l.WorldSize(), func(c *mpi.Comm) {
				part := c.Rank()
				if part >= l.IPsPerGroup {
					return
				}
				for step := 0; step < steps; step++ {
					prep, err := w.Fetch(c, step, part, l.IPsPerGroup)
					if err != nil {
						t.Errorf("part %d step %d: %v", part, step, err)
						return
					}
					for r := 0; r < l.Renderers; r++ {
						bytes, data := w.PayloadFor(c, step, prep, r)
						pieces[step][part] = append(pieces[step][part], piece{bytes, data})
					}
				}
			})
			if t.Failed() {
				t.FailNow()
			}

			shares := make([]frozenStepShare, l.IPsPerGroup)
			sawStale := false
			for step := 0; step < steps; step++ {
				for part := range shares {
					f.publish(&shares[part], step, part, all[step], stale(part, step))
					sawStale = sawStale || stale(part, step)
				}
				for r := 0; r < l.Renderers; r++ {
					msgs := make([]mpi.Message, l.IPsPerGroup)
					frozen := make([]*frozenDataPayload, l.IPsPerGroup)
					for part := range shares {
						wantBytes, fp := f.payloadFor(&shares[part], r)
						got := pieces[step][part][r]
						if opts.ReadStrategy == ReadCollective && len(fp.bvals) > 0 {
							wantBytes = 0
							for _, bv := range fp.bvals {
								wantBytes += int64(len(w.ds.blockNodeIDs[bv.Block])) + 8
							}
						}
						if got.bytes != wantBytes {
							t.Fatalf("step %d part %d renderer %d declares %d bytes, want %d", step, part, r, got.bytes, wantBytes)
						}
						if step == lostStep && part == lostPart {
							got.data.(*dataPayload).release()
							continue // msgs[part] stays the zero Message recvOr substitutes
						}
						msgs[part] = mpi.Message{Src: l.InputRank(0, part), Data: got.data}
						frozen[part] = fp
					}
					want, wantDegraded, err := f.merge(r, frozen)
					if err != nil {
						t.Fatal(err)
					}
					w.resetRun() // the degraded set is per run; here a merge is one
					if err := w.mergePieces(step, r, msgs); err != nil {
						t.Fatal(err)
					}
					if got := w.FrameDegraded(step); got != wantDegraded {
						t.Fatalf("step %d renderer %d: degraded %v, frozen %v", step, r, got, wantDegraded)
					}
					for i, bi := range w.ds.rblocks[r] {
						for ci, cell := range w.rendScr[r].bds[i].Vals {
							for k, v := range cell {
								if math.Float32bits(v) != math.Float32bits(want[i][ci][k]) {
									t.Fatalf("step %d renderer %d block %d cell %d corner %d = %v, frozen %v", step, r, bi, ci, k, v, want[i][ci][k])
								}
							}
						}
					}
				}
			}
			if !sawStale {
				t.Fatal("no part went stale: the short object missed every view")
			}
		})
	}
}

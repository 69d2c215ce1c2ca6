package core

// The input -> renderer hop in isolation (PR 24): the data piece's one wire
// shape round-trips, and a piece that lies is refused — by the codec where
// the wire alone can tell (lengths that do not tile the backing bytes), by
// the renderer's merge where only the committed plan can (which blocks,
// which nodes) — without a panic and without a value landing in a block it
// does not belong to.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pool"
)

// pieceLayout has two parts and three renderers, so every renderer's blocks
// take values from more than one piece under the independent strategies.
var pieceLayout = Layout{Groups: 1, IPsPerGroup: 2, Renderers: 3, Outputs: 1}

// pieceWorkloads builds a tolerant and an intolerant workload on one dataset.
func pieceWorkloads(tb testing.TB, mod func(*Options)) (tolerate, strict *RealWorkload) {
	tb.Helper()
	opts := smallOpts(16, 16)
	opts.FixedVMax = 1
	if mod != nil {
		mod(&opts)
	}
	ds, err := NewDataset(pieceLayout, opts, buildDataset(tb, 1))
	if err != nil {
		tb.Fatal(err)
	}
	ws := make([]*RealWorkload, 2)
	for i := range ws {
		opts.Faults.Tolerate = i == 0
		if ws[i], err = ds.NewWorkload(opts); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(ws[i].Close)
	}
	return ws[0], ws[1]
}

// planPiece builds the piece part owes renderer r, unpooled, with value i of
// the piece set to val(i).
func planPiece(w *RealWorkload, part, r int, val func(i int) uint8) *dataPayload {
	g := &w.ds.gather[part][r]
	p := &dataPayload{vals: make([]uint8, len(g.src))}
	for i := range p.vals {
		p.vals[i] = val(i)
	}
	rest := p.vals
	for _, run := range g.runs {
		p.runs = append(p.runs, blockRun{Block: run.Block, Off: run.Off, Vals: rest[:run.Len]})
		rest = rest[run.Len:]
	}
	return p
}

// wireRun is one run header of a hand-built data piece.
type wireRun struct{ block, off, n int32 }

// wirePiece builds a data-piece wire frame by hand: the run headers, a
// claimed backing length (negative: the true one) and the backing bytes.
func wirePiece(runs []wireRun, claim int, vals []byte, trailing ...byte) []byte {
	b := mpi.AppendU32(nil, uint32(len(runs)))
	for _, run := range runs {
		b = mpi.AppendU32(mpi.AppendU32(mpi.AppendU32(b, uint32(run.block)), uint32(run.off)), uint32(run.n))
	}
	if claim < 0 {
		claim = len(vals)
	}
	return append(append(mpi.AppendU32(b, uint32(claim)), vals...), trailing...)
}

// owedWire is the honest wire frame of the piece part owes renderer r.
func owedWire(w *RealWorkload, part, r int, val func(i int) uint8) ([]wireRun, []byte) {
	p := planPiece(w, part, r, val)
	runs := make([]wireRun, len(p.runs))
	for i, run := range p.runs {
		runs[i] = wireRun{run.Block, run.Off, int32(len(run.Vals))}
	}
	return runs, p.vals
}

// mergedVals merges pieces into renderer r of w as step 0 of a fresh run and
// returns a copy of its blocks' corner values and the step's degraded flag.
func mergedVals(tb testing.TB, w *RealWorkload, r int, pieces []mpi.Message) ([][][8]float32, bool) {
	tb.Helper()
	w.resetRun()
	if err := w.mergePieces(0, r, pieces); err != nil {
		tb.Fatal(err)
	}
	out := make([][][8]float32, len(w.rendScr[r].bds))
	for i, bd := range w.rendScr[r].bds {
		out[i] = append([][8]float32(nil), bd.Vals...)
	}
	return out, w.FrameDegraded(0)
}

func sameVals(a, b [][][8]float32) bool {
	for i := range a {
		for ci := range a[i] {
			for k := range a[i][ci] {
				if math.Float32bits(a[i][ci][k]) != math.Float32bits(b[i][ci][k]) {
					return false
				}
			}
		}
	}
	return true
}

// TestDataCodecRoundTrip: under each read strategy, every piece of the plan
// survives encode -> decode run for run and byte for byte, the decoded
// payload owns its bytes (the wire buffer can be scribbled over), encoding
// released the sender's payload to its pool, and the renderer the piece was
// built for accepts the decoded copy.
func TestDataCodecRoundTrip(t *testing.T) {
	for name, mod := range map[string]func(*Options){
		"collective": func(o *Options) { o.ReadStrategy = ReadCollective },
		"adaptive":   func(o *Options) { o.AdaptiveFetch = true; o.Level = 3 },
		"contiguous": nil,
	} {
		w, _ := pieceWorkloads(t, mod)
		for part := 0; part < pieceLayout.IPsPerGroup; part++ {
			for r := 0; r < pieceLayout.Renderers; r++ {
				src := planPiece(w, part, r, func(i int) uint8 { return uint8(7*i + part + r) })
				var sendPool pool.Pool[dataPayload]
				src.owner = &sendPool
				want := planPiece(w, part, r, func(i int) uint8 { return uint8(7*i + part + r) })
				wire, err := encodeDataPayload(nil, src)
				if err != nil {
					t.Fatal(err)
				}
				if sendPool.Get() != src {
					t.Errorf("%s part %d renderer %d: encoding did not release the payload to its pool", name, part, r)
				}
				v, err := decodeDataPayload(wire)
				if err != nil {
					t.Fatalf("%s part %d renderer %d: %v", name, part, r, err)
				}
				for k := range wire {
					wire[k] = 0xAA // the transport reuses this buffer
				}
				got := v.(*dataPayload)
				if len(got.runs) != len(want.runs) {
					t.Fatalf("%s part %d renderer %d: decoded %d runs, encoded %d", name, part, r, len(got.runs), len(want.runs))
				}
				for i, run := range got.runs {
					if o := want.runs[i]; run.Block != o.Block || run.Off != o.Off || !bytes.Equal(run.Vals, o.Vals) {
						t.Errorf("%s part %d renderer %d: run %d decoded as block %d off %d (%d values), encoded block %d off %d (%d values)",
							name, part, r, i, run.Block, run.Off, len(run.Vals), o.Block, o.Off, len(o.Vals))
					}
				}
				if err := w.checkPiece(part, r, got); err != nil {
					t.Errorf("%s: the renderer refuses its own piece: %v", name, err)
				}
				got.release()
			}
		}
	}
}

// TestDataCodecHostile: pieces that lie to renderer 0 in part 0's name.
// Each is refused either by the codec or by the merge, never by a panic.
// Without the fault policy the merge's refusal is an error naming the
// sending rank, the step and the block; with it the piece counts as absent:
// the frame is flagged and every block holds exactly what it holds when part
// 0's piece never arrives — part 1's values and zeros.
func TestDataCodecHostile(t *testing.T) {
	tolerate, strict := pieceWorkloads(t, nil)
	d := tolerate.ds
	const r = 0
	val := func(i int) uint8 { return uint8(3*i + 1) }
	runs, vals := owedWire(tolerate, 0, r, val)
	if len(runs) < 2 {
		t.Fatalf("part 0 owes renderer %d %d runs: the table needs two", r, len(runs))
	}
	honest1 := func() mpi.Message {
		return mpi.Message{Src: 1, Data: planPiece(tolerate, 1, r, func(i int) uint8 { return uint8(5*i + 2) })}
	}
	absent, _ := mergedVals(t, tolerate, r, []mpi.Message{{Src: 0}, honest1()})
	whole, degraded := mergedVals(t, tolerate, r, []mpi.Message{{Src: 0, Data: planPiece(tolerate, 0, r, val)}, honest1()})
	if degraded || sameVals(whole, absent) {
		t.Fatalf("the honest piece: degraded %v, changes nothing %v", degraded, sameVals(whole, absent))
	}

	foreign := int32(d.rblocks[1][0]) // a block renderer 1 owns
	with := func(i int, run wireRun) []wireRun {
		out := append([]wireRun(nil), runs...)
		out[i] = run
		return out
	}
	for _, tc := range []struct {
		name   string
		wire   []byte
		decode bool // the codec accepts it; the merge must not
	}{
		{"block -1", wirePiece(with(0, wireRun{-1, runs[0].off, runs[0].n}), -1, vals), true},
		{"block past the last", wirePiece(with(0, wireRun{int32(len(d.roots)), runs[0].off, runs[0].n}), -1, vals), true},
		{"another renderer's block", wirePiece(with(0, wireRun{foreign, 0, runs[0].n}), -1, vals), true},
		{"offset -1", wirePiece(with(0, wireRun{runs[0].block, -1, runs[0].n}), -1, vals), true},
		{"offset one off", wirePiece(with(0, wireRun{runs[0].block, runs[0].off + 1, runs[0].n}), -1, vals), true},
		{"run past the node list", wirePiece(with(0, wireRun{runs[0].block, runs[0].off, runs[0].n + 1<<20}), -1, append(vals, make([]byte, 1<<20)...)), true},
		{"run one node short", wirePiece(with(0, wireRun{runs[0].block, runs[0].off, runs[0].n - 1}), -1, vals[1:]), true},
		{"runs swapped", wirePiece(append([]wireRun{runs[1], runs[0]}, runs[2:]...), -1, vals), true},
		{"a run missing", wirePiece(runs[1:], -1, vals[runs[0].n:]), true},
		{"a run twice", wirePiece(append(runs[:1:1], runs...), -1, append(vals[:runs[0].n:runs[0].n], vals...)), true},
		{"no runs", wirePiece(nil, -1, nil), true},
		{"part 1's piece", func() []byte { r1, v1 := owedWire(tolerate, 1, r, val); return wirePiece(r1, -1, v1) }(), true},
		{"length prefix beyond the wire", wirePiece(runs, 1<<20, vals), false},
		{"run count beyond the wire", mpi.AppendU32(nil, 1<<20), false},
		{"runs overrun the backing bytes", wirePiece(runs, -1, vals[:len(vals)-1]), false},
		{"backing bytes no run names", wirePiece(runs, -1, append(vals[:len(vals):len(vals)], 9)), false},
		{"trailing bytes", wirePiece(runs, -1, vals, 0), false},
		{"truncated header", []byte{1, 0, 0}, false},
		{"empty", nil, false},
	} {
		v, err := decodeDataPayload(tc.wire)
		if (err == nil) != tc.decode {
			t.Errorf("%s: decode error %v, want accepted=%v", tc.name, err, tc.decode)
		}
		if err != nil {
			continue
		}
		err = strict.mergePieces(4, r, []mpi.Message{{Src: 0, Data: v}, honest1()})
		if err == nil {
			t.Errorf("%s: merged without the fault policy", tc.name)
		} else if msg := err.Error(); !strings.Contains(msg, "step 4") || !strings.Contains(msg, "rank 0") || !strings.Contains(msg, "block") {
			t.Errorf("%s: refusal %q does not name rank, step and block", tc.name, msg)
		}
		v, _ = decodeDataPayload(tc.wire)
		got, degraded := mergedVals(t, tolerate, r, []mpi.Message{{Src: 0, Data: v}, honest1()})
		if !degraded {
			t.Errorf("%s: the frame is not flagged", tc.name)
		}
		if !sameVals(got, absent) {
			t.Errorf("%s: the refused piece changed a block's values", tc.name)
		}
	}
}

// FuzzDecodeDataPayload: arbitrary bytes as part 0's piece for renderer 0,
// beside an honest piece from part 1. The codec and the merge behind it must
// not panic; a piece the merge refuses must flag the frame and leave every
// staged node value what it is when the piece never arrives; one it accepts
// must change exactly the nodes the plan says part 0 owes, to the piece's
// values in order.
func FuzzDecodeDataPayload(f *testing.F) {
	w, _ := pieceWorkloads(f, nil)
	const r = 0
	val := func(i int) uint8 { return uint8(3*i + 1) }
	runs, vals := owedWire(w, 0, r, val)
	f.Add(wirePiece(runs, -1, vals))
	f.Add(wirePiece(runs[1:], -1, vals[runs[0].n:]))
	f.Add(wirePiece([]wireRun{{-1, 0, 4}}, -1, []byte{1, 2, 3, 4}))
	f.Add(wirePiece([]wireRun{{runs[0].block, -1, 2}}, -1, []byte{1, 2}))
	f.Add(wirePiece([]wireRun{{int32(w.ds.rblocks[1][0]), 0, 1}}, -1, []byte{1}))
	f.Add(wirePiece(runs, 1<<20, vals))
	f.Add(wirePiece(runs, -1, vals, 0))
	f.Add(wirePiece(nil, -1, nil))

	honest1 := func() mpi.Message {
		return mpi.Message{Src: 1, Data: planPiece(w, 1, r, func(i int) uint8 { return uint8(5*i + 2) })}
	}
	staged := func(tb testing.TB, pieces []mpi.Message) ([][]uint8, bool) {
		_, degraded := mergedVals(tb, w, r, pieces)
		out := make([][]uint8, len(w.rendScr[r].nodeVals))
		for i, nv := range w.rendScr[r].nodeVals {
			out[i] = bytes.Clone(nv)
		}
		return out, degraded
	}
	absent, _ := staged(f, []mpi.Message{{Src: 0}, honest1()})
	f.Fuzz(func(t *testing.T, wire []byte) {
		v, err := decodeDataPayload(wire)
		if err != nil {
			return
		}
		sent := bytes.Clone(v.(*dataPayload).vals) // the merge releases the payload
		got, refused := staged(t, []mpi.Message{{Src: 0, Data: v}, honest1()})
		want := absent
		if !refused {
			if len(sent) != len(w.ds.gather[0][r].src) {
				t.Fatalf("merged a piece of %d values, the plan owes %d", len(sent), len(w.ds.gather[0][r].src))
			}
			want = make([][]uint8, len(absent))
			for i := range want {
				want[i] = bytes.Clone(absent[i])
			}
			for _, run := range w.ds.gather[0][r].runs {
				copy(want[w.ds.rblockPos[run.Block]][run.Off:], sent[:run.Len])
				sent = sent[run.Len:]
			}
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("refused=%v: staged values of local block %d differ from what the plan allows", refused, i)
			}
		}
	})
}

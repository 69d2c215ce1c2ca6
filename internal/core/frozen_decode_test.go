package core

// Frozen oracle for the fused decode kernels (the leap_test.go pattern):
// the input ranks' decode chain as magQuant ran it before decode.go — four
// passes per record, quake.DecodeStepInto -> render.MagnitudeInto ->
// render.EnhanceTemporalInto -> render.QuantizeInto — kept verbatim, and
// magQuant and the vmax scan's pass held to its bytes, its errors and its
// stale rule.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/pool"
	"repro/internal/quake"
)

// frozenDecodeStepInto is quake.DecodeStepInto before the fused kernels,
// verbatim.
func frozenDecodeStepInto(dst []float32, raw []byte) ([]float32, error) {
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("quake: step record of %d bytes is not a whole number of float32s (truncated step object): %w", len(raw), pfs.ErrCorrupt)
	}
	dst = pool.Grow(dst, len(raw)/4)
	for i := range dst {
		bits := binary.LittleEndian.Uint32(raw[4*i:])
		if bits&0x7f800000 == 0x7f800000 {
			return nil, fmt.Errorf("quake: non-finite float32 %#08x at record word %d of step object: %w", bits, i, pfs.ErrCorrupt)
		}
		dst[i] = math.Float32frombits(bits)
	}
	return dst, nil
}

// frozenMagnitudeInto is render.MagnitudeInto, verbatim.
func frozenMagnitudeInto(dst []float32, vec []float32) []float32 {
	n := len(vec) / 3
	dst = pool.Grow(dst, n)
	for i := 0; i < n; i++ {
		x := float64(vec[3*i])
		y := float64(vec[3*i+1])
		z := float64(vec[3*i+2])
		dst[i] = float32(math.Sqrt(x*x + y*y + z*z))
	}
	return dst
}

// frozenEnhanceTemporalInto is render.EnhanceTemporalInto, verbatim.
func frozenEnhanceTemporalInto(dst, cur, prev []float32, gain float32) []float32 {
	dst = pool.Grow(dst, len(cur))
	if prev == nil || gain == 0 {
		copy(dst, cur)
		return dst
	}
	for i, v := range cur {
		d := v - prev[i]
		if d < 0 {
			d = -d
		}
		dst[i] = v + gain*d
	}
	return dst
}

// frozenQuantizeInto is render.QuantizeInto, verbatim.
func frozenQuantizeInto(dst []uint8, vals []float32, lo, hi float32) []uint8 {
	dst = pool.Grow(dst, len(vals))
	if hi <= lo {
		clear(dst)
		return dst
	}
	inv := 255 / (hi - lo)
	for i, v := range vals {
		s := (v - lo) * inv
		if s < 0 {
			s = 0
		} else if s > 255 {
			s = 255
		}
		dst[i] = uint8(s + 0.5)
	}
	return dst
}

// frozenMagQuant is magQuant's chain before the fused kernels, verbatim but
// for the I/O: praw is what the previous-step read delivered, nil when
// enhancement does not apply. It returns the new q, or the error magQuant
// returned and no q.
func frozenMagQuant(t int, raw, praw []byte, gain, vmax float32) ([]uint8, error) {
	vec, err := frozenDecodeStepInto(nil, raw)
	if err != nil {
		return nil, fmt.Errorf("core: step %d: %w", t, err)
	}
	mag := frozenMagnitudeInto(nil, vec)
	if praw != nil {
		pvec, err := frozenDecodeStepInto(nil, praw)
		if err != nil {
			return nil, fmt.Errorf("core: step %d: %w", t-1, err)
		}
		pmag := frozenMagnitudeInto(nil, pvec)
		mag = frozenEnhanceTemporalInto(mag, mag, pmag, gain)
	}
	return frozenQuantizeInto(nil, mag, 0, vmax), nil
}

// frozenSteps is the quantized value of every node in each of the first
// steps dataset steps, through the frozen four-pass chain on whole objects:
// the one reference every bit-exactness test of the decode stage computes
// its expected bytes with.
func frozenSteps(tb testing.TB, store pfs.Store, steps, nodes int, enhance bool, gain, vmax float32) [][]uint8 {
	tb.Helper()
	out := make([][]uint8, steps)
	var prev []byte
	for s := range out {
		raw := make([]byte, nodes*quake.BytesPerNode)
		if err := store.ReadAt(nil, quake.StepObject(s), 0, raw); err != nil {
			tb.Fatal(err)
		}
		var praw []byte
		if enhance && s > 0 {
			praw = prev
		}
		q, err := frozenMagQuant(s, raw, praw, gain, vmax)
		if err != nil {
			tb.Fatal(err)
		}
		out[s], prev = q, raw
	}
	return out
}

// magQuantRig is the least workload magQuant runs on: a store holding the
// previous step's object, the enhancement settings and the quantization
// range, and one input rank's scratch. Step 1 is the step it decodes, so
// enhancement reads step 0.
type magQuantRig struct {
	w   *RealWorkload
	scr *ipScratch
}

func newMagQuantRig(enhance bool, gain, vmax float32) *magQuantRig {
	w := &RealWorkload{
		ds:    &Dataset{vmax: vmax, stepNames: []string{quake.StepObject(0), quake.StepObject(1)}},
		store: pfs.NewMemStore(),
	}
	w.opts.Enhancement, w.opts.EnhanceGain = enhance, gain
	return &magQuantRig{w: w, scr: &ipScratch{}}
}

// step runs magQuant on raw as step 1, with prev as step 0's object (none
// when nil) read through a view of len(prev)/BytesPerNode whole records.
func (r *magQuantRig) step(raw, prev []byte) error {
	np := len(raw) / quake.BytesPerNode
	if prev != nil {
		np = len(prev) / quake.BytesPerNode
		if err := r.w.store.Write(quake.StepObject(0), prev); err != nil {
			return err
		}
	}
	return r.w.magQuant(nil, 1, contigStep(mpiio.Contig{N: np, ElemSize: quake.BytesPerNode}, raw), raw, r.scr, &handoff{})
}

// contigStep is the read plan of raw's whole records through view, every
// position live, as a step the occupancy index does not cover reads them.
func contigStep(view mpiio.Datatype, raw []byte) *partStep {
	n := len(raw) / quake.BytesPerNode
	all := []posRun{{0, int32(n)}}
	return &partStep{view: view, read: all, live: all, next: all, nodes: n, nlive: n}
}

// frozen is what the frozen chain makes of the same inputs.
func (r *magQuantRig) frozen(raw, prev []byte) ([]uint8, error) {
	var praw []byte
	if r.w.opts.Enhancement {
		if prev == nil {
			return nil, errors.New("no previous object")
		}
		praw = prev[:len(prev)/quake.BytesPerNode*quake.BytesPerNode]
	}
	return frozenMagQuant(1, raw, praw, r.w.opts.EnhanceGain, r.w.ds.vmax)
}

// check runs one step both ways from a scratch whose q holds before: equal
// q on success, equal error text and class on failure, with q then still
// before, byte for byte.
func (r *magQuantRig) check(tb testing.TB, raw, prev, before []byte) {
	tb.Helper()
	r.scr.q = append(r.scr.q[:0], before...)
	want, wantErr := r.frozen(raw, prev)
	err := r.step(raw, prev)
	switch {
	case (err == nil) != (wantErr == nil):
		tb.Fatalf("magQuant error %v, frozen chain %v", err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() || errors.Is(err, pfs.ErrCorrupt) != errors.Is(wantErr, pfs.ErrCorrupt) {
			tb.Fatalf("magQuant error %q, frozen chain %q", err, wantErr)
		}
		if !bytes.Equal(r.scr.q, before) {
			tb.Fatalf("failed step changed q: %v, was %v", r.scr.q, before)
		}
	case !bytes.Equal(r.scr.q, want):
		tb.Fatalf("magQuant q %v, frozen chain %v", r.scr.q, want)
	}
}

// nodesOf is the number of whole node records in rec.
func nodesOf(rec []byte) int { return len(rec) / quake.BytesPerNode }

// records packs float32 components into a step record.
func records(vals ...float32) []byte { return quake.EncodeStep(vals) }

// withWord returns a copy of rec with word i replaced by bits.
func withWord(rec []byte, i int, bits uint32) []byte {
	out := bytes.Clone(rec)
	binary.LittleEndian.PutUint32(out[4*i:], bits)
	return out
}

// TestMagQuantMatchesFrozen holds magQuant — the fused kernels plus the
// spare-buffer swap — to the frozen four-pass chain: the same q bit for
// bit, or the same error text with q left as it was, on the values where
// the arithmetic has edges (signed zeros, subnormals, magnitudes exactly on
// a rounding edge k + 0.5 and on the clamp edges 0 and 255, a magnitude
// that overflows float32), on non-finite words first, mid-record and last
// in the current and in the previous record, on truncated records and
// records with one or two words past the last whole node, with enhancement
// off, on, and on with gain 0. Every case's current and previous record
// also goes through recordMagnitudes against the frozen decode and
// magnitude, which is the vmax scan's pass, and every case whose records
// validate goes through magnitudeQuantize — the enhancement hand-off's
// kernel, fed both steps' magnitudes — with its gain and gain 0, and with
// no previous step.
func TestMagQuantMatchesFrozen(t *testing.T) {
	sub := math.Float32frombits(1)           // least subnormal
	bigSub := math.Float32frombits(0x7fffff) // greatest subnormal
	negZero := float32(math.Copysign(0, -1))
	huge := float32(3e38)
	// On vmax 255 a magnitude quantizes to itself: k + 0.5 rounds up, and
	// the clamp edges are 0 and 255.
	var edges []float32
	for k := 0; k < 255; k++ {
		edges = append(edges, float32(k)+0.5, 0, 0)
	}
	edges = append(edges, 0, 0, 0, 255, 0, 0, 255.5, 0, 0, 256, 0, 0, 254.75, 0, 0)
	// Magnitudes that are exact: a 3-4-5 triple and its scaled copies.
	var triples []float32
	for k := float32(0); k < 40; k++ {
		triples = append(triples, 3*k/4, 4*k/4, 0, 0, 3*k/8, 4*k/8)
	}
	plain := records(1, 2, 2, 0.5, -0.25, 3, -7, 0, 1e-3, 4, 4, 2)
	prev := records(2, 1, 2, 0.5, 0.25, -3, 7, 1, 0, 0, 0, 0)
	nodes := len(plain) / quake.BytesPerNode
	inf, nan := uint32(0x7f800000), uint32(0x7fc00001)
	cases := []struct {
		name       string
		raw, prev  []byte
		gain, vmax float32
	}{
		{"plain", plain, prev, 3, 10},
		{"zeros-and-subnormals", records(0, negZero, 0, sub, -sub, bigSub, -bigSub, sub, 0, negZero, negZero, negZero),
			records(negZero, 0, sub, 0, 0, 0, bigSub, bigSub, bigSub, -sub, 0, 0), 2, 1e-38},
		{"rounding-and-clamp-edges", records(edges...), records(make([]float32, len(edges))...), 0.5, 255},
		{"enhanced-edges", records(triples...), records(slices.Concat(triples[6:], triples[:6])...), 0.5, 255},
		{"overflow-to-inf", records(huge, huge, huge, 1, 1, 1, 0, 0, 0, huge, 0, 0), records(huge, huge, huge, 0, 0, 0, huge, 0, 0, 1, 1, 1), 1, 10},
		{"vmax-zero", plain, prev, 3, 0},
		{"vmax-negative", plain, prev, 3, -1},
		{"negative-gain", plain, prev, -2, 10},
		{"empty", records(), records(), 3, 10},
		{"inf-first", withWord(plain, 0, inf), prev, 3, 10},
		{"nan-mid", withWord(plain, 3*nodes/2+1, nan), prev, 3, 10},
		{"neg-inf-last", withWord(plain, 3*nodes-1, inf|1<<31), prev, 3, 10},
		{"prev-inf-first", plain, withWord(prev, 0, inf), 3, 10},
		{"prev-nan-mid", plain, withWord(prev, 3*nodes/2, nan|1<<31), 3, 10},
		{"prev-nan-last", plain, withWord(prev, 3*nodes-1, nan), 3, 10},
		{"prev-bad-gain-zero", plain, withWord(prev, 4, inf), 0, 10},
		{"both-bad", withWord(plain, 5, nan), withWord(prev, 2, inf), 3, 10},
		{"truncated-1", plain[:len(plain)-1], prev, 3, 10},
		{"truncated-2", plain[:len(plain)-2], prev, 3, 10},
		{"truncated-3", plain[:len(plain)-3], prev, 3, 10},
		{"tail-4", plain[:len(plain)-8], prev, 3, 10},
		{"tail-8", plain[:len(plain)-4], prev, 3, 10},
		{"tail-4-bad", withWord(plain, 3*nodes-3, inf)[:len(plain)-8], prev, 3, 10},
		{"tail-8-bad", withWord(plain, 3*nodes-2, nan)[:len(plain)-4], prev, 3, 10},
		{"tail-8-prev-bad", plain[:len(plain)-4], withWord(prev, 3*nodes-1, inf), 3, 10},
	}
	before := []byte{9, 8, 7, 6, 5}
	for _, tc := range cases {
		for _, mode := range []struct {
			name    string
			enhance bool
			gain    float32
		}{{"off", false, tc.gain}, {"on", true, tc.gain}, {"gain0", true, 0}} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				newMagQuantRig(mode.enhance, mode.gain, tc.vmax).check(t, tc.raw, tc.prev, before)
			})
		}
		t.Run(tc.name+"/two-magnitudes", func(t *testing.T) {
			// The hand-off's kernel: both steps' magnitudes as the ranks that
			// read the records computed them, with gain tc.gain and 0, and
			// without a previous step.
			cur, prev := make([]float32, nodesOf(tc.raw)), make([]float32, nodesOf(tc.prev))
			if recordMagnitudes(cur, tc.raw) != nil || recordMagnitudes(prev, tc.prev) != nil || len(prev) < len(cur) {
				return // a record no rank would hand off
			}
			for _, gain := range []float32{tc.gain, 0} {
				for _, p := range [][]float32{prev, nil} {
					var praw []byte
					if p != nil {
						praw = tc.prev
					}
					want, err := frozenMagQuant(1, tc.raw, praw, gain, tc.vmax)
					if err != nil {
						t.Fatal(err)
					}
					got := bytes.Repeat([]byte{0xa5}, len(cur))
					magnitudeQuantize(got, cur, p, gain, tc.vmax)
					if !bytes.Equal(got, want) {
						t.Fatalf("gain %v previous %v: q %v, frozen chain %v", gain, p != nil, got, want)
					}
				}
			}
		})
		t.Run(tc.name+"/magnitudes", func(t *testing.T) {
			for _, rec := range [][]byte{tc.raw, tc.prev} {
				var want []float32
				vec, wantErr := frozenDecodeStepInto(nil, rec)
				if wantErr == nil {
					want = frozenMagnitudeInto(nil, vec)
				}
				got := make([]float32, len(rec)/quake.BytesPerNode)
				err := recordMagnitudes(got, rec)
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("recordMagnitudes error %v, frozen %v", err, wantErr)
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("node %d magnitude %v, frozen %v", i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestMagQuantFailureKeepsQ pins the stale rule by design: after a
// successful step, a step that fails leaves q byte-identical to that
// step's values — whether its current record is corrupt, the previous
// step's read fails, the previous record is corrupt or the current record
// is truncated — and the next good step after it is exact again.
func TestMagQuantFailureKeepsQ(t *testing.T) {
	good := records(1, 2, 2, 0.5, -0.25, 3, -7, 0, 1e-3, 4, 4, 2)
	prev := records(2, 1, 2, 0.5, 0.25, -3, 7, 1, 0, 0, 0, 0)
	other := records(0, 0, 9, 8, 0, 0, 1, 1, 1, 0, 3, 0)
	for _, tc := range []struct {
		name      string
		raw, prev []byte
	}{
		{"corrupt-current", withWord(good, 4, 0x7f800000), prev},
		{"failed-previous-read", good, prev[:quake.BytesPerNode]}, // the view reaches past the object
		{"corrupt-previous", good, withWord(prev, 7, 0xffc00000)},
		{"truncated-current", good[:len(good)-3], prev},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newMagQuantRig(true, 3, 10)
			if err := r.step(other, prev); err != nil {
				t.Fatal(err)
			}
			last := bytes.Clone(r.scr.q)
			want, _ := r.frozen(other, prev)
			if !bytes.Equal(last, want) {
				t.Fatalf("good step q %v, frozen %v", last, want)
			}
			// Read the failing step through the full view whatever its
			// previous object holds, so a short object fails the read.
			if err := r.w.store.Write(quake.StepObject(0), tc.prev); err != nil {
				t.Fatal(err)
			}
			view := mpiio.Contig{N: len(good) / quake.BytesPerNode, ElemSize: quake.BytesPerNode}
			if err := r.w.magQuant(nil, 1, contigStep(view, tc.raw), tc.raw, r.scr, &handoff{}); err == nil {
				t.Fatal("failing step succeeded")
			}
			if !bytes.Equal(r.scr.q, last) {
				t.Fatalf("failed step left q %v, want the last good step's %v", r.scr.q, last)
			}
			r.check(t, good, prev, r.scr.q)
		})
	}
}

// FuzzMagQuant: on arbitrary current and previous records, gains and
// ranges, magQuant and the frozen chain return the same q or the same
// error, and a failed step leaves q untouched. The previous record is cut
// to whole node records, as a view delivers it, and to no fewer nodes than
// the current one has, as the shared view guarantees.
func FuzzMagQuant(f *testing.F) {
	plain := records(1, 2, 2, 0.5, -0.25, 3, -7, 0, 1e-3, 4, 4, 2)
	prev := records(2, 1, 2, 0.5, 0.25, -3, 7, 1, 0, 0, 0, 0)
	f.Add(plain, prev, float32(3), float32(10), true)
	f.Add(plain, prev, float32(0), float32(10), true)
	f.Add(plain, prev, float32(3), float32(10), false)
	f.Add(withWord(plain, 5, 0x7fc00000), prev, float32(3), float32(10), true)
	f.Add(plain, withWord(prev, 11, 0xff800000), float32(3), float32(10), true)
	f.Add(plain[:len(plain)-4], prev, float32(3), float32(10), true)
	f.Add(plain[:len(plain)-5], prev, float32(3), float32(10), false)
	f.Add(records(3e38, 3e38, 3e38), records(0, 0, 0), float32(1), float32(255), true)
	f.Fuzz(func(t *testing.T, raw, prev []byte, gain, vmax float32, enhance bool) {
		n := len(raw) / quake.BytesPerNode
		prev = prev[:len(prev)/quake.BytesPerNode*quake.BytesPerNode]
		if len(prev) < n*quake.BytesPerNode {
			prev = append(prev, make([]byte, n*quake.BytesPerNode-len(prev))...)
		}
		before := raw[:min(len(raw), 16)]
		newMagQuantRig(enhance, gain, vmax).check(t, raw, prev, before)
	})
}

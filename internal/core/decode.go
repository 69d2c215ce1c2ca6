package core

// The input ranks' decode kernels: one pass each from a step object's node
// records (quake.BytesPerNode bytes: three little-endian float32 words) to
// what the pass feeds — float32 magnitudes (recordMagnitudes: the vmax scan,
// and both steps under temporal enhancement) or quantized bytes
// (recordQuantize) — and one from two steps' magnitudes to quantized bytes
// (magnitudeQuantize). Each node's arithmetic is written exactly as
// render.MagnitudeInto, EnhanceTemporalInto and QuantizeInto write it — same
// operand order, same float32/float64 conversions — so the values are those
// of that four-pass chain (frozen in frozen_decode_test.go, which pins it),
// bit for bit. Words are validated branch-free across the pass; only a
// record that failed is scanned again, by quake.CheckStep, to name its
// first bad word in the same words DecodeStepInto uses.

import (
	"encoding/binary"
	"math"

	"repro/internal/quake"
)

// A float32 word is non-finite (Inf or NaN) exactly when its exponent field
// is all ones; adding one to that field then carries into the sign bit.
// The pair constants test the two words of one 8-byte load at once.
const (
	wordExp    = 0x7f800000
	wordExpInc = 0x00800000
	pairExp    = 0x7f8000007f800000
	pairExpInc = 0x0080000000800000
	pairTop    = 0x8000000080000000
)

// nodeWords loads the node record at the start of rec as two overlapping
// 8-byte words — words 0 and 1, and words 1 and 2 — and returns them with
// a flag word whose pairTop bits are set when one of the three float32
// words is not finite.
func nodeWords(rec []byte) (xy, yz, bad uint64) {
	xy = binary.LittleEndian.Uint64(rec)
	yz = binary.LittleEndian.Uint64(rec[4:])
	return xy, yz, (xy&pairExp + pairExpInc) | (yz&pairExp + pairExpInc)
}

// nodeMagnitude returns the magnitude of the node whose words nodeWords
// loaded, as render.MagnitudeInto computes it from the decoded words. It
// is apart from nodeWords because one function doing both is over the
// compiler's inlining budget, and a call per node costs the kernels.
func nodeMagnitude(xy, yz uint64) float32 {
	x := float64(math.Float32frombits(uint32(xy)))
	y := float64(math.Float32frombits(uint32(yz)))
	z := float64(math.Float32frombits(uint32(yz >> 32)))
	return float32(math.Sqrt(x*x + y*y + z*z))
}

// wordsBad returns the non-finite flags of raw's whole words, for the words
// of a record past its last decoded node: DecodeStepInto validated them
// too.
func wordsBad(raw []byte) uint64 {
	var bad uint64
	for ; len(raw) >= 4; raw = raw[4:] {
		bad |= uint64(binary.LittleEndian.Uint32(raw)&wordExp + wordExpInc)
	}
	return bad
}

// recordMagnitudes writes the magnitude of node i of the step record raw to
// mag[i], for every node: len(mag) must be len(raw)/quake.BytesPerNode. It
// fails with quake.CheckStep's error when raw is not a whole number of
// words or holds a non-finite one, trailing words included; mag's contents
// are then unspecified.
//
//repro:allocfree
func recordMagnitudes(mag []float32, raw []byte) error {
	if len(raw)%4 != 0 {
		return quake.CheckStep(raw)
	}
	var bad uint64
	for i := range mag {
		xy, yz, b := nodeWords(raw[quake.BytesPerNode*i:][:quake.BytesPerNode])
		mag[i], bad = nodeMagnitude(xy, yz), bad|b
	}
	if (bad|wordsBad(raw[quake.BytesPerNode*len(mag):]))&pairTop != 0 {
		return quake.CheckStep(raw)
	}
	return nil
}

// recordQuantize writes to q[i] the 8-bit value over [0, vmax] of node i's
// magnitude in the step record raw, for every node: len(q) must be
// len(raw)/quake.BytesPerNode. It fails like recordMagnitudes, every word
// of raw validated; q's contents are then unspecified, which is why callers
// quantize into a spare buffer.
//
//repro:allocfree
func recordQuantize(q []uint8, raw []byte, vmax float32) error {
	if len(raw)%4 != 0 {
		return quake.CheckStep(raw)
	}
	lo, hi := float32(0), vmax
	inv := 255 / (hi - lo)
	var bad uint64
	for i := range q {
		xy, yz, b := nodeWords(raw[quake.BytesPerNode*i:][:quake.BytesPerNode])
		q[i], bad = quantizeValue(nodeMagnitude(xy, yz), lo, inv), bad|b
	}
	if (bad|wordsBad(raw[quake.BytesPerNode*len(q):]))&pairTop != 0 {
		return quake.CheckStep(raw)
	}
	if hi <= lo {
		clear(q)
	}
	return nil
}

// magnitudeQuantize writes to q[i] the 8-bit value over [0, vmax] of the
// current step's magnitude cur[i] under temporal enhancement by gain
// against the previous step's, prev[i] — cur[i] itself when gain is 0, as
// EnhanceTemporalInto copies, or when prev is nil (a step with no previous
// step). Both hold the float32 nodeMagnitude gives for the node's record
// (recordMagnitudes wrote them, on whichever rank read the record), so q is
// the four-pass chain's, bit for bit. cur and prev hold at least len(q)
// values, validated when they were computed, so it cannot fail.
//
//repro:allocfree
func magnitudeQuantize(q []uint8, cur, prev []float32, gain, vmax float32) {
	lo, hi := float32(0), vmax
	inv := 255 / (hi - lo)
	cur = cur[:len(q)]
	if prev == nil || gain == 0 {
		for i := range q {
			q[i] = quantizeValue(cur[i], lo, inv)
		}
	} else {
		prev = prev[:len(q)]
		for i := range q {
			v := cur[i]
			d := v - prev[i]
			if d < 0 {
				d = -d
			}
			q[i] = quantizeValue(v+gain*d, lo, inv)
		}
	}
	if hi <= lo {
		clear(q)
	}
}

// recordRuns returns run i's records in raw, which holds the records of
// runs packed in run order, those of run i from byte off on; the last
// run's reach to raw's end, so its trailing words are validated with it.
// raw holds every run's records: it was sized from the runs' view.
func recordRuns(raw []byte, runs []posRun, i, off int) []byte {
	if i == len(runs)-1 {
		return raw[off:]
	}
	return raw[off : off+int(runs[i].hi-runs[i].lo)*quake.BytesPerNode]
}

// quantizeRuns is recordQuantize over the records of the positions of runs,
// packed in raw as recordRuns reads them: q[lo:hi] receives run [lo, hi)'s
// values. It fails, as recordQuantize does, with quake.CheckStep's error
// over the whole of raw.
//
//repro:allocfree
func quantizeRuns(q []uint8, raw []byte, runs []posRun, vmax float32) error {
	off := 0
	for i, r := range runs {
		rec := recordRuns(raw, runs, i, off)
		if recordQuantize(q[r.lo:r.hi], rec, vmax) != nil {
			return quake.CheckStep(raw)
		}
		off += len(rec)
	}
	return nil
}

// magnitudeRuns is recordMagnitudes over the records of the positions of
// runs, as quantizeRuns is recordQuantize: mag[lo:hi] receives run
// [lo, hi)'s magnitudes.
//
//repro:allocfree
func magnitudeRuns(mag []float32, raw []byte, runs []posRun) error {
	off := 0
	for i, r := range runs {
		rec := recordRuns(raw, runs, i, off)
		if recordMagnitudes(mag[r.lo:r.hi], rec) != nil {
			return quake.CheckStep(raw)
		}
		off += len(rec)
	}
	return nil
}

// quantizeValue is render.QuantizeInto's per-sample step: v over [lo, lo +
// 255/inv] to a byte, clamped, rounded half up.
func quantizeValue(v, lo, inv float32) uint8 {
	s := (v - lo) * inv
	if s < 0 {
		s = 0
	} else if s > 255 {
		s = 255
	}
	return uint8(s + 0.5)
}

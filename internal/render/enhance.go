package render

import (
	"math"

	"repro/internal/pool"
)

// This file is the fetch-side scalar preprocessing chain (magnitude ->
// optional temporal enhancement -> normalization/quantization). Every
// transform writes into a caller-provided destination, growing it only when
// its capacity is insufficient, and returns the (possibly regrown) slice:
// the result aliases dst's backing array and the caller owns both. A nil
// dst allocates a fresh result. The inputs are only read and are not needed
// by the transform after it returns. The per-timestep fetch loop passes its
// reused buffers and allocates nothing once they have grown to size.

// MagnitudeInto converts a 3-component vector node array into per-node
// magnitudes (the scalar field the paper volume-renders), written into dst
// (grown as needed); the returned slice aliases dst and must not alias vec.
func MagnitudeInto(dst []float32, vec []float32) []float32 {
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

// MinMax returns the value range of the array.
func MinMax(vals []float32) (lo, hi float32) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// EnhanceTemporalInto applies the paper's temporal-domain enhancement
// filter (Section 4.2): the value at each node is boosted by the local
// change from the previous timestep, bringing out propagating wavefronts
// whose absolute amplitude has decayed. cur and prev are node scalar
// arrays; gain scales the temporal-difference term. The result is written
// into dst (grown as needed), which may alias cur (element i is read before
// it is written). When prev is nil or gain is 0 the values are copied
// through unchanged, so the result never shares storage with cur unless the
// caller passed it as dst — a caller that mutates the result cannot corrupt
// the source field.
func EnhanceTemporalInto(dst, cur, prev []float32, gain float32) []float32 {
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

// QuantizeInto converts float32 samples to 8-bit using the given range —
// the 32-bit -> 8-bit preprocessing the input processors perform — written
// into dst (grown as needed).
func QuantizeInto(dst []uint8, vals []float32, lo, hi float32) []uint8 {
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

// DequantizeInto maps 8-bit samples back into [0,1] scalars for rendering,
// written into dst (grown as needed).
func DequantizeInto(dst []float32, q []uint8) []float32 {
	dst = pool.Grow(dst, len(q))
	for i, v := range q {
		dst[i] = float32(v) / 255
	}
	return dst
}

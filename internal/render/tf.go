package render

import "sort"

// TFPoint is a transfer function control point: scalar position s in [0,1]
// mapped to color and density.
type TFPoint struct {
	S       float64
	R, G, B float64
	Density float64 // extinction coefficient; 0 = fully transparent
}

// TransferFunction maps normalized scalars to emission color and density by
// piecewise-linear interpolation between control points.
type TransferFunction struct {
	pts []TFPoint
}

// NewTransferFunction builds a TF from control points (sorted by S).
func NewTransferFunction(pts []TFPoint) *TransferFunction {
	cp := append([]TFPoint(nil), pts...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].S < cp[j].S })
	return &TransferFunction{pts: cp}
}

// SeismicTF is the default transfer function used for the velocity
// magnitude field: transparent at zero, cool blue for weak motion rising
// through green/yellow to opaque red at peak motion.
func SeismicTF() *TransferFunction {
	return NewTransferFunction([]TFPoint{
		{S: 0.00, R: 0, G: 0, B: 0, Density: 0},
		{S: 0.05, R: 0.05, G: 0.1, B: 0.5, Density: 0.8},
		{S: 0.25, R: 0.0, G: 0.6, B: 0.9, Density: 3},
		{S: 0.50, R: 0.1, G: 0.9, B: 0.2, Density: 8},
		{S: 0.75, R: 1.0, G: 0.9, B: 0.1, Density: 20},
		{S: 1.00, R: 1.0, G: 0.1, B: 0.0, Density: 45},
	})
}

// Lookup returns (r, g, b, density) for scalar s (clamped to [0,1]).
func (tf *TransferFunction) Lookup(s float64) (r, g, b, density float64) {
	if len(tf.pts) == 0 {
		return 0, 0, 0, 0
	}
	if s <= tf.pts[0].S {
		p := tf.pts[0]
		return p.R, p.G, p.B, p.Density
	}
	last := tf.pts[len(tf.pts)-1]
	if s >= last.S {
		return last.R, last.G, last.B, last.Density
	}
	i := sort.Search(len(tf.pts), func(k int) bool { return tf.pts[k].S >= s }) - 1
	a, b2 := tf.pts[i], tf.pts[i+1]
	t := (s - a.S) / (b2.S - a.S)
	lerp := func(x, y float64) float64 { return x + t*(y-x) }
	return lerp(a.R, b2.R), lerp(a.G, b2.G), lerp(a.B, b2.B), lerp(a.Density, b2.Density)
}

// TransparentBelow reports whether the transfer function assigns zero
// density to every scalar in [0, s] — the renderer's empty-space test.
// Piecewise linearity means it suffices to check s itself and every
// control point at or below s.
func (tf *TransferFunction) TransparentBelow(s float64) bool {
	if _, _, _, d := tf.Lookup(s); d > 0 {
		return false
	}
	for _, p := range tf.pts {
		if p.S <= s && p.Density > 0 {
			return false
		}
	}
	return true
}

// TFLUT is a transfer function baked into a dense lookup table. The ray
// caster evaluates the TF once per sample, so replacing the control-point
// search and interpolation of Lookup with a single table lerp removes the
// dominant per-sample cost. The approximation error is bounded by the
// table resolution (the renderer uses 4096 entries over [0,1]); entry 0
// and the saturation ends reproduce Lookup exactly.
type TFLUT struct {
	last float64      // float64(len(tab) - 1)
	tab  [][4]float64 // r, g, b, density per entry
}

// BuildLUT bakes the TF at n uniformly spaced scalars in [0,1].
func (tf *TransferFunction) BuildLUT(n int) *TFLUT {
	if n < 2 {
		n = 2
	}
	l := &TFLUT{last: float64(n - 1), tab: make([][4]float64, n)}
	for i := range l.tab {
		r, g, b, d := tf.Lookup(float64(i) / float64(n-1))
		l.tab[i] = [4]float64{r, g, b, d}
	}
	return l
}

// Lookup returns (r, g, b, density) at s, clamped to [0,1] like
// TransferFunction.Lookup.
func (l *TFLUT) Lookup(s float64) (r, g, b, density float64) {
	x := s * l.last
	if !(x > 0) { // also catches NaN
		e := &l.tab[0]
		return e[0], e[1], e[2], e[3]
	}
	if x >= l.last {
		e := &l.tab[len(l.tab)-1]
		return e[0], e[1], e[2], e[3]
	}
	i := int(x)
	f := x - float64(i)
	a, b2 := &l.tab[i], &l.tab[i+1]
	return a[0] + f*(b2[0]-a[0]), a[1] + f*(b2[1]-a[1]),
		a[2] + f*(b2[2]-a[2]), a[3] + f*(b2[3]-a[3])
}

// GrayTF is a grayscale ramp transfer function (useful for comparing
// against the LIC surface imagery).
func GrayTF() *TransferFunction {
	return NewTransferFunction([]TFPoint{
		{S: 0.00, R: 0, G: 0, B: 0, Density: 0},
		{S: 0.10, R: 0.2, G: 0.2, B: 0.2, Density: 1},
		{S: 1.00, R: 1, G: 1, B: 1, Density: 30},
	})
}

// HotTF is a black-body style map emphasizing peak ground motion.
func HotTF() *TransferFunction {
	return NewTransferFunction([]TFPoint{
		{S: 0.00, R: 0, G: 0, B: 0, Density: 0},
		{S: 0.15, R: 0.4, G: 0, B: 0, Density: 1.5},
		{S: 0.45, R: 1, G: 0.3, B: 0, Density: 8},
		{S: 0.75, R: 1, G: 0.8, B: 0.1, Density: 25},
		{S: 1.00, R: 1, G: 1, B: 0.9, Density: 50},
	})
}

// TFByName resolves a preset name ("seismic", "gray", "hot"); unknown
// names return the seismic default.
func TFByName(name string) *TransferFunction {
	switch name {
	case "gray":
		return GrayTF()
	case "hot":
		return HotTF()
	default:
		return SeismicTF()
	}
}

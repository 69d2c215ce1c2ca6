// Package render implements the software volume renderer: orthographic
// ray casting through octree blocks of hexahedral cells with trilinear
// interpolation, transfer functions, 8-bit quantization, gradient Phong
// lighting, adaptive level-of-detail sampling, and the temporal-domain
// enhancement filter of the paper's Section 4.2. RenderParallelWith and
// RenderBlocksWith provide the shared-memory parallel engine (worker-pool
// block rendering, tile-parallel ray casting, parallel strip compositing)
// with pixel-exact parity against the serial reference path.
package render

import "math"

// Vec3 is a small 3-vector of float64.
type Vec3 = [3]float64

func sub(a, b Vec3) Vec3           { return Vec3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }
func add(a, b Vec3) Vec3           { return Vec3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }
func scale(a Vec3, s float64) Vec3 { return Vec3{a[0] * s, a[1] * s, a[2] * s} }
func dot(a, b Vec3) float64        { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }
func cross(a, b Vec3) Vec3 {
	return Vec3{a[1]*b[2] - a[2]*b[1], a[2]*b[0] - a[0]*b[2], a[0]*b[1] - a[1]*b[0]}
}
func norm(a Vec3) Vec3 {
	l := math.Sqrt(dot(a, a))
	if l == 0 {
		return Vec3{0, 0, 1}
	}
	return scale(a, 1/l)
}

// View is an orthographic camera over the unit cube.
type View struct {
	Dir    Vec3 // direction of sight, into the scene (normalized on use)
	Up     Vec3
	Width  int
	Height int
	// Extent is the world-space width of the image; the default 1.8 covers
	// the unit cube from any angle (diagonal = sqrt(3) ~ 1.73). Smaller
	// values give the paper's close-up views.
	Extent float64
	// FOVDeg, when positive, switches to a perspective camera with this
	// horizontal field of view; the eye sits behind the domain center so
	// the image plane (through the center, Extent wide) subtends the FOV.
	// Block visibility ordering uses the central direction, so keep the
	// FOV moderate (< ~60 degrees).
	FOVDeg float64

	right, upv, dirN Vec3
	origin0          Vec3 // world position of pixel (0,0)
	dx, dy           Vec3 // world step per pixel
	eye              Vec3 // perspective eye point (FOVDeg > 0)
	persp            bool
	eyeDist          float64
	ready            bool
}

// DefaultView looks down at the ground surface from above and slightly
// south, the paper's typical view of the basin.
func DefaultView(w, h int) View {
	return View{Dir: Vec3{0.25, 0.45, 0.86}, Up: Vec3{0, -1, 0}, Width: w, Height: h}
}

// prepare computes the camera frame.
func (v *View) prepare() {
	if v.ready {
		return
	}
	if v.Extent <= 0 {
		v.Extent = 1.8
	}
	v.dirN = norm(v.Dir)
	r := cross(v.dirN, norm(v.Up))
	if dot(r, r) < 1e-12 {
		r = cross(v.dirN, Vec3{1, 0, 0})
		if dot(r, r) < 1e-12 {
			r = cross(v.dirN, Vec3{0, 1, 0})
		}
	}
	v.right = norm(r)
	v.upv = cross(v.right, v.dirN)
	center := Vec3{0.5, 0.5, 0.5}
	planeC := center // image plane through the domain center
	if v.FOVDeg > 0 {
		v.persp = true
		v.eyeDist = (v.Extent / 2) / math.Tan(v.FOVDeg*math.Pi/360)
		v.eye = sub(center, scale(v.dirN, v.eyeDist))
	} else {
		planeC = sub(center, scale(v.dirN, 2)) // plane 2 units before center
	}
	px := v.Extent / float64(v.Width)
	v.dx = scale(v.right, px)
	v.dy = scale(v.upv, -px) // image y grows downward
	v.origin0 = add(planeC,
		add(scale(v.right, -v.Extent/2+px/2),
			scale(v.upv, (v.Extent*float64(v.Height)/float64(v.Width))/2-px/2)))
}

// Prepare computes and freezes the camera frame: afterwards Project
// and ViewDir only read the struct, which makes the View safe to share
// across goroutines. The parallel render paths freeze a private copy, so
// a caller's View keeps its lazy semantics. Field changes after Prepare
// are not picked up — build a new View instead.
func (v *View) Prepare() {
	v.prepare()
	v.ready = true
}

// rowOffset is the part of pixel (x, y)'s ray that every pixel of scanline
// y shares, and rowRay the rest of it — the ray's origin and direction:
// castRows computes the first once per row on a prepared view.
func (v *View) rowOffset(y int) Vec3 { return scale(v.dy, float64(y)) }

func (v *View) rowRay(row Vec3, x int) (origin, dir Vec3) {
	o := add(v.origin0, add(scale(v.dx, float64(x)), row))
	if v.persp {
		return v.eye, norm(sub(o, v.eye))
	}
	return o, v.dirN
}

// projectBox returns the bounds, in pixel coordinates, of the projections
// of the eight corners of the box lo..hi — which bound the projection of
// the whole box, unless the view is a perspective one and the box reaches
// behind the eye plane, where Project clamps: inFront is false then.
func (v *View) projectBox(lo, hi Vec3) (fx0, fy0, fx1, fy1 float64, inFront bool) {
	v.prepare()
	fx0, fy0 = math.Inf(1), math.Inf(1)
	fx1, fy1 = math.Inf(-1), math.Inf(-1)
	inFront = true
	for i := 0; i < 8; i++ {
		p := lo
		if i&1 != 0 {
			p[0] = hi[0]
		}
		if i&2 != 0 {
			p[1] = hi[1]
		}
		if i&4 != 0 {
			p[2] = hi[2]
		}
		if v.persp && dot(sub(p, v.eye), v.dirN) < 1e-9 {
			inFront = false
		}
		x, y := v.Project(p)
		fx0, fy0 = math.Min(fx0, x), math.Min(fy0, y)
		fx1, fy1 = math.Max(fx1, x), math.Max(fy1, y)
	}
	return fx0, fy0, fx1, fy1, inFront
}

// Project returns the pixel coordinates of a world point (may be outside
// the image).
func (v *View) Project(p Vec3) (float64, float64) {
	v.prepare()
	px := v.Extent / float64(v.Width)
	if v.persp {
		rel := sub(p, v.eye)
		depth := dot(rel, v.dirN)
		if depth < 1e-9 {
			depth = 1e-9 // behind the eye: clamp to avoid blowups
		}
		q := add(v.eye, scale(rel, v.eyeDist/depth)) // onto the image plane
		rq := sub(q, v.origin0)
		return dot(rq, v.right) / px, -dot(rq, v.upv) / px
	}
	rel := sub(p, v.origin0)
	return dot(rel, v.right) / px, -dot(rel, v.upv) / px
}

// ViewDir returns the normalized direction of sight.
func (v *View) ViewDir() Vec3 {
	v.prepare()
	return v.dirN
}

// rayBox intersects a ray with an axis-aligned box, returning the entry and
// exit parameters; hit is false if the ray misses.
func rayBox(o, d Vec3, bmin, bmax Vec3) (t0, t1 float64, hit bool) {
	t0, t1 = math.Inf(-1), math.Inf(1)
	for i := 0; i < 3; i++ {
		if math.Abs(d[i]) < 1e-15 {
			if o[i] < bmin[i] || o[i] > bmax[i] {
				return 0, 0, false
			}
			continue
		}
		a := (bmin[i] - o[i]) / d[i]
		b := (bmax[i] - o[i]) / d[i]
		if a > b {
			a, b = b, a
		}
		if a > t0 {
			t0 = a
		}
		if b < t1 {
			t1 = b
		}
	}
	return t0, t1, t1 >= t0 && t1 >= 0
}

// OrbitView builds a view orbiting the domain center: azimuth in degrees
// around the vertical axis, elevation in degrees above the ground plane
// (90 = straight down at the surface, since z grows downward into the
// earth). Used for temporal/spatial exploration camera paths.
func OrbitView(w, h int, azimuthDeg, elevationDeg float64) View {
	az := azimuthDeg * math.Pi / 180
	el := elevationDeg * math.Pi / 180
	ce := math.Cos(el)
	dir := Vec3{ce * math.Cos(az), ce * math.Sin(az), math.Sin(el)}
	return View{Dir: dir, Up: Vec3{0, 0, -1}, Width: w, Height: h}
}

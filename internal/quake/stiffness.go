// Package quake implements the earthquake ground-motion simulation that
// produces the time-varying unstructured hexahedral dataset: a linear
// elastodynamic finite-element solver with explicit central-difference time
// stepping on the octree mesh (the method of Bao et al. used by the Quake
// project), a Ricker-wavelet source, a layered-plus-basin material model,
// and the on-disk dataset format read by the visualization pipeline.
package quake

import "math"

// Trilinear hexahedral element on the unit cube, 8 nodes x 3 dofs = 24.
// Because octree elements are axis-aligned cubes, the physical stiffness of
// an element with edge h and Lamé parameters (lambda, mu) is
//
//	K = h * (lambda*KLambda + mu*KMu)
//
// so the two 24x24 reference matrices below are computed once (2x2x2 Gauss
// quadrature, exact for trilinear elements) and reused for every element.
var (
	KLambda [24][24]float64
	KMu     [24][24]float64
)

func init() {
	computeReferenceStiffness()
}

// shapeGrad returns dN_i/d(x,y,z) at point (x,y,z) of the unit cube for
// corner i (bit 0 = x, bit 1 = y, bit 2 = z).
func shapeGrad(i int, x, y, z float64) (gx, gy, gz float64) {
	xf, dxf := 1-x, -1.0
	if i&1 != 0 {
		xf, dxf = x, 1.0
	}
	yf, dyf := 1-y, -1.0
	if i&2 != 0 {
		yf, dyf = y, 1.0
	}
	zf, dzf := 1-z, -1.0
	if i&4 != 0 {
		zf, dzf = z, 1.0
	}
	return dxf * yf * zf, xf * dyf * zf, xf * yf * dzf
}

func computeReferenceStiffness() {
	// 2-point Gauss rule mapped to [0,1]: points 0.5 +- 1/(2*sqrt(3)),
	// weight 1/2 each per axis (total volume 1).
	g := 0.5 / math.Sqrt(3)
	pts := [2]float64{0.5 - g, 0.5 + g}
	const w = 0.125 // (1/2)^3

	for _, gx := range pts {
		for _, gy := range pts {
			for _, gz := range pts {
				// B is 6x24 in Voigt order [exx eyy ezz gxy gyz gzx].
				var B [6][24]float64
				for i := 0; i < 8; i++ {
					dx, dy, dz := shapeGrad(i, gx, gy, gz)
					c := 3 * i
					B[0][c] = dx
					B[1][c+1] = dy
					B[2][c+2] = dz
					B[3][c] = dy
					B[3][c+1] = dx
					B[4][c+1] = dz
					B[4][c+2] = dy
					B[5][c] = dz
					B[5][c+2] = dx
				}
				// D_lambda = ones(3x3) in the normal block;
				// D_mu = diag(2,2,2,1,1,1).
				for a := 0; a < 24; a++ {
					for b := 0; b < 24; b++ {
						var dl, dm float64
						// lambda part: (e1+e2+e3)_a * (e1+e2+e3)_b
						sa := B[0][a] + B[1][a] + B[2][a]
						sb := B[0][b] + B[1][b] + B[2][b]
						dl = sa * sb
						for k := 0; k < 3; k++ {
							dm += 2 * B[k][a] * B[k][b]
						}
						for k := 3; k < 6; k++ {
							dm += B[k][a] * B[k][b]
						}
						KLambda[a][b] += w * dl
						KMu[a][b] += w * dm
					}
				}
			}
		}
	}
}

package quake

import (
	"math"
	"math/rand"
	"testing"
)

// combined builds K = h*(lambda*KL + mu*KM) as a dense matrix.
func combined(h, lambda, mu float64) [24][24]float64 {
	var k [24][24]float64
	for a := 0; a < 24; a++ {
		for b := 0; b < 24; b++ {
			k[a][b] = h * (lambda*KLambda[a][b] + mu*KMu[a][b])
		}
	}
	return k
}

func TestStiffnessSymmetric(t *testing.T) {
	k := combined(1, 1.7e9, 0.9e9)
	for a := 0; a < 24; a++ {
		for b := a + 1; b < 24; b++ {
			if math.Abs(k[a][b]-k[b][a]) > 1e-3*math.Abs(k[a][b])+1e-9 {
				t.Fatalf("K not symmetric at (%d,%d): %v vs %v", a, b, k[a][b], k[b][a])
			}
		}
	}
}

func TestRigidTranslationGivesZeroForce(t *testing.T) {
	// A rigid translation in each axis must produce no elastic force.
	for axis := 0; axis < 3; axis++ {
		var ue, fe [24]float64
		for i := 0; i < 8; i++ {
			ue[3*i+axis] = 1
		}
		elemForce(1, 2e9, 1e9, &ue, &fe)
		for d := 0; d < 24; d++ {
			if math.Abs(fe[d]) > 1 { // forces are ~1e9 scale; 1 N is zero here
				t.Fatalf("axis %d: fe[%d] = %v", axis, d, fe[d])
			}
		}
	}
}

func TestRigidRotationGivesZeroForce(t *testing.T) {
	// Infinitesimal rigid rotation about z: u = omega x r.
	var ue, fe [24]float64
	for i := 0; i < 8; i++ {
		x := float64(i & 1)
		y := float64(i >> 1 & 1)
		ue[3*i] = -y
		ue[3*i+1] = x
	}
	elemForce(1, 2e9, 1e9, &ue, &fe)
	for d := 0; d < 24; d++ {
		if math.Abs(fe[d]) > 1e-3 {
			t.Fatalf("rotation fe[%d] = %v", d, fe[d])
		}
	}
}

func TestStiffnessPositiveSemidefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var ue, fe [24]float64
		for i := range ue {
			ue[i] = rng.NormFloat64()
		}
		elemForce(1, 2e9, 1e9, &ue, &fe)
		var q float64
		for i := range ue {
			q += ue[i] * fe[i]
		}
		if q < -1e-3 {
			t.Fatalf("u^T K u = %v < 0", q)
		}
	}
}

func TestStiffnessScalesLinearlyWithH(t *testing.T) {
	var ue [24]float64
	for i := range ue {
		ue[i] = float64(i%5) - 2
	}
	var f1, f2 [24]float64
	elemForce(1, 1e9, 1e9, &ue, &f1)
	elemForce(2, 1e9, 1e9, &ue, &f2)
	for d := 0; d < 24; d++ {
		if math.Abs(f2[d]-2*f1[d]) > 1e-6*math.Abs(f1[d])+1e-9 {
			t.Fatalf("K(h) not linear in h at dof %d", d)
		}
	}
}

func TestUniaxialStretchEnergyMatchesTheory(t *testing.T) {
	// u_x = eps * x: uniform strain exx = eps. Strain energy density for
	// isotropic elasticity = 1/2 (lambda + 2 mu) eps^2; volume h^3.
	lambda, mu, eps, h := 2e9, 1e9, 1e-4, 1.0
	var ue, fe [24]float64
	for i := 0; i < 8; i++ {
		x := float64(i & 1)
		ue[3*i] = eps * x
	}
	elemForce(h, lambda, mu, &ue, &fe)
	var energy float64
	for i := range ue {
		energy += 0.5 * ue[i] * fe[i]
	}
	want := 0.5 * (lambda + 2*mu) * eps * eps * h * h * h
	if math.Abs(energy-want) > 1e-6*want {
		t.Errorf("uniaxial energy = %v, want %v", energy, want)
	}
}

func TestPureShearEnergyMatchesTheory(t *testing.T) {
	// u_x = gamma * y: engineering shear gxy = gamma.
	// Energy density = 1/2 mu gamma^2.
	lambda, mu, gamma := 2e9, 1e9, 1e-4
	var ue, fe [24]float64
	for i := 0; i < 8; i++ {
		y := float64(i >> 1 & 1)
		ue[3*i] = gamma * y
	}
	elemForce(1, lambda, mu, &ue, &fe)
	var energy float64
	for i := range ue {
		energy += 0.5 * ue[i] * fe[i]
	}
	want := 0.5 * mu * gamma * gamma
	if math.Abs(energy-want) > 1e-6*want {
		t.Errorf("shear energy = %v, want %v", energy, want)
	}
}

func TestRicker(t *testing.T) {
	// Peak value 1 at t = t0; symmetric; decays.
	if math.Abs(Ricker(2, 0.6, 0.6)-1) > 1e-12 {
		t.Error("Ricker peak is not 1")
	}
	if math.Abs(Ricker(2, 0.6, 0.4)-Ricker(2, 0.6, 0.8)) > 1e-12 {
		t.Error("Ricker not symmetric about t0")
	}
	if math.Abs(Ricker(2, 0.6, 3)) > 1e-6 {
		t.Error("Ricker does not decay")
	}
}

// elemForce computes fe = h*(lambda*KLambda + mu*KMu) * ue for one element,
// accumulating into fe (which the caller zeroes).
func elemForce(h, lambda, mu float64, ue *[24]float64, fe *[24]float64) {
	for a := 0; a < 24; a++ {
		var sl, sm float64
		rowL := &KLambda[a]
		rowM := &KMu[a]
		for b := 0; b < 24; b++ {
			sl += rowL[b] * ue[b]
			sm += rowM[b] * ue[b]
		}
		fe[a] = h * (lambda*sl + mu*sm)
	}
}

// Package integrals implements the molecular integrals the paper's system
// needs: contracted Gaussian electron repulsion integrals (ERIs) computed
// in shell-quartet batches via the McMurchie-Davidson scheme, the
// one-electron overlap/kinetic/nuclear-attraction integrals, and an
// independent Obara-Saika implementation used as a cross-check oracle in
// tests. It plays the role of the ERD integrals package in the paper's
// software stack.
//
// Cartesian integrals are evaluated over raw polynomial Gaussians
// x^i y^j z^k exp(-a r^2); normalization lives in the contraction
// coefficients (see basis.Build), and d shells are transformed to the five
// real spherical components. ERIs are returned in batches
// (MN|PQ) = { (ij|kl) : i in M, j in N, k in P, l in Q } as the paper
// defines them (Sec. II-C).
package integrals

import "math"

// maxBoysM is the largest Boys order the tables support: enough for
// (dd|dd) with nuclear-attraction headroom.
const maxBoysM = 24

// Boys tabulation parameters. F_m is stored on a uniform grid of spacing
// boysDX over [0, boysXMax) for orders 0..boysTabM, together with
// exp(-x_i); at runtime F_mmax and exp(-x) come from boysTerms-term Taylor
// expansions around the nearest grid point (|dx| <= boysDX/2, so the
// truncation error is below (boysDX/2)^boysTerms / boysTerms! ~ 2.3e-17)
// and the lower orders follow from stable downward recursion. Above
// boysXMax the asymptotic F_0 feeds upward recursion, as before.
const (
	boysDX     = 1.0 / 16
	boysInvDX  = 16.0
	boysXMax   = 36.0
	boysTerms  = 8
	boysTabM   = maxBoysM + boysTerms - 1 // top order a Taylor expansion reads
	boysRowLen = boysTabM + 2             // F_0..F_boysTabM plus exp(-x_i)
	boysGridN  = int(boysXMax*boysInvDX) + 1
)

var boysTab [boysGridN * boysRowLen]float64

// boysInvFact[k] = 1/k! weighs the k-th Taylor term, and
// boysInvOdd[m] = 1/(2m-1) the downward recursion step from F_m, so
// neither inner loop divides.
var (
	boysInvFact = [boysTerms]float64{1, 1, 1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040}
	boysInvOdd  [maxBoysM + 1]float64
)

func init() {
	for m := 1; m <= maxBoysM; m++ {
		boysInvOdd[m] = 1 / float64(2*m-1)
	}
	for i := 0; i < boysGridN; i++ {
		x := float64(i) * boysDX
		row := boysTab[i*boysRowLen : (i+1)*boysRowLen]
		boysSeries(boysTabM, x, row[:boysTabM+1])
		row[boysTabM+1] = math.Exp(-x)
	}
}

// Boys computes the Boys function F_m(x) = int_0^1 t^{2m} exp(-x t^2) dt
// for m = 0..mmax into out (len >= mmax+1), and returns out.
//
// The tabulated fast path serves x < 36; it agrees with the series
// reference (boysSeries) to ~1e-15 absolute. Larger x uses the asymptotic
// F_0 with stable upward recursion.
func Boys(mmax int, x float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, mmax+1)
	}
	if mmax > maxBoysM {
		panic("integrals: Boys order too large")
	}
	if x >= boysXMax {
		// F_0(x) ~ sqrt(pi/x)/2 for large x (erf(sqrt(x)) ~ 1 to < 1e-16).
		ex := math.Exp(-x)
		out[0] = 0.5 * math.Sqrt(math.Pi/x)
		for m := 0; m < mmax; m++ {
			out[m+1] = (float64(2*m+1)*out[m] - ex) / (2 * x)
		}
		return out[:mmax+1]
	}
	i := int(x*boysInvDX + 0.5)
	d := x - float64(i)*boysDX
	row := boysTab[i*boysRowLen:]
	// Shared Taylor factors (-d)^k / k! evaluate both F_mmax(x) (offset
	// rows of the table are exactly the derivatives: F_m' = -F_{m+1}) and
	// exp(-x) = exp(-x_i) exp(-d) without calling math.Exp.
	dp := 1.0
	f := row[mmax]
	ex := 1.0
	for k := 1; k < boysTerms; k++ {
		dp *= -d
		dk := dp * boysInvFact[k]
		f += row[mmax+k] * dk
		ex += dk
	}
	ex *= row[boysRowLen-1]
	out[mmax] = f
	for m := mmax; m > 0; m-- {
		out[m-1] = (2*x*out[m] + ex) * boysInvOdd[m]
	}
	return out[:mmax+1]
}

// boysF0 is the single-order fast path for F_0 used by the (ss|ss) kernel:
// one Taylor evaluation, no recursion and no exp.
func boysF0(x float64) float64 {
	if x >= boysXMax {
		return 0.5 * math.Sqrt(math.Pi/x)
	}
	i := int(x*boysInvDX + 0.5)
	d := x - float64(i)*boysDX
	row := boysTab[i*boysRowLen:]
	dp := 1.0
	f := row[0]
	for k := 1; k < boysTerms; k++ {
		dp *= -d
		f += row[k] * dp * boysInvFact[k]
	}
	return f
}

// boysSeries is the reference implementation the table is built from (and
// that tests compare against): a convergent series at the top order with
// downward recursion, or the asymptotic upward path for large x.
func boysSeries(mmax int, x float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, mmax+1)
	}
	switch {
	case x < 1e-14:
		for m := 0; m <= mmax; m++ {
			out[m] = 1 / float64(2*m+1)
		}
	case x > 45:
		ex := math.Exp(-x)
		out[0] = 0.5 * math.Sqrt(math.Pi/x)
		for m := 0; m < mmax; m++ {
			out[m+1] = (float64(2*m+1)*out[m] - ex) / (2 * x)
		}
	default:
		// Series at the top order: F_m(x) = e^{-x} sum_k (2x)^k /
		// ((2m+1)(2m+3)...(2m+2k+1)).
		ex := math.Exp(-x)
		sum := 1.0 / float64(2*mmax+1)
		term := sum
		for k := 1; k < 400; k++ {
			term *= 2 * x / float64(2*mmax+2*k+1)
			sum += term
			if term < 1e-17*sum {
				break
			}
		}
		out[mmax] = ex * sum
		for m := mmax; m > 0; m-- {
			out[m-1] = (2*x*out[m] + ex) / float64(2*m-1)
		}
	}
	return out[:mmax+1]
}

// BoysSingle returns F_m(x).
func BoysSingle(m int, x float64) float64 {
	var buf [maxBoysM + 1]float64
	return Boys(m, x, buf[:])[m]
}

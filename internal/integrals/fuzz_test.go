package integrals

import (
	"math"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// FuzzBoys checks the Boys function invariants for arbitrary inputs:
// bounds, monotonicity in m, and the downward recursion identity.
func FuzzBoys(f *testing.F) {
	f.Add(0.0)
	f.Add(1e-15)
	f.Add(0.5)
	f.Add(34.999)
	f.Add(35.001)
	f.Add(1e4)
	// Seeds at the tabulation's interesting points: grid midpoints (worst
	// Taylor truncation), the last grid point, and the table/asymptotic
	// crossover at x = 36.
	f.Add(1.0/32 + 1e-12)
	f.Add(3.0 + 1.0/32)
	f.Add(35.96875)
	f.Add(35.999999999)
	f.Add(36.0)
	f.Add(36.000000001)
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip()
		}
		x = math.Abs(x)
		if x > 1e6 {
			t.Skip()
		}
		const mmax = 12
		out := Boys(mmax, x, nil)
		ex := math.Exp(-x)
		for m := 0; m <= mmax; m++ {
			if out[m] < 0 || out[m] > 1 {
				t.Fatalf("F_%d(%g) = %g out of [0,1]", m, x, out[m])
			}
			if m > 0 && out[m] > out[m-1]+1e-15 {
				t.Fatalf("F not monotone in m at x=%g", x)
			}
			if m < mmax {
				lhs := float64(2*m+1) * out[m]
				rhs := 2*x*out[m+1] + ex
				if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
					t.Fatalf("recursion identity broken at m=%d x=%g: %g vs %g",
						m, x, lhs, rhs)
				}
			}
		}
	})
}

// FuzzERIKernelClasses drives arbitrary geometries and exponents through
// every generated-kernel class key (L clamped to 0..2 per shell, so the
// s/p, d and mirror keys are all reachable) and cross-checks the
// dispatched result against the general MD path.
func FuzzERIKernelClasses(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), 1.0, 0.5, 0.3, 2.0, 0.5, -0.4, 1.0)
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), 0.8, 1.5, 0.9, 0.2, -1.1, 0.7, 0.0)
	f.Add(uint8(1), uint8(2), uint8(2), uint8(1), 11.0, 0.1, 3.3, 0.6, 0.0, 0.0, 0.0)
	f.Add(uint8(0), uint8(2), uint8(1), uint8(1), 2.5, 2.5, 2.5, 2.5, 0.3, 0.3, 0.3)
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), 0.4, 3.0, 1.2, 0.7, 0.9, -0.5, 0.2)
	f.Add(uint8(0), uint8(1), uint8(1), uint8(0), 1.7, 0.3, 0.6, 5.0, -0.8, 0.1, 1.4)
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1), 0.9, 0.9, 0.2, 2.2, 0.0, 1.3, -0.6)
	f.Fuzz(func(t *testing.T, la, lb, lc, ld uint8, e1, e2, e3, e4, gx, gy, gz float64) {
		for _, v := range []float64{e1, e2, e3, e4, gx, gy, gz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		clampE := func(e float64) float64 {
			e = math.Abs(e)
			if e < 1e-2 || e > 1e3 {
				return 1.0
			}
			return e
		}
		clampG := func(g float64) float64 {
			if math.Abs(g) > 8 {
				return math.Mod(g, 8)
			}
			return g
		}
		mk := func(l uint8, e, x, y, z float64) *basis.Shell {
			return rawShell(int(l%3), chem.Vec3{X: clampG(x), Y: clampG(y), Z: clampG(z)},
				[]float64{clampE(e)}, []float64{1})
		}
		fast := NewEngine()
		slow := NewEngine()
		slow.DisableFastKernels = true
		bra := NewShellPair(mk(la, e1, gx, gy, gz), mk(lb, e2, gy, gz, gx), 0)
		ket := NewShellPair(mk(lc, e3, -gx, gz, gy), mk(ld, e4, gz, -gy, gx), 0)
		got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
		ref := slow.eriCart(bra, ket)
		if fast.Stats.FastQuartets != 1 || fast.Stats.GeneralQuartets != 0 {
			t.Fatalf("L<=2 quartet not served by a kernel: %+v", fast.Stats)
		}
		var scale float64
		for _, v := range ref {
			if m := math.Abs(v); m > scale {
				scale = m
			}
		}
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-10*(1+scale) {
				t.Fatalf("kernel/general mismatch at %d: %.14g vs %.14g", i, got[i], ref[i])
			}
		}
	})
}

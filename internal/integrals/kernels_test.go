package integrals

import (
	"math"
	"math/rand"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// randShellWide is randShell with a wide exponent range (10^-1..10^2.5)
// and signed contractions: the property sweep for the generated kernels
// must cover tight cores and diffuse tails, not just the comfortable
// middle.
func randShellWide(rng *rand.Rand, l int) *basis.Shell {
	nprim := 1 + rng.Intn(3)
	exps := make([]float64, nprim)
	coefs := make([]float64, nprim)
	for i := range exps {
		exps[i] = math.Pow(10, -1+3.5*rng.Float64())
		coefs[i] = (0.3 + rng.Float64()) * float64(1-2*rng.Intn(2))
	}
	c := chem.Vec3{
		X: rng.NormFloat64(),
		Y: rng.NormFloat64(),
		Z: rng.NormFloat64(),
	}
	return rawShell(l, c, exps, coefs)
}

// Property sweep: for every s/p class key, the generated kernel path
// must match both the general MD path and the independent Obara-Saika
// oracle to 1e-10 over random exponents, contractions and geometries.
func TestKernelsAgainstGeneralMDAndOS(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	for la := 0; la <= 1; la++ {
		for lb := 0; lb <= 1; lb++ {
			for lc := 0; lc <= 1; lc++ {
				for ld := 0; ld <= 1; ld++ {
					for trial := 0; trial < 8; trial++ {
						a := randShellWide(rng, la)
						b := randShellWide(rng, lb)
						c := randShellWide(rng, lc)
						d := randShellWide(rng, ld)
						bra := fast.Pair(a, b)
						ket := fast.Pair(c, d)
						got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
						ref := append([]float64(nil), slow.eriCart(bra, ket)...)
						os := ERICartOS(a, b, c, d)
						var scale float64
						for _, v := range os {
							if m := math.Abs(v); m > scale {
								scale = m
							}
						}
						for i := range got {
							if math.Abs(got[i]-ref[i]) > 1e-10*(1+scale) {
								t.Fatalf("L=%d%d%d%d trial %d elem %d: kernel %.14g vs MD %.14g",
									la, lb, lc, ld, trial, i, got[i], ref[i])
							}
							if math.Abs(got[i]-os[i]) > 1e-10*(1+scale) {
								t.Fatalf("L=%d%d%d%d trial %d elem %d: kernel %.14g vs OS %.14g",
									la, lb, lc, ld, trial, i, got[i], os[i])
							}
						}
					}
				}
			}
		}
	}
	if fast.Stats.FastQuartets != 16*8 {
		t.Fatalf("fast kernels served %d of %d quartets", fast.Stats.FastQuartets, 16*8)
	}
	if slow.Stats.FastQuartets != 0 {
		t.Fatalf("DisableFastKernels still counted %d fast quartets", slow.Stats.FastQuartets)
	}
}

// Coincident centers drive the Boys argument to its x=0 corner and make
// the one-p closed forms lose their PA/PQ terms.
func TestKernelsCoincidentCenters(t *testing.T) {
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	c := chem.Vec3{X: 0.3, Y: -0.1, Z: 0.9}
	mk := func(l int, e float64) *basis.Shell {
		return rawShell(l, c, []float64{e}, []float64{1})
	}
	for la := 0; la <= 1; la++ {
		for lc := 0; lc <= 1; lc++ {
			bra := fast.Pair(mk(la, 1.1), mk(1, 0.6))
			ket := fast.Pair(mk(lc, 2.0), mk(1, 0.4))
			got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
			ref := slow.eriCart(bra, ket)
			for i := range got {
				if math.Abs(got[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
					t.Fatalf("coincident L=%d1%d1 elem %d: %.14g vs %.14g",
						la, lc, i, got[i], ref[i])
				}
			}
		}
	}
}

// The dispatcher must route every L<=2-per-shell quartet to a generated
// kernel, count it once as s/p or d-bearing, and send anything with an
// f shell to the general path.
func TestKernelDispatchCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := NewEngine()
	sp := func(l int) *ShellPair {
		return e.Pair(randShell(rng, l), randShell(rng, 0))
	}
	e.eriCartAuto(sp(0), sp(0))
	e.eriCartAuto(sp(1), sp(1))
	if e.Stats.FastSP != 2 || e.Stats.FastGen != 0 || e.Stats.FastQuartets != 2 {
		t.Fatalf("s/p quartets not counted once as s/p: %+v", e.Stats)
	}
	e.eriCartAuto(sp(0), sp(1))
	if e.Stats.FastSP != 3 || e.Stats.MirrorGen != 1 || e.Stats.FastQuartets != 3 {
		t.Fatalf("mirrored s/p quartet miscounted: %+v", e.Stats)
	}
	e.eriCartAuto(sp(2), sp(0))
	if e.Stats.FastGen != 1 || e.Stats.FastSP != 3 || e.Stats.FastQuartets != 4 {
		t.Fatalf("d quartet not dispatched to a generated kernel: %+v", e.Stats)
	}
	if e.Stats.ByClass[ClassDS][ClassSS] != 1 {
		t.Fatalf("ByClass miscounted: %+v", e.Stats.ByClass)
	}
	e.eriCartAuto(sp(3), sp(0))
	if e.Stats.GeneralQuartets != 1 || e.Stats.FastQuartets != 4 {
		t.Fatalf("f quartet did not take the general path: %+v", e.Stats)
	}
	if e.Stats.ByClass[ClassHi][ClassSS] != 1 {
		t.Fatalf("ByClass missed the beyond-d bucket: %+v", e.Stats.ByClass)
	}
}

// Prescreened pairs (fewer primitive pairs) must flow through the
// kernels identically.
func TestKernelsWithPrescreening(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fast := NewEngine()
	fast.PrimTol = 1e-13
	slow := NewEngine()
	slow.DisableFastKernels = true
	slow.PrimTol = 1e-13
	a := randShell(rng, 1)
	far := randShell(rng, 1)
	far.Center = chem.Vec3{X: 8}
	bra := fast.Pair(a, far)
	ket := fast.Pair(a, a)
	got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
	ref := slow.eriCart(bra, ket)
	for i := range got {
		if math.Abs(got[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
			t.Fatalf("prescreened kernel mismatch at %d", i)
		}
	}
}

func benchKernelPair(b *testing.B, l1, l2, l3, l4 int, disable bool) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	e.DisableFastKernels = disable
	bra := e.Pair(randShell(rng, l1), randShell(rng, l2))
	ket := e.Pair(randShell(rng, l3), randShell(rng, l4))
	e.ERI(bra, ket) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ERI(bra, ket)
	}
}

func BenchmarkERIKernelSSSS(b *testing.B)  { benchKernelPair(b, 0, 0, 0, 0, false) }
func BenchmarkERIKernelPSSS(b *testing.B)  { benchKernelPair(b, 1, 0, 0, 0, false) }
func BenchmarkERIKernelPPSS(b *testing.B)  { benchKernelPair(b, 1, 1, 0, 0, false) }
func BenchmarkERIKernelPPPP(b *testing.B)  { benchKernelPair(b, 1, 1, 1, 1, false) }
func BenchmarkERIGeneralSSSS(b *testing.B) { benchKernelPair(b, 0, 0, 0, 0, true) }
func BenchmarkERIGeneralPPPP(b *testing.B) { benchKernelPair(b, 1, 1, 1, 1, true) }

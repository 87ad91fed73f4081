package integrals

import (
	"math"
	"math/rand"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// Property sweep over every class key with L <= 2 per shell — all 28
// canonical classes and every mirrored one, s/p and d alike: the
// generated kernel path (including mirror-transposed dispatch) must
// match both the general MD path and the independent Obara-Saika oracle
// to 1e-10 over random exponents, contractions and geometries.
func TestGenKernelsAgainstGeneralMDAndOS(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	var nsp, nd int64
	for la := 0; la <= 2; la++ {
		for lb := 0; lb <= 2; lb++ {
			for lc := 0; lc <= 2; lc++ {
				for ld := 0; ld <= 2; ld++ {
					if la < 2 && lb < 2 && lc < 2 && ld < 2 {
						nsp++
					} else {
						nd++
					}
					for trial := 0; trial < 4; trial++ {
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
	st := &fast.Stats
	if st.FastSP != nsp*4 || st.FastGen != nd*4 || st.FastQuartets != (nsp+nd)*4 {
		t.Fatalf("generated kernels served sp=%d gen=%d fast=%d, want %d + %d",
			st.FastSP, st.FastGen, st.FastQuartets, nsp*4, nd*4)
	}
	if st.GeneralQuartets != 0 {
		t.Fatalf("%d L<=2 quartets leaked to the general path", st.GeneralQuartets)
	}
}

// Mirror routing: non-canonical class keys (bra class < ket class) must
// go through the swap-and-transpose wrapper, counted in MirrorGen, and
// still match the general path and the Obara-Saika oracle. Every
// mirrored s/p key, and one spot per mirrored d key family.
func TestGenKernelMirrorRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(99173))
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	cases := []struct {
		la, lb, lc, ld int
		bc, kc         int
	}{
		{0, 0, 1, 0, ClassSS, ClassPS}, // (ss|ps)
		{0, 0, 0, 1, ClassSS, ClassPS}, // (ss|sp) — sp aliases ps
		{0, 0, 1, 1, ClassSS, ClassPP}, // (ss|pp)
		{1, 0, 1, 1, ClassPS, ClassPP}, // (ps|pp)
		{0, 1, 1, 1, ClassPS, ClassPP}, // (sp|pp)
		{0, 0, 2, 0, ClassSS, ClassDS}, // (ss|ds)
		{1, 0, 0, 2, ClassPS, ClassDS}, // (ps|sd) — sd aliases ds
		{1, 1, 2, 2, ClassPP, ClassDD}, // (pp|dd)
		{2, 0, 1, 2, ClassDS, ClassPD}, // (ds|pd)
		{1, 2, 2, 1, ClassPD, ClassDP}, // (pd|dp)
		{2, 1, 2, 2, ClassDP, ClassDD}, // (dp|dd)
	}
	for n, tc := range cases {
		a, b := randShellWide(rng, tc.la), randShellWide(rng, tc.lb)
		c, d := randShellWide(rng, tc.lc), randShellWide(rng, tc.ld)
		bra, ket := fast.Pair(a, b), fast.Pair(c, d)
		before := fast.Stats.MirrorGen
		got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
		if fast.Stats.MirrorGen != before+1 {
			t.Fatalf("case %d (%d%d|%d%d): not mirror-routed: %+v", n, tc.la, tc.lb, tc.lc, tc.ld, fast.Stats)
		}
		if fast.Stats.ByClass[tc.bc][tc.kc] == 0 {
			t.Fatalf("case %d: ByClass[%s][%s] not counted",
				n, PairClassName(tc.bc), PairClassName(tc.kc))
		}
		ref := slow.eriCart(bra, ket)
		os := ERICartOS(a, b, c, d)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-10*(1+math.Abs(ref[i])) {
				t.Fatalf("case %d elem %d: mirror %.14g vs MD %.14g", n, i, got[i], ref[i])
			}
			if math.Abs(got[i]-os[i]) > 1e-10*(1+math.Abs(os[i])) {
				t.Fatalf("case %d elem %d: mirror %.14g vs OS %.14g", n, i, got[i], os[i])
			}
		}
	}
}

// Coincident centers drive the Boys argument to its x = 0 corner, zero
// PA/PB/PQ and expose the structural-zero E entries the generator does
// not fold away: every class key, canonical and mirrored.
func TestGenKernelsCoincidentCenters(t *testing.T) {
	fast := NewEngine()
	slow := NewEngine()
	slow.DisableFastKernels = true
	c := chem.Vec3{X: -0.2, Y: 0.4, Z: 1.1}
	mk := func(l int, e float64) *basis.Shell {
		return rawShell(l, c, []float64{e}, []float64{1})
	}
	forEachClassKey(func(l [4]int) {
		bra := fast.Pair(mk(l[0], 1.3), mk(l[1], 0.7))
		ket := fast.Pair(mk(l[2], 2.1), mk(l[3], 0.5))
		got := append([]float64(nil), fast.eriCartAuto(bra, ket)...)
		ref := slow.eriCart(bra, ket)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
				t.Fatalf("coincident L=%v elem %d: %.14g vs %.14g", l, i, got[i], ref[i])
			}
		}
	})
	if fast.Stats.GeneralQuartets != 0 {
		t.Fatalf("%d coincident quartets took the general path", fast.Stats.GeneralQuartets)
	}
}

// forEachClassKey calls fn with every shell angular-momentum key
// (la, lb, lc, ld), each 0..2: the 28 canonical kernel classes, their
// mirrors, and the sp/sd aliases.
func forEachClassKey(fn func(l [4]int)) {
	for k := 0; k < 81; k++ {
		fn([4]int{k / 27, k / 9 % 3, k / 3 % 3, k % 3})
	}
}

// Generated kernels must be allocation-free at steady state for every
// class key, including the mirror-transpose wrapper (mirroring
// TestERIBatchZeroAlloc).
func TestGenKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEngine()
	forEachClassKey(func(l [4]int) {
		bra := e.Pair(randShellWide(rng, l[0]), randShellWide(rng, l[1]))
		ket := e.Pair(randShellWide(rng, l[2]), randShellWide(rng, l[3]))
		e.eriCartAuto(bra, ket) // warm scratch
		if n := testing.AllocsPerRun(20, func() {
			e.eriCartAuto(bra, ket)
		}); n != 0 {
			t.Errorf("L=%v: %v allocs/op at steady state", l, n)
		}
	})
}

// On a real d-bearing basis (methane, cc-pVDZ) the dispatcher must
// route 100% of quartets to generated kernels: every pair class is
// L<=2 per side, so the general path must never fire, and the s/p and
// d-bearing counters must partition the quartets exactly.
func TestCCPVDZDispatchCoverage(t *testing.T) {
	bs, err := basis.Build(chem.Methane(), "cc-pvdz")
	if err != nil {
		t.Fatal(err)
	}
	pt := NewPairTable(bs,
		func(m, p int) float64 { return 1 },
		func(m, p int) bool { return true }, 0)
	e := NewEngine()
	var qs []Quartet
	np := pt.NumPairs()
	for b := PairID(0); b < PairID(np); b++ {
		for k := PairID(0); k < PairID(np); k += 7 { // stride: keep it quick
			qs = append(qs, Quartet{Bra: b, Ket: k})
		}
	}
	e.ERIBatch(pt, qs, func(int, []float64) {})
	st := &e.Stats
	if st.Quartets == 0 || st.GeneralQuartets != 0 {
		t.Fatalf("general path fired on cc-pVDZ: %d of %d quartets general",
			st.GeneralQuartets, st.Quartets)
	}
	if st.FastSP+st.FastGen != st.Quartets || st.FastQuartets != st.Quartets {
		t.Fatalf("fast counts inconsistent: sp=%d gen=%d fast=%d total=%d",
			st.FastSP, st.FastGen, st.FastQuartets, st.Quartets)
	}
	if st.FastSP == 0 || st.FastGen == 0 || st.ByClass[ClassDS][ClassDS] == 0 {
		t.Fatalf("cc-pVDZ did not exercise both s/p and d kernels: %+v", st)
	}
	var sp int64
	for bc := ClassSS; bc <= ClassPP; bc++ {
		for kc := ClassSS; kc <= ClassPP; kc++ {
			sp += st.ByClass[bc][kc]
		}
	}
	if st.FastSP != sp {
		t.Fatalf("FastSP = %d, but ByClass holds %d all-s/p quartets", st.FastSP, sp)
	}
	if st.GeneralFraction() != 0 {
		t.Fatalf("GeneralFraction = %v, want 0", st.GeneralFraction())
	}
}

func BenchmarkERIKernelDSSS(b *testing.B)  { benchKernelPair(b, 2, 0, 0, 0, false) }
func BenchmarkERIKernelPDPS(b *testing.B)  { benchKernelPair(b, 1, 2, 1, 0, false) }
func BenchmarkERIKernelDDDD(b *testing.B)  { benchKernelPair(b, 2, 2, 2, 2, false) }
func BenchmarkERIGeneralDSSS(b *testing.B) { benchKernelPair(b, 2, 0, 0, 0, true) }
func BenchmarkERIGeneralPDPS(b *testing.B) { benchKernelPair(b, 1, 2, 1, 0, true) }
func BenchmarkERIGeneralDDDD(b *testing.B) { benchKernelPair(b, 2, 2, 2, 2, true) }

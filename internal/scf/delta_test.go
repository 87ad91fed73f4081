package scf

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

// randDensity returns a seeded symmetric pseudo-density with decaying
// off-diagonals.
func randDensity(nf int, seed int64) *linalg.Matrix {
	d := linalg.NewMatrix(nf, nf)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nf; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * math.Exp(-0.1*float64(i-j))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// The property the ΔD driver rests on: G is linear in the density, so
// G(D) = G(D_prev) + G(D - D_prev) to floating-point accumulation error.
// Checked across alkanes and a d-shell case, with the stored-ERI cache
// in the loop so the replay path carries the delta builds exactly as the
// SCF driver uses it.
func TestDeltaLinearityProperty(t *testing.T) {
	for _, tc := range []struct {
		name, bname string
		mol         *chem.Molecule
	}{
		{"alkane2-sto3g", "sto-3g", chem.Alkane(2)},
		{"alkane3-sto3g", "sto-3g", chem.Alkane(3)},
		{"h2-ccpvdz", "cc-pvdz", chem.Hydrogen2(0.9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, err := basis.Build(tc.mol, tc.bname)
			if err != nil {
				t.Fatal(err)
			}
			scr := screen.Compute(bs, 1e-11)
			store := integrals.NewERIStore(bs.NumShells(), 0, nil, 1, nil)
			opt := core.Options{Prow: 2, Pcol: 2, ERIStore: store}
			for seed := int64(0); seed < 3; seed++ {
				d := randDensity(bs.NumFuncs, 100+seed)
				dPrev := randDensity(bs.NumFuncs, 200+seed)
				delta := d.Clone()
				delta.AXPY(-1, dPrev)

				full := core.Build(bs, scr, d, opt)
				base := core.Build(bs, scr, dPrev, opt)
				inc := core.Build(bs, scr, delta, opt)
				if full.Err != nil || base.Err != nil || inc.Err != nil {
					t.Fatalf("build errors: %v %v %v", full.Err, base.Err, inc.Err)
				}
				sum := base.G.Clone()
				sum.AXPY(1, inc.G)
				if diff := linalg.MaxAbsDiff(full.G, sum); diff > 1e-10 {
					t.Fatalf("seed %d: |G(D) - G(Dprev) - G(dD)| = %g", seed, diff)
				}
			}
			if st := store.Stats(); st.TaskHits == 0 {
				t.Fatalf("store never replayed: %+v", st)
			}
		})
	}
}

// Full SCF equivalence: the stored-ERI cache plus ΔD incremental builds
// must reproduce the plain run's converged energy to 1e-9 (without the
// density screen both paths are exact). Both runs converge well past
// that tolerance, so where each stops does not decide the comparison.
func TestDeltaDCacheMatchesPlain(t *testing.T) {
	for _, mol := range []*chem.Molecule{chem.Methane(), chem.Alkane(2)} {
		base, err := RunHF(mol, Options{
			BasisName: "sto-3g", Engine: EngineGTFock, Prow: 2, Pcol: 2,
			ConvTol: 1e-11, DTol: 1e-7,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunHF(mol, Options{
			BasisName: "sto-3g", Engine: EngineGTFock, Prow: 2, Pcol: 2,
			ConvTol: 1e-11, DTol: 1e-7,
			ERICache: true, DeltaD: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !base.Converged || !res.Converged {
			t.Fatalf("%s: convergence %v/%v", mol.Formula(), base.Converged, res.Converged)
		}
		if diff := math.Abs(res.Energy - base.Energy); diff > 1e-9 {
			t.Fatalf("%s: cached ΔD energy off by %g", mol.Formula(), diff)
		}
		// Iteration 1 records and builds fully; after it the default
		// schedule is 8 incremental replays, then a full drift-reset
		// build (iteration 10, 19, ...), and every build after the
		// recording one is served from the cache.
		const resetEvery = 8
		for i, it := range res.Iterations {
			if want := i%(resetEvery+1) != 0; it.DeltaBuild != want {
				t.Fatalf("iteration %d: DeltaBuild = %v, want %v", i+1, it.DeltaBuild, want)
			}
			if i > 0 && (it.Cache.TaskMisses != 0 || it.Cache.TaskHits == 0) {
				t.Fatalf("iteration %d: cache hits/misses %d/%d",
					i+1, it.Cache.TaskHits, it.Cache.TaskMisses)
			}
		}
		if res.CacheStats.HitRate() == 0 {
			t.Fatalf("no aggregate cache hits: %+v", res.CacheStats)
		}
	}
}

// The drift-reset policy: DeltaDResetEvery bounds consecutive
// incremental builds, forcing a periodic full rebuild that rebases the
// accumulated G.
func TestDeltaDResetEvery(t *testing.T) {
	res, err := RunHF(chem.Alkane(2), Options{
		BasisName: "sto-3g", Engine: EngineGTFock, Prow: 1, Pcol: 1,
		DeltaD: true, DeltaDResetEvery: 2,
		DIIS: -1, // slow convergence: enough iterations to see resets
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 6 {
		t.Fatalf("only %d iterations; reset pattern not observable", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		wantDelta := i%3 != 0 // full, δ, δ, full, δ, δ, ...
		if it.DeltaBuild != wantDelta {
			t.Fatalf("iteration %d: DeltaBuild = %v, want %v", i+1, it.DeltaBuild, wantDelta)
		}
	}
}

// Satellite regression: FockStats must be recorded per iteration, not
// silently overwritten — each gtfock iteration carries its own stats
// object and the result-level field is the final build's.
func TestPerIterationFockStats(t *testing.T) {
	res, err := RunHF(chem.Methane(), Options{
		BasisName: "sto-3g", Engine: EngineGTFock, Prow: 2, Pcol: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) < 2 {
		t.Fatalf("only %d iterations", len(res.Iterations))
	}
	for i, it := range res.Iterations {
		if it.FockStats == nil {
			t.Fatalf("iteration %d: no FockStats", i+1)
		}
		if i > 0 && it.FockStats == res.Iterations[i-1].FockStats {
			t.Fatalf("iterations %d and %d share a FockStats object", i, i+1)
		}
	}
	if res.FockStats != res.Iterations[len(res.Iterations)-1].FockStats {
		t.Fatal("result FockStats is not the final iteration's")
	}
}

// Satellite regression: blow-ups must surface at the iteration that
// produced them. The guard helper attributes NaN and Inf entries with
// the producing iteration and matrix, and a poisoned warm start is
// caught before any work at iteration 1.
func TestBlowUpReportedAtProducingIteration(t *testing.T) {
	m := linalg.NewMatrix(2, 2)
	if err := nonFiniteErr(m, 3, "two-electron matrix"); err != nil {
		t.Fatalf("finite matrix flagged: %v", err)
	}
	m.Set(1, 0, math.Inf(1))
	err := nonFiniteErr(m, 3, "two-electron matrix")
	if !errors.Is(err, ErrNumericalBlowUp) {
		t.Fatalf("err = %v, want ErrNumericalBlowUp", err)
	}
	for _, want := range []string{"iteration 3", "two-electron matrix", "(1,0)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	m.Set(1, 0, math.NaN())
	if err := nonFiniteErr(m, 1, "Fock matrix"); !errors.Is(err, ErrNumericalBlowUp) {
		t.Fatalf("NaN not flagged: %v", err)
	}

	// End to end: a poisoned warm start is attributed to iteration 1.
	mol := chem.Hydrogen2(0.74)
	bs, berr := basis.Build(mol, "sto-3g")
	if berr != nil {
		t.Fatal(berr)
	}
	bad := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	bad.Set(0, 1, math.Inf(1))
	_, err = RunHF(mol, Options{
		BasisName: "sto-3g", Engine: EngineSerial, InitialFock: bad,
	})
	if !errors.Is(err, ErrNumericalBlowUp) || !strings.Contains(err.Error(), "iteration 1") {
		t.Fatalf("warm-start blow-up not attributed to iteration 1: %v", err)
	}
}

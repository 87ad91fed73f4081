package scf

import (
	"math"
	"testing"

	"gtfock/internal/chem"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
)

// Textbook value (Szabo & Ostlund): H2 at R = 1.4 bohr in STO-3G has a
// total RHF energy of -1.1167 Hartree.
func TestH2STO3GEnergy(t *testing.T) {
	mol := chem.Hydrogen2(1.4 / chem.BohrPerAngstrom)
	res, err := RunHF(mol, Options{BasisName: "sto-3g", Engine: EngineSerial})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("SCF did not converge")
	}
	if math.Abs(res.Energy-(-1.1167)) > 2e-3 {
		t.Fatalf("E(H2/STO-3G) = %.6f, want ~-1.1167", res.Energy)
	}
}

// The variational principle: cc-pVDZ (bigger basis) must give a lower H2
// energy than STO-3G.
func TestBasisSetVariational(t *testing.T) {
	mol := chem.Hydrogen2(0.74)
	small, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunHF(mol, Options{BasisName: "cc-pvdz"})
	if err != nil {
		t.Fatal(err)
	}
	if !small.Converged || !big.Converged {
		t.Fatal("not converged")
	}
	if big.Energy >= small.Energy {
		t.Fatalf("cc-pVDZ %.6f not below STO-3G %.6f", big.Energy, small.Energy)
	}
}

// The full basis-set ladder must be variational: each larger basis lowers
// (or matches) the H2 energy, exercising s, p, d and f integral paths.
func TestBasisLadderVariationalH2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mol := chem.Hydrogen2(0.74)
	prev := math.Inf(1)
	for _, name := range []string{"sto-3g", "6-31g", "cc-pvdz", "cc-pvtz"} {
		res, err := RunHF(mol, Options{BasisName: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge", name)
		}
		if res.Energy >= prev {
			t.Fatalf("%s energy %.8f not below previous %.8f", name, res.Energy, prev)
		}
		prev = res.Energy
	}
	// cc-pVTZ H2 should be within ~15 mHa of the HF limit (-1.1336).
	if prev > -1.10 || prev < -1.14 {
		t.Fatalf("cc-pVTZ H2 energy %.6f implausible", prev)
	}
}

// Physical invariants of the converged solution.
func TestConvergedDensityInvariants(t *testing.T) {
	mol := chem.Methane()
	res, err := RunHF(mol, Options{BasisName: "sto-3g", Prow: 2, Pcol: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	bs := res.Basis
	s := integrals.Overlap(bs)
	// Tr(D S) = number of electrons.
	if got := linalg.TraceMul(res.D, s); math.Abs(got-float64(mol.NumElectrons())) > 1e-6 {
		t.Fatalf("Tr(DS) = %g, want %d", got, mol.NumElectrons())
	}
	// Idempotency in the S metric: D S D = 2 D.
	dsd := linalg.MatMul(linalg.MatMul(res.D, s), res.D)
	twoD := res.D.Clone().Scale(2)
	if diff := linalg.MaxAbsDiff(dsd, twoD); diff > 1e-5 {
		t.Fatalf("DSD != 2D by %g", diff)
	}
	// F and D symmetric.
	if res.F.SymmetryError() > 1e-8 || res.D.SymmetryError() > 1e-8 {
		t.Fatal("F or D not symmetric")
	}
	// Energy below the core-guess first iteration.
	if res.Energy >= res.Iterations[0].Energy {
		t.Fatal("energy did not improve over first iteration")
	}
	_ = bs
}

// All three engines must agree on the converged energy.
func TestEnginesAgree(t *testing.T) {
	mol := chem.Methane()
	var energies []float64
	for _, eng := range []Engine{EngineSerial, EngineGTFock, EngineNWChem} {
		res, err := RunHF(mol, Options{
			BasisName: "sto-3g", Engine: eng, Prow: 2, Pcol: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge", eng)
		}
		energies = append(energies, res.Energy)
	}
	for i := 1; i < len(energies); i++ {
		if math.Abs(energies[i]-energies[0]) > 1e-7 {
			t.Fatalf("engine energies disagree: %v", energies)
		}
	}
}

// Shell reordering must not change the converged energy.
func TestReorderingInvariance(t *testing.T) {
	mol := chem.Alkane(2)
	base, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range []string{"cell", "morton"} {
		res, err := RunHF(mol, Options{BasisName: "sto-3g", Reorder: ord})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Energy-base.Energy) > 1e-7 {
			t.Fatalf("%s reordering changed energy: %.10f vs %.10f",
				ord, res.Energy, base.Energy)
		}
	}
}

// Purification must reproduce the eigensolver SCF energy (Sec. IV-E).
func TestPurificationMatchesEigensolver(t *testing.T) {
	mol := chem.Hydrogen2(0.74)
	eig, err := RunHF(mol, Options{BasisName: "cc-pvdz"})
	if err != nil {
		t.Fatal(err)
	}
	pur, err := RunHF(mol, Options{BasisName: "cc-pvdz", UsePurification: true})
	if err != nil {
		t.Fatal(err)
	}
	if !eig.Converged || !pur.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(eig.Energy-pur.Energy) > 1e-6 {
		t.Fatalf("purification energy %.8f vs eigensolver %.8f",
			pur.Energy, eig.Energy)
	}
	// Purification iteration counts are recorded.
	if pur.Iterations[0].PurifyIters <= 0 {
		t.Fatal("no purification iterations recorded")
	}
}

// The in-core engine (stored AO tensor, no screening) must reproduce the
// direct engines' energy.
func TestInCoreMatchesDirect(t *testing.T) {
	mol := chem.Methane()
	direct, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil {
		t.Fatal(err)
	}
	incore, err := RunHF(mol, Options{BasisName: "sto-3g", Engine: EngineInCore})
	if err != nil {
		t.Fatal(err)
	}
	if !incore.Converged {
		t.Fatal("in-core SCF did not converge")
	}
	if math.Abs(incore.Energy-direct.Energy) > 1e-7 {
		t.Fatalf("in-core %.10f vs direct %.10f", incore.Energy, direct.Energy)
	}
	// The in-core iterations after the first should be much cheaper than
	// rebuilding integrals; at minimum they must not error and FockStats
	// is absent (no communication happens).
	if incore.FockStats != nil {
		t.Fatal("in-core engine should not report distributed stats")
	}
}

func TestInCoreRejectsLargeSystems(t *testing.T) {
	mol := chem.Alkane(30) // cc-pvdz: 730 functions -> ~2.3 TB tensor
	if _, err := RunHF(mol, Options{BasisName: "cc-pvdz", Engine: EngineInCore, MaxIter: 1}); err == nil {
		t.Fatal("expected in-core memory guard to trip")
	}
}

func TestRejectsOpenShell(t *testing.T) {
	mol := &chem.Molecule{Atoms: []chem.Atom{{Z: chem.ZHydrogen}}}
	if _, err := RunHF(mol, Options{BasisName: "sto-3g"}); err == nil {
		t.Fatal("expected open-shell error")
	}
}

func TestRejectsBadOptions(t *testing.T) {
	mol := chem.Hydrogen2(0)
	if _, err := RunHF(mol, Options{BasisName: "nope"}); err == nil {
		t.Fatal("expected unknown-basis error")
	}
	if _, err := RunHF(mol, Options{BasisName: "sto-3g", Reorder: "zigzag"}); err == nil {
		t.Fatal("expected unknown-reorder error")
	}
	if _, err := RunHF(mol, Options{BasisName: "sto-3g", Engine: EngineNWChem, Reorder: "cell"}); err == nil {
		t.Fatal("expected nwchem+reorder error")
	}
	if _, err := RunHF(mol, Options{BasisName: "sto-3g", Engine: "magic"}); err == nil {
		t.Fatal("expected unknown-engine error")
	}
}

// DIIS accelerates convergence: with DIIS the iteration count must not
// exceed the plain-SCF count on a system that takes several iterations.
func TestDIISHelps(t *testing.T) {
	mol := chem.Methane()
	plain, err := RunHF(mol, Options{BasisName: "sto-3g", DIIS: -1, MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	diis, err := RunHF(mol, Options{BasisName: "sto-3g", MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !diis.Converged {
		t.Fatal("DIIS run did not converge")
	}
	if plain.Converged && len(diis.Iterations) > len(plain.Iterations)+2 {
		t.Fatalf("DIIS (%d iters) much slower than plain (%d)",
			len(diis.Iterations), len(plain.Iterations))
	}
}

// The GWH guess must converge to the same energy as the core guess, in no
// more iterations.
func TestGWHGuess(t *testing.T) {
	mol := chem.Methane()
	core, err := RunHF(mol, Options{BasisName: "sto-3g"})
	if err != nil || !core.Converged {
		t.Fatal("core-guess SCF failed")
	}
	gwh, err := RunHF(mol, Options{BasisName: "sto-3g", Guess: "gwh"})
	if err != nil {
		t.Fatal(err)
	}
	if !gwh.Converged {
		t.Fatal("GWH SCF did not converge")
	}
	if math.Abs(gwh.Energy-core.Energy) > 1e-8 {
		t.Fatalf("GWH %.10f vs core %.10f", gwh.Energy, core.Energy)
	}
	if len(gwh.Iterations) > len(core.Iterations) {
		t.Fatalf("GWH took %d iterations, core %d", len(gwh.Iterations), len(core.Iterations))
	}
	if _, err := RunHF(mol, Options{BasisName: "sto-3g", Guess: "huckel"}); err == nil {
		t.Fatal("expected unknown-guess error")
	}
}

// Rigid rotation of the molecule must not change the SCF energy — a deep
// end-to-end check of the Cartesian/spherical integral machinery (d and p
// functions mix under rotation).
func TestEnergyRotationInvariance(t *testing.T) {
	base, err := RunHF(chem.Methane(), Options{BasisName: "cc-pvdz", MaxIter: 60})
	if err != nil || !base.Converged {
		t.Fatal("base SCF failed")
	}
	rot := chem.Methane()
	// Rotate by 30 degrees about an arbitrary axis, then 70 about another.
	for i := range rot.Atoms {
		p := rot.Atoms[i].Pos
		p = rotate(p, chem.Vec3{X: 1, Y: 2, Z: -1}, 30*math.Pi/180)
		p = rotate(p, chem.Vec3{X: 0, Y: -1, Z: 3}, 70*math.Pi/180)
		rot.Atoms[i].Pos = p
	}
	res, err := RunHF(rot, Options{BasisName: "cc-pvdz", MaxIter: 60})
	if err != nil || !res.Converged {
		t.Fatal("rotated SCF failed")
	}
	if math.Abs(res.Energy-base.Energy) > 1e-8 {
		t.Fatalf("rotation changed energy: %.10f vs %.10f", res.Energy, base.Energy)
	}
}

// rotate applies the Rodrigues rotation of p about unit axis by theta.
func rotate(p, axis chem.Vec3, theta float64) chem.Vec3 {
	k := axis.Unit()
	c, s := math.Cos(theta), math.Sin(theta)
	return p.Scale(c).Add(k.Cross(p).Scale(s)).Add(k.Scale(k.Dot(p) * (1 - c)))
}

// Package scf implements the closed-shell restricted Hartree-Fock
// procedure of the paper's Algorithm 1: core-Hamiltonian guess, basis
// orthogonalization X = S^{-1/2}, Fock construction through any of the
// engines in this repository (GTFock, the NWChem-style baseline, or the
// serial oracle), and the density step either by dense diagonalization or
// by canonical purification with SUMMA (Sec. IV-E). DIIS convergence
// acceleration is included as a production convenience.
package scf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	"gtfock/internal/nwchem"
	"gtfock/internal/purify"
	"gtfock/internal/reorder"
	"gtfock/internal/screen"
)

// Engine selects the Fock-build implementation.
type Engine string

const (
	// EngineGTFock is the paper's algorithm (internal/core).
	EngineGTFock Engine = "gtfock"
	// EngineNWChem is the baseline of Algorithm 2 (internal/nwchem).
	EngineNWChem Engine = "nwchem"
	// EngineSerial is the brute-force oracle.
	EngineSerial Engine = "serial"
	// EngineInCore precomputes and stores the full AO ERI tensor once and
	// contracts it each iteration — the strategy the paper's Sec. II-C
	// rules out for all but the smallest molecules ("prohibitively
	// expensive to precompute and store"); offered here for exactly those
	// small molecules, where it makes repeated SCF iterations cheap.
	EngineInCore Engine = "incore"
)

// inCoreLimitBytes caps the AO tensor EngineInCore will materialize.
const inCoreLimitBytes = 1 << 31

// ErrNumericalBlowUp marks an SCF run aborted because the Fock matrix or
// total energy became non-finite (bad warm start, DIIS breakdown,
// diverging density). Callers holding a checkpoint can errors.Is for it
// and restart from the last valid iteration.
var ErrNumericalBlowUp = errors.New("scf: numerical blow-up")

// Options configures an SCF run. The zero value gives cc-pVDZ, GTFock on a
// 1x1 grid, eigensolver densities, DIIS on.
type Options struct {
	BasisName string  // default "cc-pvdz"
	Tau       float64 // screening tolerance, default screen.DefaultTau
	PrimTol   float64 // primitive prescreening, default 0 (off)

	// Ctx, when non-nil, cancels the run at well-defined points: the top
	// of each iteration (after the previous iteration's checkpoint is on
	// disk) and inside the GTFock build's worker loops. RunHF returns an
	// error wrapping the context's cause, so a caller that canceled with
	// context.CancelCauseFunc (deadline, park, shutdown) can errors.Is the
	// reason back out and resume later from CheckpointPath.
	Ctx context.Context

	Engine     Engine // default EngineGTFock
	Prow, Pcol int    // process grid (GTFock) / Prow*Pcol processes (NWChem)

	// DensityScreen enables density-weighted quartet screening in the
	// GTFock engine: the shared pair table caches per-shell-block max|D|
	// bounds, refreshed once per iteration, and quartets whose Schwarz
	// bound times the relevant density bound falls below tau are skipped.
	// Changes G by O(tau) per skipped quartet, so leave it off when
	// comparing engines bit-tightly.
	DensityScreen bool

	// ERICache enables the stored-ERI cache tier (GTFock engine only):
	// iteration 1 records every task's surviving integral batch into an
	// integrals.ERIStore shared across the run's builds, and iterations
	// 2..N replay the stored batches through the contraction path instead
	// of re-entering the kernel layer. Exact — replay applies the same
	// values the kernels would recompute.
	ERICache bool
	// ERICacheBudget bounds the store's resident value bytes; over-budget
	// batches spill to ERISpill when set, else are dropped and recomputed
	// every iteration. 0 = unlimited.
	ERICacheBudget int64
	// ERISpill is the optional spill backend for over-budget batches —
	// dist.NewMemBlobStore for in-process runs, or a netga client so
	// cache capacity scales with the shard fleet. A spill miss (restarted
	// shard) falls back to recompute; never a correctness dependency.
	ERISpill integrals.BlobStore
	// ERISpillKey salts the store's spill keys so concurrent runs sharing
	// a fleet do not collide (e.g. the net session id).
	ERISpillKey uint64
	// CacheMetrics, when non-nil, is the shared stored-ERI counter sink
	// (hits, misses, spills); nil gives the store a private one, still
	// reported through Result and per-iteration Cache snapshots.
	CacheMetrics *metrics.Cache

	// DeltaD enables incremental density-difference Fock builds: after a
	// full G(D) build, later iterations build only G(ΔD) with
	// ΔD = D - D_prev and assemble F = H_core + G(D_prev) + G(ΔD). G is
	// linear in D, so this telescopes exactly; its payoff comes from
	// DensityScreen, where the shrinking ΔD prunes quartets the Schwarz
	// bound alone keeps. Ignored by EngineInCore.
	DeltaD bool
	// DeltaDResetEvery forces a full G(D) rebuild after this many
	// consecutive ΔD builds, bounding the O(tau)-per-build screening
	// drift the incremental sum accumulates. Default 8; negative
	// disables resets.
	DeltaDResetEvery int

	MaxIter int     // default 50
	ConvTol float64 // energy convergence, default 1e-8
	DTol    float64 // density max-change convergence, default 1e-5

	UsePurification bool    // density via canonical purification + SUMMA
	PurifyTol       float64 // default purify.DefaultTol

	DIIS int // DIIS subspace size; 0 = default (8), negative disables

	Reorder string // "", "cell", or "morton" shell reordering (GTFock/serial)

	// Guess selects the initial Fock matrix: "core" (default, the bare
	// core Hamiltonian) or "gwh" (generalized Wolfsberg-Helmholz,
	// F_ij = 0.875 K (H_ii + H_jj) S_ij-style, usually converging faster).
	Guess string

	// InitialFock warm-starts the SCF from a previous Fock matrix (e.g. a
	// Checkpoint) instead of the core-Hamiltonian guess.
	InitialFock *linalg.Matrix

	// CheckpointPath, when set, saves a checkpoint of the current F, D and
	// energy after every SCF iteration (atomic tmp+rename, so the file on
	// disk is always the latest complete iteration). A run that blows up
	// at iteration k leaves iteration k-1 on disk to resume from.
	CheckpointPath string

	// StartIter offsets the iteration count recorded in checkpoints, so a
	// resumed run continues the original numbering.
	StartIter int

	// FockTrace and FockMetrics attach the real-mode observability sinks
	// to every GTFock Fock build of the run (see core.Options). The trace
	// and registry accumulate across SCF iterations; nil disables them.
	FockTrace   *dist.Trace
	FockMetrics *metrics.Registry

	// FockBackend, when non-nil, supplies the distributed D and F arrays
	// for every GTFock build of the run (see core.Options.Backend) — the
	// hook the HF service uses to run each job's builds over a shared
	// shard fleet. The factory is called once per build; callers that keep
	// live sessions across builds (they must, or Acc dedup tokens restart
	// and eat later iterations' accumulates) return the same clients each
	// time and advance the dedup generation in OnIteration.
	FockBackend func(grid *dist.Grid2D, stats *dist.RunStats) (gaD, gaF dist.Backend, cleanup func(), err error)

	// TuneFock, when non-nil, adjusts the assembled core.Options of every
	// GTFock build just before it runs (e.g. per-build trace and metric
	// sinks) without scf needing a field per knob.
	TuneFock func(*core.Options)

	// OnIteration, when non-nil, is called after every completed SCF
	// iteration (checkpoint already saved when CheckpointPath is set) with
	// the global iteration number (StartIter offset included). The HF
	// service streams these to clients and checkpoints its net sessions
	// here; the callback runs on the SCF goroutine, so it must be quick.
	OnIteration func(iter int, it Iteration)
}

// Iteration records one SCF cycle.
type Iteration struct {
	Energy      float64 // total energy after this cycle
	DeltaE      float64
	DErr        float64 // max |D - D_prev|
	FockTime    time.Duration
	DensityTime time.Duration
	PurifyIters int
	// FockStats is this iteration's build accounting (every iteration is
	// kept — Result.FockStats only carries the final build's).
	FockStats *dist.RunStats
	// DeltaBuild marks an incremental G(ΔD) build (Options.DeltaD).
	DeltaBuild bool
	// Cache is the stored-ERI counter delta of this iteration's build
	// (zero when Options.ERICache is off).
	Cache metrics.CacheSnapshot
}

// Result is a completed SCF calculation.
type Result struct {
	Converged  bool
	Energy     float64 // total energy (electronic + nuclear repulsion)
	Electronic float64
	NuclearRep float64
	Iterations []Iteration
	F, D       *linalg.Matrix // final matrices in the working basis
	Basis      *basis.Set     // working (possibly reordered) basis
	Reorder    string         // shell ordering of the working basis
	Screening  *screen.Screening
	// FockStats is the accounting of the final Fock build; per-iteration
	// stats live in Iterations[i].FockStats.
	FockStats *dist.RunStats
	// CacheStats is the stored-ERI tier's run total (zero when
	// Options.ERICache is off).
	CacheStats metrics.CacheSnapshot

	// Canonical molecular orbitals of the final Fock matrix: C columns are
	// orbitals (AO x MO), OrbitalEnergies ascending, NOcc doubly occupied.
	// Populated by a final diagonalization regardless of the density step
	// used during the iterations.
	C               *linalg.Matrix
	OrbitalEnergies []float64
	NOcc            int
}

// RunHF performs restricted Hartree-Fock on a closed-shell molecule.
func RunHF(mol *chem.Molecule, opt Options) (*Result, error) {
	if opt.BasisName == "" {
		opt.BasisName = "cc-pvdz"
	}
	if opt.Tau <= 0 {
		opt.Tau = screen.DefaultTau
	}
	if opt.Engine == "" {
		opt.Engine = EngineGTFock
	}
	if opt.Prow <= 0 {
		opt.Prow = 1
	}
	if opt.Pcol <= 0 {
		opt.Pcol = 1
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 50
	}
	if opt.ConvTol <= 0 {
		opt.ConvTol = 1e-8
	}
	if opt.DTol <= 0 {
		opt.DTol = 1e-5
	}
	diisDepth := opt.DIIS
	if diisDepth == 0 {
		diisDepth = 8
	}
	if mol.NumElectrons()%2 != 0 {
		return nil, fmt.Errorf("scf: %s has %d electrons; only closed shells supported",
			mol.Formula(), mol.NumElectrons())
	}
	nocc := mol.NumElectrons() / 2

	bs, err := basis.Build(mol, opt.BasisName)
	if err != nil {
		return nil, err
	}
	switch opt.Reorder {
	case "":
	case "cell":
		bs = bs.Permute(reorder.Cell(bs, 0))
	case "morton":
		bs = bs.Permute(reorder.Morton(bs, 0))
	default:
		return nil, fmt.Errorf("scf: unknown reordering %q", opt.Reorder)
	}
	if opt.Engine == EngineNWChem && opt.Reorder != "" {
		return nil, fmt.Errorf("scf: the NWChem baseline requires atom-ordered shells")
	}
	if nocc > bs.NumFuncs {
		return nil, fmt.Errorf("scf: %d occupied orbitals exceed %d basis functions",
			nocc, bs.NumFuncs)
	}

	if opt.Engine == EngineInCore {
		nf := int64(bs.NumFuncs)
		if bytes := nf * nf * nf * nf * 8; bytes > inCoreLimitBytes {
			return nil, fmt.Errorf("scf: in-core tensor needs %d bytes (> %d); use a direct engine",
				bytes, inCoreLimitBytes)
		}
	}

	scr := screen.Compute(bs, opt.Tau)
	s := integrals.Overlap(bs)
	hcore := integrals.CoreHamiltonian(bs)
	x := linalg.InvSqrtSym(s, 0)
	enuc := mol.NuclearRepulsion()

	res := &Result{Basis: bs, Screening: scr, NuclearRep: enuc, Reorder: opt.Reorder}
	var f *linalg.Matrix
	switch opt.Guess {
	case "", "core":
		f = hcore.Clone()
	case "gwh":
		f = gwhGuess(hcore, s)
	default:
		return nil, fmt.Errorf("scf: unknown guess %q", opt.Guess)
	}
	if opt.InitialFock != nil {
		if opt.InitialFock.Rows != bs.NumFuncs || opt.InitialFock.Cols != bs.NumFuncs {
			return nil, fmt.Errorf("scf: InitialFock is %dx%d, want %dx%d",
				opt.InitialFock.Rows, opt.InitialFock.Cols, bs.NumFuncs, bs.NumFuncs)
		}
		f = opt.InitialFock.Clone()
	}
	var d *linalg.Matrix
	var ePrev float64
	diis := newDIIS(diisDepth)

	// In-core mode: materialize the AO tensor once (Sec. II-C's rejected
	// tradeoff, viable here only for small systems; sized-checked above).
	var aoTensor []float64
	if opt.Engine == EngineInCore {
		aoTensor = integrals.AOTensor(bs)
	}

	// GTFock builds share one pair table for the whole run: pair data
	// depends only on geometry and screening, so it is built once here
	// rather than once per iteration. Density bounds (for the optional
	// density-weighted screen) are refreshed each iteration before the
	// build.
	var pt *integrals.PairTable
	if opt.Engine == EngineGTFock {
		pt = scr.PairTable(opt.PrimTol)
	}

	// Stored-ERI cache tier: one store per run, shared by every build of
	// this geometry (it is keyed off pt's quartet order).
	var store *integrals.ERIStore
	if opt.ERICache {
		if opt.Engine != EngineGTFock {
			return nil, fmt.Errorf("scf: ERICache requires the gtfock engine (have %q)", opt.Engine)
		}
		store = integrals.NewERIStore(bs.NumShells(), opt.ERICacheBudget, opt.ERISpill, opt.ERISpillKey, opt.CacheMetrics)
	}

	// ΔD incremental state: pPrev is the orbital density the accumulated
	// gTot = G(pPrev) was built for; sinceFull counts consecutive
	// incremental builds toward the drift-reset rebuild.
	useDelta := opt.DeltaD && opt.Engine != EngineInCore
	resetEvery := opt.DeltaDResetEvery
	if resetEvery == 0 {
		resetEvery = 8
	}
	var pPrev, gTot *linalg.Matrix
	sinceFull := 0

	for it := 1; it <= opt.MaxIter; it++ {
		iter := Iteration{}

		// Cancellation boundary: the previous iteration's checkpoint is on
		// disk (when checkpointing), so stopping here loses nothing — a
		// parked or deadline-killed run resumes from exactly this state.
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return nil, fmt.Errorf("scf: canceled before iteration %d: %w",
				opt.StartIter+it, context.Cause(opt.Ctx))
		}

		// Numerical blow-up guard: a NaN/Inf in F (bad warm start, DIIS
		// breakdown, diverging density) would otherwise propagate silently
		// through eigensolver and energy until MaxIter.
		if err := nonFiniteErr(f, it, "Fock matrix"); err != nil {
			return nil, err
		}

		// Density from the current Fock matrix (Alg. 1 lines 7-10).
		t0 := time.Now()
		fPrime := linalg.MatMul(linalg.MatMul(x.T(), f), x)
		var rho *linalg.Matrix
		if opt.UsePurification {
			var nit int
			rho, nit, err = purify.Canonical(fPrime, nocc, opt.PurifyTol, 300, nil)
			if err != nil {
				return nil, fmt.Errorf("scf: iteration %d: %w", it, err)
			}
			iter.PurifyIters = nit
		} else {
			eig := linalg.EigSym(fPrime)
			rho = linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
			for k := 0; k < nocc; k++ {
				for i := 0; i < bs.NumFuncs; i++ {
					vi := eig.Vectors.At(i, k)
					if vi == 0 {
						continue
					}
					for j := 0; j < bs.NumFuncs; j++ {
						rho.Add(i, j, vi*eig.Vectors.At(j, k))
					}
				}
			}
		}
		// p = X rho X^T is the spinless orbital density C_occ C_occ^T
		// (tr(pS) = nocc); the physical density of Alg. 1 line 10 is
		// D = 2p. Equation (3) of the paper is dimensionally written for
		// the unscaled p (see DESIGN.md), so the builders receive p.
		p := linalg.MatMul(linalg.MatMul(x, rho), x.T())
		dNew := p.Clone().Scale(2)
		iter.DensityTime = time.Since(t0)

		if d != nil {
			iter.DErr = linalg.MaxAbsDiff(d, dNew)
		} else {
			iter.DErr = dNew.MaxAbs()
		}
		d = dNew

		// Fock build F = H_core + G(p) (Alg. 1 line 6, eq. (3)).
		t1 := time.Now()
		var g *linalg.Matrix
		var stats *dist.RunStats
		var cacheBefore metrics.CacheSnapshot
		if store != nil {
			cacheBefore = store.Stats()
		}
		switch {
		case aoTensor != nil:
			g = contractInCore(aoTensor, p)
		case useDelta && gTot != nil && (resetEvery < 0 || sinceFull < resetEvery):
			// Incremental build: G(p) = G(pPrev) + G(Δp) by linearity. The
			// density screen sees Δp, so quartets whose contribution no
			// longer moves F past the Schwarz bound are pruned — the payoff
			// grows as SCF converges and Δp shrinks.
			dp := p.Clone()
			dp.AXPY(-1, pPrev)
			if pt != nil && opt.DensityScreen {
				pt.UpdateDensity(dp.Data, dp.Cols)
			}
			var dg *linalg.Matrix
			dg, stats, err = buildG(bs, scr, dp, pt, store, opt)
			if err != nil {
				return nil, err
			}
			gTot.AXPY(1, dg)
			g = gTot
			iter.DeltaBuild = true
			sinceFull++
		default:
			// Full build — the first iteration, or the periodic drift reset
			// that rebases the incremental sum.
			if pt != nil && opt.DensityScreen {
				pt.UpdateDensity(p.Data, p.Cols)
			}
			g, stats, err = buildG(bs, scr, p, pt, store, opt)
			if err != nil {
				return nil, err
			}
			gTot = g
			sinceFull = 0
		}
		pPrev = p
		iter.FockTime = time.Since(t1)
		iter.FockStats = stats
		if store != nil {
			res.CacheStats = store.Stats()
			iter.Cache = res.CacheStats.Sub(cacheBefore)
		}
		res.FockStats = stats

		// A blow-up in the build itself must surface at the iteration that
		// produced it: a non-finite G (from a non-finite density that
		// slipped through the eigensolve) would otherwise propagate one
		// more density step before the top-of-loop F check caught it.
		if err := nonFiniteErr(g, it, "two-electron matrix"); err != nil {
			return nil, err
		}
		f = hcore.Clone()
		f.AXPY(1, g)
		if err := nonFiniteErr(f, it, "freshly built Fock matrix"); err != nil {
			return nil, err
		}

		// Energy: E_elec = 1/2 Tr(D (H + F)) = Tr(p (H + F)).
		hp := hcore.Clone()
		hp.AXPY(1, f)
		eElec := linalg.TraceMul(p, hp)
		eTot := eElec + enuc
		if math.IsNaN(eTot) || math.IsInf(eTot, 0) {
			return nil, fmt.Errorf("%w at iteration %d: total energy is %g", ErrNumericalBlowUp, it, eTot)
		}
		iter.Energy = eTot
		iter.DeltaE = eTot - ePrev
		if it == 1 {
			iter.DeltaE = math.NaN()
		}
		res.Iterations = append(res.Iterations, iter)
		res.Electronic = eElec
		res.Energy = eTot

		conv := it > 1 && math.Abs(iter.DeltaE) < opt.ConvTol && iter.DErr < opt.DTol
		if opt.CheckpointPath != "" {
			ck := Checkpoint{
				Version: checkpointVersion, Formula: mol.Formula(),
				BasisName: opt.BasisName, NumFuncs: bs.NumFuncs,
				Iter: opt.StartIter + it, Reorder: opt.Reorder,
				Converged: conv, Energy: eTot,
				FData: f.Data, DData: d.Data,
			}
			if err := ck.Save(opt.CheckpointPath); err != nil {
				return nil, fmt.Errorf("scf: checkpoint at iteration %d: %w", it, err)
			}
		}
		if opt.OnIteration != nil {
			opt.OnIteration(opt.StartIter+it, iter)
		}
		if conv {
			res.Converged = true
			res.F, res.D = f, d
			res.finalizeOrbitals(x, nocc)
			return res, nil
		}
		ePrev = eTot

		// DIIS extrapolation of F for the next density step.
		if diisDepth > 0 {
			f = diis.extrapolate(f, d, s, x)
		}
	}
	res.F, res.D = f, d
	res.finalizeOrbitals(x, nocc)
	return res, nil
}

// firstNonFinite returns the position of the first NaN/Inf entry of m.
func firstNonFinite(m *linalg.Matrix) (i, j int, found bool) {
	for k, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return k / m.Cols, k % m.Cols, true
		}
	}
	return 0, 0, false
}

// nonFiniteErr wraps ErrNumericalBlowUp for the first NaN/Inf entry of
// m, attributed to the iteration that produced it; nil if m is finite.
func nonFiniteErr(m *linalg.Matrix, it int, what string) error {
	i, j, ok := firstNonFinite(m)
	if !ok {
		return nil
	}
	return fmt.Errorf("%w at iteration %d: %s has non-finite entry %g at (%d,%d)",
		ErrNumericalBlowUp, it, what, m.At(i, j), i, j)
}

// finalizeOrbitals diagonalizes the final Fock matrix in the orthogonal
// basis to expose canonical MOs and orbital energies (used by property
// and correlation methods), independent of the density scheme used during
// the SCF iterations.
func (r *Result) finalizeOrbitals(x *linalg.Matrix, nocc int) {
	fPrime := linalg.MatMul(linalg.MatMul(x.T(), r.F), x)
	eig := linalg.EigSym(fPrime)
	r.C = linalg.MatMul(x, eig.Vectors)
	r.OrbitalEnergies = eig.Values
	r.NOcc = nocc
}

// contractInCore evaluates eq. (3) directly from a stored AO tensor:
// G_ij = sum_kl p_kl (2 (ij|kl) - (ik|jl)).
func contractInCore(t []float64, p *linalg.Matrix) *linalg.Matrix {
	n := p.Rows
	g := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				rowJ := t[((i*n+j)*n+k)*n:]
				rowK := t[((i*n+k)*n+j)*n:]
				pk := p.Data[k*n:]
				for l := 0; l < n; l++ {
					s += pk[l] * (2*rowJ[l] - rowK[l])
				}
			}
			g.Set(i, j, s)
		}
	}
	return g
}

// buildG dispatches the two-electron build to the selected engine. pt is
// the run-wide shell-pair table and store the run-wide stored-ERI tier
// (both GTFock only; nil elsewhere).
func buildG(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix, pt *integrals.PairTable, store *integrals.ERIStore, opt Options) (*linalg.Matrix, *dist.RunStats, error) {
	switch opt.Engine {
	case EngineGTFock:
		copt := core.Options{
			Prow: opt.Prow, Pcol: opt.Pcol, PrimTol: opt.PrimTol,
			PairTable: pt, DensityScreen: opt.DensityScreen, ERIStore: store,
			Trace: opt.FockTrace, Metrics: opt.FockMetrics,
			Ctx: opt.Ctx, Backend: opt.FockBackend,
		}
		if opt.TuneFock != nil {
			opt.TuneFock(&copt)
		}
		r := core.Build(bs, scr, d, copt)
		return r.G, r.Stats, r.Err
	case EngineNWChem:
		r, err := nwchem.Build(bs, scr, d, nwchem.Options{
			Procs: opt.Prow * opt.Pcol, PrimTol: opt.PrimTol,
		})
		if err != nil {
			return nil, nil, err
		}
		return r.G, r.Stats, nil
	case EngineSerial:
		return core.BuildSerial(bs, scr, d), nil, nil
	default:
		return nil, nil, fmt.Errorf("scf: unknown engine %q", opt.Engine)
	}
}

// diisState implements Pulay's DIIS with the orthogonalized commutator
// error e = X^T (FDS - SDF) X.
type diisState struct {
	depth int
	fs    []*linalg.Matrix
	errs  []*linalg.Matrix
}

func newDIIS(depth int) *diisState {
	if depth < 0 {
		depth = 0
	}
	return &diisState{depth: depth}
}

func (ds *diisState) extrapolate(f, d, s, x *linalg.Matrix) *linalg.Matrix {
	if ds.depth == 0 {
		return f
	}
	fds := linalg.MatMul(linalg.MatMul(f, d), s)
	sdf := linalg.MatMul(linalg.MatMul(s, d), f)
	comm := fds.Clone()
	comm.AXPY(-1, sdf)
	e := linalg.MatMul(linalg.MatMul(x.T(), comm), x)

	ds.fs = append(ds.fs, f.Clone())
	ds.errs = append(ds.errs, e)
	if len(ds.fs) > ds.depth {
		ds.fs = ds.fs[1:]
		ds.errs = ds.errs[1:]
	}
	m := len(ds.fs)
	if m < 2 {
		return f
	}
	// Pulay B matrix with the constraint row/column.
	b := linalg.NewMatrix(m+1, m+1)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var dot float64
			for k, v := range ds.errs[i].Data {
				dot += v * ds.errs[j].Data[k]
			}
			b.Set(i, j, dot)
		}
		b.Set(i, m, -1)
		b.Set(m, i, -1)
	}
	rhs := make([]float64, m+1)
	rhs[m] = -1
	coef, err := linalg.SolveLinear(b, rhs)
	if err != nil {
		// Singular subspace: drop the oldest entry and carry on.
		ds.fs = ds.fs[1:]
		ds.errs = ds.errs[1:]
		return f
	}
	out := linalg.NewMatrix(f.Rows, f.Cols)
	for i := 0; i < m; i++ {
		out.AXPY(coef[i], ds.fs[i])
	}
	return out
}

// gwhGuess builds the generalized Wolfsberg-Helmholz initial Fock matrix:
// F_ij = K S_ij (H_ii + H_jj)/2 with K = 1.75 (diagonal kept at H_ii).
func gwhGuess(h, s *linalg.Matrix) *linalg.Matrix {
	const k = 1.75
	n := h.Rows
	f := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		f.Set(i, i, h.At(i, i))
		for j := i + 1; j < n; j++ {
			v := k * s.At(i, j) * (h.At(i, i) + h.At(j, j)) / 2
			f.Set(i, j, v)
			f.Set(j, i, v)
		}
	}
	return f
}

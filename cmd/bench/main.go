// Command bench is the repeatable benchmark harness for the real-mode
// Fock build: it runs an alkane series at fixed parameters and emits a
// machine-readable BENCH_fock.json with, per case, the best-of-reps wall
// time, a serial-oracle calibration time, load balance, steal count,
// communication volume, and the overhead of the armed (zero-rate) fault
// runtime — the quantities the paper's Tables V-VIII track. A micro
// section benchmarks the ERI kernel layer itself: ns/quartet per kernel
// class (with the general MD path as reference) and the batched path over
// a real task's quartet list, with allocs/op gated at zero.
//
//	bench                          # full series -> BENCH_fock.json
//	bench -short -check BENCH_fock.json   # CI smoke: pinned case vs baseline
//	bench -ab 5                    # interleaved observability-overhead A/B
//	bench -kernel-delta FILE       # generated-kernel before/after report -> FILE
//
// Series entries are either bare alkane chain lengths ("2,4,6", using
// -basis) or mol:basis specs ("ch4:cc-pvdz"), so the series can mix the
// s/p-only sto-3g chain with a d-bearing case that exercises the
// generated kernels.
//
// The regression check compares walls normalized by the serial
// calibration (wall_ns / serial_ns), so a uniformly slower CI machine
// does not trip it; only changes to the parallel runtime's overhead do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	"gtfock/internal/screen"
)

type benchCase struct {
	Mol           string  `json:"mol"`
	NShells       int     `json:"nshells"`
	NFuncs        int     `json:"nfuncs"`
	Tasks         int64   `json:"tasks"`
	SerialNS      int64   `json:"serial_ns"`      // calibration: serial oracle build
	WallNS        int64   `json:"wall_ns"`        // best of reps, plain parallel build
	WallFaultNS   int64   `json:"wall_fault_ns"`  // best of reps, armed zero-rate fault runtime
	FaultOverhead float64 `json:"fault_overhead"` // WallFaultNS / WallNS
	NormWall      float64 `json:"norm_wall"`      // WallNS / SerialNS (the checked quantity)
	LoadBalance   float64 `json:"load_balance"`
	StealsTotal   int64   `json:"steals_total"`
	CommMBPerProc float64 `json:"comm_mb_per_proc"`
	CallsPerProc  float64 `json:"calls_per_proc"`

	// ERI dispatch split of one metered build (outside the timed reps):
	// all-s/p and d-bearing quartets served by the generated kernels, and
	// quartets that took the general MD fallback. GeneralFrac is the leak
	// rate to the general path — 0 for every built-in basis up to d.
	QuartetsFastSP  int64   `json:"quartets_fast_sp"`
	QuartetsFastGen int64   `json:"quartets_fast_gen"`
	QuartetsGeneral int64   `json:"quartets_general"`
	GeneralFrac     float64 `json:"quartets_general_frac"`
}

// microCase is one ERI-layer microbenchmark: per-quartet time for a
// kernel class (or the general MD path on the same class, for reference),
// or the batched path over a real task's surviving quartet list.
type microCase struct {
	Name         string  `json:"name"`
	Quartets     int     `json:"quartets"`
	NsPerQuartet float64 `json:"ns_per_quartet"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
}

// cacheBench reports the stored-ERI cache tier on one pinned case: the
// recording build (SCF iteration 1) against the replaying build
// (iterations 2..N), which skips every integral recomputation. The
// speedup and hit rate are gated absolutely — replay must be at least
// 3x faster with every task served from the store — because the ratio
// cancels machine speed the same way norm_wall does.
type cacheBench struct {
	Mol            string  `json:"mol"`
	RecordNS       int64   `json:"record_ns"` // best of reps, build 1 (record)
	ReplayNS       int64   `json:"replay_ns"` // best of reps, build 2 (replay)
	Speedup        float64 `json:"speedup"`   // RecordNS / ReplayNS, gated >= 3
	HitRate        float64 `json:"hit_rate"`  // replay-build task hit rate, gated == 1
	QuartetsStored int64   `json:"quartets_stored"`
	BytesStored    int64   `json:"bytes_stored"`
}

type benchReport struct {
	Basis string      `json:"basis"`
	Grid  string      `json:"grid"`
	Reps  int         `json:"reps"`
	Cases []benchCase `json:"cases"`
	Micro []microCase `json:"micro,omitempty"`
	Cache *cacheBench `json:"cache,omitempty"`
}

func main() {
	var (
		out    = flag.String("out", "BENCH_fock.json", "output file for the benchmark report")
		series = flag.String("series", "2,4,6,ch4:cc-pvdz", "comma-separated cases: alkane chain lengths and/or mol:basis specs")
		bname  = flag.String("basis", "sto-3g", "basis set for every case")
		grid   = flag.String("grid", "2x2", "process grid RxC")
		reps   = flag.Int("reps", 3, "repetitions per configuration; the minimum wall is reported")
		short  = flag.Bool("short", false, "smoke mode: only the first (pinned) series case, 2 reps")
		check  = flag.String("check", "", "compare against this baseline report instead of writing -out")
		tol    = flag.Float64("tol", 0.15, "allowed fractional regression of norm_wall in -check mode")
		mtol   = flag.Float64("mtol", 0.35, "allowed fractional regression of calibrated micro ns/quartet in -check mode")
		ab     = flag.Int("ab", 0, "run N interleaved A/B pairs measuring observability overhead, then exit")
		delta  = flag.String("kernel-delta", "", "write a before/after generated-kernel report (markdown) to this file, then exit")
	)
	flag.Parse()

	specs, err := parseSeries(*series)
	fatalIf(err)
	prow, pcol, err := parseGrid(*grid)
	fatalIf(err)
	if *short {
		specs = specs[:1]
		if *reps > 2 {
			*reps = 2
		}
	}

	if *ab > 0 {
		runAB(specs[0], *bname, prow, pcol, *ab)
		return
	}

	if *delta != "" {
		runKernelDelta(*delta, *reps)
		return
	}

	if *check != "" {
		base := readReport(*check)
		// Re-run under the baseline's own parameters so the comparison is
		// apples to apples even if the flags drifted.
		prow, pcol, err = parseGrid(base.Grid)
		fatalIf(err)
		fresh := runSeries(specsOf(base, specs), base.Basis, base.Grid, prow, pcol, *reps)
		if len(base.Micro) > 0 {
			fresh.Micro = runMicro(base.Basis)
		}
		if base.Cache != nil {
			n, err := strconv.Atoi(strings.TrimPrefix(base.Cache.Mol, "alkane:"))
			fatalIf(err)
			fresh.Cache = runCache(n, base.Basis, prow, pcol, *reps)
		}
		fatalIf(compareReports(base, fresh, *tol, *mtol))
		fmt.Printf("bench check passed: %d cases, %d micro within %.0f%%/%.0f%% of %s\n",
			len(fresh.Cases), len(fresh.Micro), *tol*100, *mtol*100, *check)
		return
	}

	rep := runSeries(specs, *bname, *grid, prow, pcol, *reps)
	rep.Micro = runMicro(*bname)
	rep.Cache = runCache(4, *bname, prow, pcol, *reps)
	data, err := json.MarshalIndent(rep, "", "  ")
	fatalIf(err)
	fatalIf(os.WriteFile(*out, append(data, '\n'), 0o644))
	fmt.Printf("report written to %s\n", *out)
}

// specsOf restricts the run to baseline cases, keeping at most as many as
// the requested series (so -short checks only the pinned first case).
func specsOf(base benchReport, requested []string) []string {
	var specs []string
	for _, c := range base.Cases {
		specs = append(specs, c.Mol)
		if len(specs) >= len(requested) {
			break
		}
	}
	return specs
}

func runSeries(specs []string, bname, grid string, prow, pcol, reps int) benchReport {
	rep := benchReport{Basis: bname, Grid: grid, Reps: reps}
	for _, spec := range specs {
		c := runCase(spec, bname, prow, pcol, reps)
		fmt.Printf("%-12s %3d shells: serial %8.1fms  wall %8.1fms  norm %5.2f  fault x%.3f  l=%.3f  steals=%d  gen=%.0f%%\n",
			c.Mol, c.NShells, float64(c.SerialNS)/1e6, float64(c.WallNS)/1e6,
			c.NormWall, c.FaultOverhead, c.LoadBalance, c.StealsTotal, c.GeneralFrac*100)
		rep.Cases = append(rep.Cases, c)
	}
	return rep
}

func runCase(spec, bname string, prow, pcol, reps int) benchCase {
	bs, scr, d := setupSpec(spec, bname)
	c := benchCase{
		Mol:     spec,
		NShells: bs.NumShells(),
		NFuncs:  bs.NumFuncs,
		Tasks:   int64(bs.NumShells()) * int64(bs.NumShells()),
	}

	// Calibration: the serial oracle is pure ERI work, so wall/serial
	// cancels machine speed and isolates the parallel runtime's behavior.
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		core.BuildSerial(bs, scr, d)
		c.SerialNS = minNZ(c.SerialNS, time.Since(t0).Nanoseconds())
	}

	var stats *dist.RunStats
	for r := 0; r < reps; r++ {
		res := core.Build(bs, scr, d, core.Options{Prow: prow, Pcol: pcol})
		if w := res.Wall.Nanoseconds(); c.WallNS == 0 || w < c.WallNS {
			c.WallNS = w
			stats = res.Stats
		}
	}
	for r := 0; r < reps; r++ {
		// Armed injector with zero rates: the full fault runtime (ledger,
		// leases, fenced accumulates, monitor) with no faults firing.
		res := core.Build(bs, scr, d, core.Options{
			Prow: prow, Pcol: pcol,
			Fault: fault.New(fault.Config{Seed: 1}),
		})
		c.WallFaultNS = minNZ(c.WallFaultNS, res.Wall.Nanoseconds())
	}

	c.FaultOverhead = float64(c.WallFaultNS) / float64(c.WallNS)
	c.NormWall = float64(c.WallNS) / float64(c.SerialNS)
	c.LoadBalance = stats.LoadBalance()
	for i := range stats.Per {
		c.StealsTotal += stats.Per[i].Steals
	}
	c.CommMBPerProc = stats.VolumeAvgMB()
	c.CallsPerProc = stats.CallsAvg()

	// One metered build outside the timed reps records the ERI dispatch
	// split without perturbing the walls above.
	reg := metrics.NewRegistry(prow * pcol)
	fatalIf(core.Build(bs, scr, d, core.Options{Prow: prow, Pcol: pcol, Metrics: reg}).Err)
	snap := reg.Snapshot()
	c.QuartetsFastSP = snap.QuartetsFastSP
	c.QuartetsFastGen = snap.QuartetsFastGen
	c.QuartetsGeneral = snap.QuartetsGeneral
	c.GeneralFrac = snap.QuartetsGeneralFrac
	return c
}

// runCache measures the stored-ERI cache tier on alkane:n — one
// recording build (the work SCF iteration 1 does) and one replaying
// build (what iterations 2..N do) per rep, best-of-reps each. The
// acceptance gates are absolute, not baseline-relative: replay must be
// at least 3x faster than record, serve every task from the store, and
// reproduce the recorded G to 1e-9.
func runCache(n int, bname string, prow, pcol, reps int) *cacheBench {
	bs, scr, d := setup(n, bname)
	cb := &cacheBench{Mol: fmt.Sprintf("alkane:%d", n)}
	for r := 0; r < reps; r++ {
		store := integrals.NewERIStore(bs.NumShells(), 0, nil, uint64(r+1), nil)
		opt := core.Options{Prow: prow, Pcol: pcol, ERIStore: store}
		rec := core.Build(bs, scr, d, opt)
		fatalIf(rec.Err)
		cb.RecordNS = minNZ(cb.RecordNS, rec.Wall.Nanoseconds())
		pre := store.Stats()
		rep := core.Build(bs, scr, d, opt)
		fatalIf(rep.Err)
		cb.ReplayNS = minNZ(cb.ReplayNS, rep.Wall.Nanoseconds())
		if diff := linalg.MaxAbsDiff(rec.G, rep.G); diff > 1e-9 {
			fatalIf(fmt.Errorf("cache %s: |G_replay - G_record| = %g", cb.Mol, diff))
		}
		if r == 0 {
			replay := store.Stats().Sub(pre)
			cb.HitRate = replay.HitRate()
			cb.QuartetsStored = pre.QuartetsStored
			cb.BytesStored = pre.BytesStored
		}
	}
	cb.Speedup = float64(cb.RecordNS) / float64(cb.ReplayNS)
	fmt.Printf("cache %-9s record %8.1fms  replay %8.1fms  speedup %5.2fx  hit %.1f%%  (%d quartets, %.1f MB)\n",
		cb.Mol, float64(cb.RecordNS)/1e6, float64(cb.ReplayNS)/1e6,
		cb.Speedup, cb.HitRate*100, cb.QuartetsStored, float64(cb.BytesStored)/1e6)
	if cb.Speedup < 3 {
		fatalIf(fmt.Errorf("cache %s: replay speedup %.2fx below the 3x gate", cb.Mol, cb.Speedup))
	}
	if cb.HitRate < 1 {
		fatalIf(fmt.Errorf("cache %s: replay hit rate %.3f below 100%%", cb.Mol, cb.HitRate))
	}
	return cb
}

// shellsOfL finds two shells of angular momentum l on distinct centers,
// so benchmark quartets have generic geometry.
func shellsOfL(bs *basis.Set, bname string, l int) (int, int) {
	first := -1
	for i := range bs.Shells {
		if bs.Shells[i].L != l {
			continue
		}
		if first < 0 {
			first = i
		} else if bs.Shells[i].Atom != bs.Shells[first].Atom {
			return first, i
		}
	}
	fatalIf(fmt.Errorf("micro: basis %s lacks two centered shells with L=%d", bname, l))
	return 0, 0
}

// microOne times eng.ERI on one pinned quartet; general=true forces the
// general MD path on the same quartet for the kernel-vs-general ratio.
func microOne(bs *basis.Set, name string, general bool, ba, bb, ka, kb int) microCase {
	eng := integrals.NewEngine()
	eng.DisableFastKernels = general
	bra := eng.Pair(&bs.Shells[ba], &bs.Shells[bb])
	ket := eng.Pair(&bs.Shells[ka], &bs.Shells[kb])
	eng.ERI(bra, ket) // warm scratch
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.ERI(bra, ket)
		}
	})
	return microCase{
		Name: name, Quartets: 1,
		NsPerQuartet: float64(r.NsPerOp()),
		AllocsPerOp:  r.AllocsPerOp(),
	}
}

// microShape names one pinned quartet (bra shells ba, bb; ket shells
// ka, kb) of a kernel class.
type microShape struct {
	name           string
	ba, bb, ka, kb int
}

// ethaneShapes pins quartets on ethane in cc-pVDZ, whose shells of each
// of L = 0, 1, 2 sit on distinct centers (each carbon carries the
// uncontracted d shell, so d pairs span two centers): sp covers every
// canonical all-s/p class, d one shape per generated-kernel layout in
// the cc-pVDZ hot path.
func ethaneShapes() (bs *basis.Set, sp, d []microShape) {
	bs, err := basis.Build(chem.Alkane(2), "cc-pvdz")
	fatalIf(err)
	s1, s2 := shellsOfL(bs, "cc-pvdz", 0)
	p1, p2 := shellsOfL(bs, "cc-pvdz", 1)
	d1, d2 := shellsOfL(bs, "cc-pvdz", 2)
	sp = []microShape{
		{"ss_ss", s1, s2, s1, s2},
		{"ps_ss", p1, s1, s1, s2},
		{"ps_ps", p1, s1, p2, s2},
		{"pp_ss", p1, p2, s1, s2},
		{"pp_ps", p1, p2, p1, s1},
		{"pp_pp", p1, p2, p1, p2},
	}
	d = []microShape{
		{"ds_ss", d1, s1, s1, s2},
		{"pd_ps", p1, d1, p1, s1},
		{"dd_dd", d1, d2, d1, d2},
	}
	return bs, sp, d
}

// microShapes times each shape's kernel, then its general-path twin on
// the identical quartet.
func microShapes(bs *basis.Set, shapes []microShape) []microCase {
	var out []microCase
	for _, general := range []bool{false, true} {
		for _, sh := range shapes {
			name := sh.name
			if general {
				name += "_general"
			}
			out = append(out, microOne(bs, name, general, sh.ba, sh.bb, sh.ka, sh.kb))
		}
	}
	return out
}

// microD builds the d-class micro cases on ethane in cc-pVDZ.
func microD() []microCase {
	bs, _, d := ethaneShapes()
	return microShapes(bs, d)
}

// runMicro benchmarks the ERI kernel layer: ns/quartet for every
// s/p kernel class on the pinned alkane:2 system (with the
// general MD path on ss|ss and pp|pp for reference), the generated
// d-class kernels on ethane/cc-pVDZ with their general twins, and the
// batched ERIBatch path over the fattest real task's surviving quartet
// list (whose steady state must not allocate). Times are
// machine-absolute; the -check gate calibrates them by the serial-oracle
// ratio before comparing.
func runMicro(bname string) []microCase {
	bs, scr, _ := setup(2, bname)
	pt := scr.PairTable(0)

	s1, s2 := shellsOfL(bs, bname, 0)
	p1, p2 := shellsOfL(bs, bname, 1)

	one := func(name string, general bool, ba, bb, ka, kb int) microCase {
		return microOne(bs, name, general, ba, bb, ka, kb)
	}

	// The fattest (M,N) task's surviving quartets, exactly as the workers
	// batch them.
	var best []integrals.Quartet
	ns := bs.NumShells()
	for m := 0; m < ns; m++ {
		for n := 0; n < ns; n++ {
			if !core.SymmetryCheck(m, n) {
				continue
			}
			var qs []integrals.Quartet
			for _, p := range scr.Phi[m] {
				if !core.SymmetryCheck(m, p) {
					continue
				}
				braID := pt.ID(m, p)
				if braID == integrals.NoPair {
					continue
				}
				for _, q := range scr.Phi[n] {
					if !core.SymmetryCheck(n, q) || !scr.KeepQuartet(m, p, n, q) {
						continue
					}
					if m == n && !core.SymmetryCheck(p, q) {
						continue
					}
					qs = append(qs, integrals.Quartet{Bra: braID, Ket: pt.ID(n, q)})
				}
			}
			if len(qs) > len(best) {
				best = qs
			}
		}
	}
	batch := func() microCase {
		eng := integrals.NewEngine()
		sink := 0.0
		visit := func(k int, b []float64) { sink += b[0] }
		eng.ERIBatch(pt, best, visit) // warm scratch
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.ERIBatch(pt, best, visit)
			}
		})
		_ = sink
		return microCase{
			Name: "batch_task", Quartets: len(best),
			NsPerQuartet: float64(r.NsPerOp()) / float64(len(best)),
			AllocsPerOp:  r.AllocsPerOp(),
		}
	}

	micro := []microCase{
		one("ss_ss", false, s1, s2, s1, s2),
		one("ps_ss", false, p1, s1, s1, s2),
		one("pp_ss", false, p1, p2, s1, s2),
		one("pp_pp", false, p1, p2, p1, p2),
		one("ss_ss_general", true, s1, s2, s1, s2),
		one("pp_pp_general", true, p1, p2, p1, p2),
	}
	micro = append(micro, microD()...)
	micro = append(micro, batch())
	for _, m := range micro {
		fmt.Printf("micro %-14s %9.1f ns/quartet  %d allocs/op  (%d quartets)\n",
			m.Name, m.NsPerQuartet, m.AllocsPerOp, m.Quartets)
	}
	return micro
}

// runKernelDelta writes the before/after evidence for the generated
// kernels: per-quartet kernel-vs-general times on identical quartets of
// every all-s/p class and the d micro shapes, and the serial-oracle wall
// on methane/cc-pVDZ with the kernel layer off ("before": every quartet
// on the general MD path) and on ("after"). Both halves run back-to-back
// in one process, so the comparison needs no cross-machine calibration.
func runKernelDelta(out string, reps int) {
	bs, sp, ds := ethaneShapes()
	shapes := append(sp, ds...)
	micro := microShapes(bs, shapes)
	byName := map[string]microCase{}
	for _, m := range micro {
		byName[m.Name] = m
	}

	mbs, scr, d := setupMol(chem.Methane(), "cc-pvdz")
	var offNS, onNS int64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		core.BuildSerial(mbs, scr, d, core.Options{DisableFastKernels: true})
		offNS = minNZ(offNS, time.Since(t0).Nanoseconds())
		t0 = time.Now()
		core.BuildSerial(mbs, scr, d)
		onNS = minNZ(onNS, time.Since(t0).Nanoseconds())
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Generated kernel before/after (`cmd/bench -kernel-delta`, same machine, one process)\n\n")
	fmt.Fprintf(&b, "Evidence for the DESIGN.md §8 generated kernels (`cmd/kernelgen` →\n")
	fmt.Fprintf(&b, "`internal/integrals/kernels_gen.go`): the \"before\" column forces every\n")
	fmt.Fprintf(&b, "quartet onto the general MD path (`DisableFastKernels`), the \"after\"\n")
	fmt.Fprintf(&b, "column is the default dispatch. Identical quartets, identical process.\n\n")
	fmt.Fprintf(&b, "## Per-quartet kernel classes (ethane, cc-pVDZ shells)\n\n")
	fmt.Fprintf(&b, "| class | general ns/quartet | kernel ns/quartet | speedup | allocs/op |\n")
	fmt.Fprintf(&b, "|-------|-------------------:|------------------:|--------:|----------:|\n")
	for _, sh := range shapes {
		k, g := byName[sh.name], byName[sh.name+"_general"]
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | **%.1f×** | %d |\n",
			sh.name, g.NsPerQuartet, k.NsPerQuartet, g.NsPerQuartet/k.NsPerQuartet, k.AllocsPerOp)
	}
	fmt.Fprintf(&b, "\n## Serial Fock build, methane cc-pVDZ (best of %d)\n\n", reps)
	fmt.Fprintf(&b, "| path | wall | reduction |\n")
	fmt.Fprintf(&b, "|------|-----:|----------:|\n")
	fmt.Fprintf(&b, "| general MD only (before) | %.1f ms | — |\n", float64(offNS)/1e6)
	fmt.Fprintf(&b, "| generated kernels (after) | %.1f ms | **%.1f×** |\n",
		float64(onNS)/1e6, float64(offNS)/float64(onNS))
	fmt.Fprintf(&b, "\nThe dispatch coverage gate (`TestCCPVDZDispatchCoverage`,\n")
	fmt.Fprintf(&b, "`TestObservedBuildReportsDispatchSplit`) asserts 0%% of cc-pVDZ quartets\n")
	fmt.Fprintf(&b, "reach the general path; `TestGenKernelsZeroAlloc` pins 0 allocs/op.\n")
	fatalIf(os.WriteFile(out, []byte(b.String()), 0o644))
	fmt.Printf("kernel-delta report written to %s (serial %.1fms -> %.1fms, %.1fx)\n",
		out, float64(offNS)/1e6, float64(onNS)/1e6, float64(offNS)/float64(onNS))
}

// runAB measures the overhead of the observability layer with n
// interleaved A/B pairs on the pinned case: A builds with no sinks, B
// with tracing and metrics attached. Alternating the order within each
// pair cancels thermal and cache drift.
func runAB(spec, bname string, prow, pcol, n int) {
	bs, scr, d := setupSpec(spec, bname)
	build := func(observed bool) time.Duration {
		opt := core.Options{Prow: prow, Pcol: pcol}
		if observed {
			opt.Trace = &dist.Trace{}
			opt.Metrics = metrics.NewRegistry(prow * pcol)
		}
		return core.Build(bs, scr, d, opt).Wall
	}
	build(false) // warmup
	var a, b time.Duration
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			a += build(false)
			b += build(true)
		} else {
			b += build(true)
			a += build(false)
		}
	}
	over := float64(b)/float64(a) - 1
	fmt.Printf("A/B x%d on %s %s (%dx%d): disabled %.1fms, enabled %.1fms, overhead %+.2f%%\n",
		n, spec, bname, prow, pcol,
		float64(a.Milliseconds())/float64(n), float64(b.Milliseconds())/float64(n), over*100)
}

func compareReports(base, fresh benchReport, tol, mtol float64) error {
	byMol := map[string]benchCase{}
	for _, c := range base.Cases {
		byMol[c.Mol] = c
	}
	// calib is this machine's speed relative to the baseline machine,
	// estimated from the pure-ERI serial oracle of the first common case.
	// Micro times (absolute ns) are compared after scaling the baseline by
	// it, the same cancellation norm_wall does for the macro section.
	calib := 0.0
	for _, f := range fresh.Cases {
		b, ok := byMol[f.Mol]
		if !ok {
			continue
		}
		if calib == 0 && b.SerialNS > 0 {
			calib = float64(f.SerialNS) / float64(b.SerialNS)
		}
		if b.NormWall <= 0 {
			return fmt.Errorf("baseline %s has no norm_wall; regenerate the baseline", f.Mol)
		}
		if f.NormWall > b.NormWall*(1+tol) {
			return fmt.Errorf("%s regressed: norm_wall %.3f vs baseline %.3f (>%.0f%%)",
				f.Mol, f.NormWall, b.NormWall, tol*100)
		}
		fmt.Printf("%-10s norm_wall %.3f vs baseline %.3f: ok\n", f.Mol, f.NormWall, b.NormWall)
	}
	if len(fresh.Micro) == 0 {
		return nil
	}
	if calib == 0 {
		return fmt.Errorf("baseline has micro cases but no serial calibration; regenerate the baseline")
	}
	byName := map[string]microCase{}
	for _, m := range base.Micro {
		byName[m.Name] = m
	}
	for _, f := range fresh.Micro {
		b, ok := byName[f.Name]
		if !ok {
			continue
		}
		if f.AllocsPerOp > b.AllocsPerOp {
			return fmt.Errorf("micro %s regressed: %d allocs/op vs baseline %d",
				f.Name, f.AllocsPerOp, b.AllocsPerOp)
		}
		want := b.NsPerQuartet * calib
		if f.NsPerQuartet > want*(1+mtol) {
			return fmt.Errorf("micro %s regressed: %.1f ns/quartet vs calibrated baseline %.1f (>%.0f%%)",
				f.Name, f.NsPerQuartet, want, mtol*100)
		}
		fmt.Printf("micro %-14s %9.1f ns/quartet vs calibrated baseline %9.1f: ok\n",
			f.Name, f.NsPerQuartet, want)
	}
	return nil
}

func setup(n int, bname string) (*basis.Set, *screen.Screening, *linalg.Matrix) {
	return setupMol(chem.Alkane(n), bname)
}

// setupSpec resolves a series entry: "alkane:N" (any N, using the -basis
// flag) or "ch4:BASIS" (methane in the named basis — the pinned d-bearing
// case for the generated kernels).
func setupSpec(spec, bname string) (*basis.Set, *screen.Screening, *linalg.Matrix) {
	name, arg, ok := strings.Cut(spec, ":")
	if !ok {
		fatalIf(fmt.Errorf("bad case spec %q", spec))
	}
	switch name {
	case "alkane":
		n, err := strconv.Atoi(arg)
		fatalIf(err)
		return setup(n, bname)
	case "ch4":
		return setupMol(chem.Methane(), arg)
	}
	fatalIf(fmt.Errorf("unknown molecule in case spec %q", spec))
	return nil, nil, nil
}

func setupMol(mol *chem.Molecule, bname string) (*basis.Set, *screen.Screening, *linalg.Matrix) {
	bs, err := basis.Build(mol, bname)
	fatalIf(err)
	scr := screen.Compute(bs, screen.DefaultTau)
	d := linalg.Identity(bs.NumFuncs).Scale(0.5)
	return bs, scr, d
}

func readReport(path string) benchReport {
	data, err := os.ReadFile(path)
	fatalIf(err)
	var rep benchReport
	fatalIf(json.Unmarshal(data, &rep))
	return rep
}

func minNZ(cur, v int64) int64 {
	if cur == 0 || v < cur {
		return v
	}
	return cur
}

// parseSeries normalizes the series flag to mol:basis case specs; bare
// integers are alkane chain lengths ("4" -> "alkane:4").
func parseSeries(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if n, err := strconv.Atoi(part); err == nil {
			if n < 1 {
				return nil, fmt.Errorf("bad series entry %q", part)
			}
			out = append(out, fmt.Sprintf("alkane:%d", n))
			continue
		}
		if !strings.Contains(part, ":") {
			return nil, fmt.Errorf("bad series entry %q", part)
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty series")
	}
	return out, nil
}

func parseGrid(s string) (int, int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("grid must be RxC, got %q", s)
	}
	r, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	c, err := strconv.Atoi(parts[1])
	return r, c, err
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// Benchmarks: one per table and figure of the paper's evaluation section.
// Each benchmark regenerates (a scaled-down instance of) the corresponding
// experiment and reports the paper's metric via b.ReportMetric; the
// full-size tables in paper layout come from `go run ./cmd/paper -all`.
package gtfock_test

import (
	"sync"
	"testing"

	"gtfock"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/nwchem"
	"gtfock/internal/purify"
	"gtfock/internal/reorder"
	"gtfock/internal/scf"
	"gtfock/internal/screen"
)

// benchSystem is the shared scaled-down workload: a C30H62 alkane (1D,
// heavy screening) in the cc-pVDZ-like basis, cell-reordered for GTFock.
type benchSystem struct {
	bs, rbs   *gtfock.BasisSet
	scr, rscr *gtfock.Screening
	cfg       dist.Config
}

var (
	benchOnce sync.Once
	benchSys  benchSystem
)

func getBench(b *testing.B) *benchSystem {
	b.Helper()
	defer b.ResetTimer() // exclude the one-time setup from whoever runs first
	benchOnce.Do(func() {
		mol := gtfock.Alkane(30)
		bs, err := gtfock.BuildBasis(mol, "cc-pvdz")
		if err != nil {
			panic(err)
		}
		scr := gtfock.ComputeScreening(bs, 0)
		order := reorder.Cell(bs, 0)
		rbs := bs.Permute(order)
		benchSys = benchSystem{
			bs: bs, rbs: rbs,
			scr: scr, rscr: scr.Permute(order, rbs),
			cfg: dist.Lonestar(),
		}
		benchSys.cfg.TIntNWChemFactor = 0.55 // alkane (Table V)
	})
	return &benchSys
}

// BenchmarkTable2UniqueQuartets regenerates Table II's screening counts.
func BenchmarkTable2UniqueQuartets(b *testing.B) {
	s := getBench(b)
	var count int64
	for i := 0; i < b.N; i++ {
		count = s.scr.UniqueQuartetCount()
	}
	b.ReportMetric(float64(count), "unique-quartets")
	b.ReportMetric(s.scr.AvgPhi(), "avg-phi")
}

// BenchmarkTable3FockTimeGTFock simulates the Fock construction time at
// 432 cores (Table III, GTFock column).
func BenchmarkTable3FockTimeGTFock(b *testing.B) {
	s := getBench(b)
	var st *dist.RunStats
	for i := 0; i < b.N; i++ {
		var err error
		st, err = core.Simulate(s.rbs, s.rscr, s.cfg, 432)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.TFockAvg(), "sim-Tfock-s")
}

// BenchmarkTable3FockTimeNWChem simulates the baseline (Table III, NWChem
// column).
func BenchmarkTable3FockTimeNWChem(b *testing.B) {
	s := getBench(b)
	var st *dist.RunStats
	for i := 0; i < b.N; i++ {
		var err error
		st, err = nwchem.Simulate(s.bs, s.scr, s.cfg, 432)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.TFockAvg(), "sim-Tfock-s")
}

// BenchmarkTable4Speedup reports the simulated speedup of both engines
// from 12 to 1728 cores (Table IV).
func BenchmarkTable4Speedup(b *testing.B) {
	s := getBench(b)
	var gtS, nwS float64
	for i := 0; i < b.N; i++ {
		gt12, err := core.Simulate(s.rbs, s.rscr, s.cfg, 12)
		if err != nil {
			b.Fatal(err)
		}
		gtHi, err := core.Simulate(s.rbs, s.rscr, s.cfg, 1728)
		if err != nil {
			b.Fatal(err)
		}
		nw12, err := nwchem.Simulate(s.bs, s.scr, s.cfg, 12)
		if err != nil {
			b.Fatal(err)
		}
		nwHi, err := nwchem.Simulate(s.bs, s.scr, s.cfg, 1728)
		if err != nil {
			b.Fatal(err)
		}
		ref := gt12.TFockAvg()
		if nw12.TFockAvg() < ref {
			ref = nw12.TFockAvg()
		}
		gtS = 12 * ref / gtHi.TFockAvg()
		nwS = 12 * ref / nwHi.TFockAvg()
	}
	b.ReportMetric(gtS, "gtfock-speedup-1728")
	b.ReportMetric(nwS, "nwchem-speedup-1728")
}

// BenchmarkTable5TIntPlain measures the real per-ERI time without
// primitive prescreening (Table V, GTFock/ERD column).
func BenchmarkTable5TIntPlain(b *testing.B) { benchTInt(b, 0) }

// BenchmarkTable5TIntPrescreened measures the per-ERI time with primitive
// prescreening (Table V, NWChem column).
func BenchmarkTable5TIntPrescreened(b *testing.B) { benchTInt(b, 1e-12) }

func benchTInt(b *testing.B, primTol float64) {
	s := getBench(b)
	eng := integrals.NewEngine()
	eng.PrimTol = primTol
	bs := s.bs
	// A fixed sample of significant quartets.
	type q struct{ bra, ket *integrals.ShellPair }
	var quartets []q
	for m := 0; m < bs.NumShells() && len(quartets) < 64; m += 7 {
		phi := s.scr.Phi[m]
		if len(phi) < 2 {
			continue
		}
		bra := eng.Pair(&bs.Shells[m], &bs.Shells[phi[len(phi)/2]])
		ket := eng.Pair(&bs.Shells[phi[0]], &bs.Shells[phi[len(phi)-1]])
		quartets = append(quartets, q{bra, ket})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qt := quartets[i%len(quartets)]
		eng.ERI(qt.bra, qt.ket)
	}
	b.StopTimer()
	if eng.Stats.Integrals > 0 {
		b.ReportMetric(b.Elapsed().Seconds()/float64(eng.Stats.Integrals)*1e9, "ns/ERI")
	}
}

// BenchmarkTable5TIntKernels measures the per-ERI time of the batched
// generated-kernel path (DESIGN.md §8) on an s/p-only sto-3g alkane,
// where every quartet dispatches to a generated kernel — the kernel-layer
// companion to the two Table V rows above. Steady state must not
// allocate.
func BenchmarkTable5TIntKernels(b *testing.B) {
	bs, err := gtfock.BuildBasis(gtfock.Alkane(10), "sto-3g")
	if err != nil {
		b.Fatal(err)
	}
	scr := gtfock.ComputeScreening(bs, gtfock.DefaultTau)
	pt := scr.PairTable(0)
	var qs []integrals.Quartet
	ns := bs.NumShells()
	for m := 0; m < ns && len(qs) < 512; m += 3 {
		for _, p := range scr.Phi[m] {
			bra := pt.ID(m, p)
			for _, q := range scr.PhiQ[m] {
				ket := pt.ID(m, q)
				if pt.Q(bra)*pt.Q(ket) < scr.Tau {
					break
				}
				qs = append(qs, integrals.Quartet{Bra: bra, Ket: ket})
			}
		}
	}
	eng := integrals.NewEngine()
	visit := func(int, []float64) {}
	eng.ERIBatch(pt, qs, visit) // warm scratch
	eng.Stats = integrals.Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ERIBatch(pt, qs, visit)
	}
	b.StopTimer()
	if eng.Stats.Quartets > 0 {
		b.ReportMetric(b.Elapsed().Seconds()/float64(eng.Stats.Integrals)*1e9, "ns/ERI")
		b.ReportMetric(float64(eng.Stats.FastQuartets)/float64(eng.Stats.Quartets), "fast-fraction")
	}
}

// BenchmarkTable6CommVolume reports simulated per-process communication
// volume for both engines at 432 cores (Table VI).
func BenchmarkTable6CommVolume(b *testing.B) {
	s := getBench(b)
	var gtMB, nwMB float64
	for i := 0; i < b.N; i++ {
		gt, err := core.Simulate(s.rbs, s.rscr, s.cfg, 432)
		if err != nil {
			b.Fatal(err)
		}
		nw, err := nwchem.Simulate(s.bs, s.scr, s.cfg, 432)
		if err != nil {
			b.Fatal(err)
		}
		gtMB, nwMB = gt.VolumeAvgMB(), nw.VolumeAvgMB()
	}
	b.ReportMetric(gtMB, "gtfock-MB/proc")
	b.ReportMetric(nwMB, "nwchem-MB/proc")
}

// BenchmarkTable7CommCalls reports simulated one-sided call counts
// (Table VII).
func BenchmarkTable7CommCalls(b *testing.B) {
	s := getBench(b)
	var gtC, nwC float64
	for i := 0; i < b.N; i++ {
		gt, err := core.Simulate(s.rbs, s.rscr, s.cfg, 432)
		if err != nil {
			b.Fatal(err)
		}
		nw, err := nwchem.Simulate(s.bs, s.scr, s.cfg, 432)
		if err != nil {
			b.Fatal(err)
		}
		gtC, nwC = gt.CallsAvg(), nw.CallsAvg()
	}
	b.ReportMetric(gtC, "gtfock-calls/proc")
	b.ReportMetric(nwC, "nwchem-calls/proc")
}

// BenchmarkTable8LoadBalance reports the work-stealing load balance ratio
// (Table VIII).
func BenchmarkTable8LoadBalance(b *testing.B) {
	s := getBench(b)
	var l, steals float64
	for i := 0; i < b.N; i++ {
		st, err := core.Simulate(s.rbs, s.rscr, s.cfg, 972)
		if err != nil {
			b.Fatal(err)
		}
		l, steals = st.LoadBalance(), st.StealsAvg()
	}
	b.ReportMetric(l, "load-balance")
	b.ReportMetric(steals, "steals/proc")
}

// BenchmarkTable9Purification reports the purification share of an HF
// iteration (Table IX).
func BenchmarkTable9Purification(b *testing.B) {
	s := getBench(b)
	var pct float64
	for i := 0; i < b.N; i++ {
		st, err := core.Simulate(s.rbs, s.rscr, s.cfg, 432)
		if err != nil {
			b.Fatal(err)
		}
		tp := purify.SimulatedTime(s.bs.NumFuncs, 432/s.cfg.CoresPerNode, 90, s.cfg)
		pct = 100 * tp / (tp + st.TFockAvg())
	}
	b.ReportMetric(pct, "purify-%")
}

// BenchmarkFig1Footprint reports the data-reuse ratio of Figure 1: the
// D footprint of a block of tasks versus tasks-times-single-task.
func BenchmarkFig1Footprint(b *testing.B) {
	s := getBench(b)
	n := s.rbs.NumShells()
	var ratio float64
	for i := 0; i < b.N; i++ {
		single, _ := core.ExactDElements(s.rbs, s.rscr,
			core.TaskBlock{R0: n / 4, R1: n/4 + 1, C0: n / 2, C1: n/2 + 1})
		block, _ := core.ExactDElements(s.rbs, s.rscr,
			core.TaskBlock{R0: n / 4, R1: n/4 + 10, C0: n / 2, C1: n/2 + 10})
		ratio = float64(block) / float64(single)
	}
	b.ReportMetric(ratio, "block/task-footprint(100tasks)")
}

// BenchmarkFig2Overhead reports the parallel overhead of both engines at
// 1728 cores (the Fig. 2 series).
func BenchmarkFig2Overhead(b *testing.B) {
	s := getBench(b)
	var gtOv, nwOv float64
	for i := 0; i < b.N; i++ {
		gt, err := core.Simulate(s.rbs, s.rscr, s.cfg, 1728)
		if err != nil {
			b.Fatal(err)
		}
		nw, err := nwchem.Simulate(s.bs, s.scr, s.cfg, 1728)
		if err != nil {
			b.Fatal(err)
		}
		gtOv, nwOv = gt.TOverheadAvg(), nw.TOverheadAvg()
	}
	b.ReportMetric(gtOv, "gtfock-Tov-s")
	b.ReportMetric(nwOv, "nwchem-Tov-s")
}

// BenchmarkAblationReordering quantifies the design choice of Sec. III-D:
// simulated per-process communication volume under cell, natural, and
// random shell orderings.
func BenchmarkAblationReordering(b *testing.B) {
	s := getBench(b)
	n := s.bs.NumShells()
	orders := map[string][]int{
		"cell":    reorder.Cell(s.bs, 0),
		"natural": reorder.Identity(n),
		"random":  reorder.Random(n, 42),
	}
	vols := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for name, ord := range orders {
			pbs := s.bs.Permute(ord)
			pscr := s.scr.Permute(ord, pbs)
			st, err := core.Simulate(pbs, pscr, s.cfg, 432)
			if err != nil {
				b.Fatal(err)
			}
			vols[name] = st.VolumeAvgMB()
		}
	}
	b.ReportMetric(vols["cell"], "cell-MB")
	b.ReportMetric(vols["natural"], "natural-MB")
	b.ReportMetric(vols["random"], "random-MB")
}

// BenchmarkAblationStealing quantifies the work-stealing scheduler: load
// balance with the paper's row-wise policy, with stealing disabled, and
// with the richest-victim extension.
func BenchmarkAblationStealing(b *testing.B) {
	s := getBench(b)
	ls := map[core.StealPolicy]float64{}
	for i := 0; i < b.N; i++ {
		for _, pol := range []core.StealPolicy{core.StealRowWise, core.StealNone, core.StealRichest} {
			st, err := core.SimulateOptions(s.rbs, s.rscr, s.cfg, 972, core.SimOptions{Policy: pol})
			if err != nil {
				b.Fatal(err)
			}
			ls[pol] = st.LoadBalance()
		}
	}
	b.ReportMetric(ls[core.StealRowWise], "l-rowwise")
	b.ReportMetric(ls[core.StealNone], "l-nosteal")
	b.ReportMetric(ls[core.StealRichest], "l-richest")
}

// BenchmarkRealFockBuild times an actual (non-simulated) parallel Fock
// construction with real ERI evaluation on a 2x2 goroutine grid.
func BenchmarkRealFockBuild(b *testing.B) {
	mol := gtfock.Alkane(4)
	bs, err := gtfock.BuildBasis(mol, "sto-3g")
	if err != nil {
		b.Fatal(err)
	}
	scr := screen.Compute(bs, 1e-10)
	d := linalg.Identity(bs.NumFuncs).Scale(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(bs, scr, d, core.Options{Prow: 2, Pcol: 2})
	}
}

// BenchmarkSCFIteration times one full SCF energy on methane.
func BenchmarkSCFIteration(b *testing.B) {
	mol := gtfock.Methane()
	for i := 0; i < b.N; i++ {
		if _, err := scf.RunHF(mol, scf.Options{BasisName: "sto-3g"}); err != nil {
			b.Fatal(err)
		}
	}
}

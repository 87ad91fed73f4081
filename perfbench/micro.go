package main

import (
	"fmt"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/integrals"
	"gtfock/internal/screen"
)

// shellsOfL returns two shells of angular momentum l on distinct atoms,
// so the pinned quartets have generic geometry.
func shellsOfL(bs *basis.Set, l int) (int, int, error) {
	first := -1
	for i := range bs.Shells {
		if bs.Shells[i].L != l {
			continue
		}
		if first < 0 {
			first = i
		} else if bs.Shells[i].Atom != bs.Shells[first].Atom {
			return first, i, nil
		}
	}
	return 0, 0, fmt.Errorf("micro: no two shells with L=%d on distinct atoms", l)
}

// nsPerCall times f in five repetitions of about 20ms each and returns
// the median time per call, recording one span per repetition.
func nsPerCall(t *tracer, name string, f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) > 2*time.Millisecond {
			break
		}
		n *= 2
	}
	n *= 10
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		t1 := time.Now()
		t.add(0, name, 0, 0, t0, t1, 0)
		reps = append(reps, float64(t1.Sub(t0).Nanoseconds())/float64(n))
	}
	return median(reps)
}

// eriMicro measures the kernel layer on propane cc-pVDZ, the scf-direct
// system: Engine.ERI per pinned quartet of each hot shell class, and
// Engine.ERIBatch per quartet over the largest task's surviving quartet
// list, plus the most allocations any of them makes per call.
func eriMicro(rep *report, t *tracer) error {
	bs, err := basis.Build(chem.Alkane(3), "cc-pvdz")
	if err != nil {
		return err
	}
	var sh [3][2]int
	for l := range sh {
		if sh[l][0], sh[l][1], err = shellsOfL(bs, l); err != nil {
			return err
		}
	}
	s1, s2, p1, p2, d1, d2 := sh[0][0], sh[0][1], sh[1][0], sh[1][1], sh[2][0], sh[2][1]
	cases := []struct {
		name       string
		a, b, c, d int
	}{
		{"ss_ss", s1, s2, s1, s2},
		{"pp_pp", p1, p2, p1, p2},
		{"ds_ss", d1, s1, s1, s2},
		{"pd_ps", p1, d1, p1, s1},
		{"dd_dd", d1, d2, d1, d2},
	}
	eng := integrals.NewEngine()
	allocs := 0.0
	for _, c := range cases {
		bra := eng.Pair(&bs.Shells[c.a], &bs.Shells[c.b])
		ket := eng.Pair(&bs.Shells[c.c], &bs.Shells[c.d])
		f := func() { eng.ERI(bra, ket) }
		f()
		rep.set("integrals.eri_ns."+c.name, nsPerCall(t, "integrals.Engine.ERI", f))
		allocs = max(allocs, testing.AllocsPerRun(100, f))
	}

	// The largest task's surviving quartets, in the order core's workers
	// batch them.
	scr := screen.Compute(bs, screen.DefaultTau)
	pt := scr.PairTable(0)
	var best []integrals.Quartet
	ns := bs.NumShells()
	for m := 0; m < ns; m++ {
		for n := 0; n < ns; n++ {
			if !core.SymmetryCheck(m, n) {
				continue
			}
			var qs []integrals.Quartet
			for _, p := range scr.Phi[m] {
				bra := pt.ID(m, p)
				if !core.SymmetryCheck(m, p) || bra == integrals.NoPair {
					continue
				}
				for _, q := range scr.Phi[n] {
					if !core.SymmetryCheck(n, q) || !scr.KeepQuartet(m, p, n, q) ||
						(m == n && !core.SymmetryCheck(p, q)) {
						continue
					}
					qs = append(qs, integrals.Quartet{Bra: bra, Ket: pt.ID(n, q)})
				}
			}
			if len(qs) > len(best) {
				best = qs
			}
		}
	}
	if len(best) == 0 {
		return fmt.Errorf("micro: no surviving quartets")
	}
	sink := 0.0
	visit := func(k int, b []float64) { sink += b[0] }
	f := func() { eng.ERIBatch(pt, best, visit) }
	f()
	rep.set("integrals.batch_ns", nsPerCall(t, "integrals.Engine.ERIBatch", f)/float64(len(best)))
	allocs = max(allocs, testing.AllocsPerRun(10, f))
	rep.set("integrals.allocs_per_op", allocs)
	return nil
}

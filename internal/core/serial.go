package core

import (
	"gtfock/internal/basis"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/screen"
)

// BuildSerial computes the two-electron part of the Fock matrix,
// G_ij = sum_kl D_kl (2(ij|kl) - (ik|jl)), by brute force over ALL ordered
// shell quartets with no use of permutational symmetry. It is the
// correctness oracle for the parallel builders: slow, simple, and
// obviously faithful to the defining equation (3).
//
// Screening is applied with the same Cauchy-Schwarz rule as the parallel
// code so that results agree to the screening tolerance.
//
// The optional opts (at most one is honored) carries the ERI engine
// knobs — PrimTol and DisableFastKernels — so A/B measurements
// (e.g. the kernel-delta benchmarks) can run the oracle with and
// without the generated kernel layer.
func BuildSerial(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix, opts ...Options) *linalg.Matrix {
	n := bs.NumFuncs
	ns := bs.NumShells()
	g := linalg.NewMatrix(n, n)
	eng := integrals.NewEngine()
	if len(opts) > 0 {
		eng.PrimTol = opts[0].PrimTol
		eng.DisableFastKernels = opts[0].DisableFastKernels
	}
	pt := scr.PairTable(0)

	for m := 0; m < ns; m++ {
		for p := 0; p < ns; p++ {
			bra := pt.Lookup(m, p)
			if bra == nil {
				continue
			}
			for nn := 0; nn < ns; nn++ {
				for q := 0; q < ns; q++ {
					if !scr.KeepQuartet(m, p, nn, q) {
						continue
					}
					batch := eng.ERI(bra, pt.Lookup(nn, q))
					applyOrdered(g, d, bs, m, p, nn, q, batch)
				}
			}
		}
	}
	return g
}

// applyOrdered applies the ordered-quartet Fock contraction for the batch
// v[i][j][k][l] = (ij|kl) with i in M, j in P, k in N, l in Q:
//
//	G_ij += 2 D_kl v   (Coulomb)
//	G_ik -=   D_jl v   (exchange)
//
// Summed over all ordered quartets this reproduces equation (3) exactly.
func applyOrdered(g, d *linalg.Matrix, bs *basis.Set, m, p, nq, q int, batch []float64) {
	om, op := bs.Offsets[m], bs.Offsets[p]
	on, oq := bs.Offsets[nq], bs.Offsets[q]
	nm, np := bs.ShellFuncs(m), bs.ShellFuncs(p)
	nn, nqf := bs.ShellFuncs(nq), bs.ShellFuncs(q)
	idx := 0
	for i := 0; i < nm; i++ {
		for j := 0; j < np; j++ {
			for k := 0; k < nn; k++ {
				for l := 0; l < nqf; l++ {
					v := batch[idx]
					idx++
					g.Add(om+i, op+j, 2*v*d.At(on+k, oq+l))
					g.Add(om+i, on+k, -v*d.At(op+j, oq+l))
				}
			}
		}
	}
}

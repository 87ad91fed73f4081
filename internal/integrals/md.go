package integrals

import (
	"math"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
)

// primPair holds the precomputed quantities of one primitive pair of a
// shell pair: the Gaussian product center, combined exponent, contraction
// product, and the McMurchie-Davidson E expansion tables (one per
// Cartesian dimension, each of shape (la+1) x (lb+1) x (la+lb+1)).
type primPair struct {
	p     float64 // a + b
	inv2p float64 // 1/(2p)
	P     chem.Vec3
	cc    float64 // product of contraction coefficients
	k3    float64 // exp(-mu |AB|^2), the 3D Gaussian product prefactor
	e     [3][]float64
}

// ShellPair is the precomputed bra or ket of an ERI: a pair of shells with
// per-primitive-pair MD expansion data. Pairs are the reusable unit of
// integral evaluation, mirroring how real ERI codes (including ERD, the
// paper's engine) organize computation.
type ShellPair struct {
	A, B   *basis.Shell
	LA, LB int
	prims  []primPair
}

// NewShellPair precomputes the MD data for shells a and b. Primitive pairs
// whose Gaussian-product magnitude |c_a c_b| exp(-mu|AB|^2) falls below
// primTol are dropped; pass 0 to keep everything. A positive primTol is the
// "primitive pre-screening" that gives NWChem's integral code its edge in
// the paper's Table V discussion.
func NewShellPair(a, b *basis.Shell, primTol float64) *ShellPair {
	sp := &ShellPair{}
	fillShellPair(sp, a, b, primTol,
		func(n int) []primPair { return make([]primPair, n) },
		func(n int) []float64 { return make([]float64, n) })
	return sp
}

// fillShellPair builds sp in place, taking primitive-pair and E-table
// storage from the given allocators so a PairTable can carve thousands of
// pairs out of a handful of arena chunks. Allocators must return zeroed
// memory of exactly the requested length.
func fillShellPair(sp *ShellPair, a, b *basis.Shell, primTol float64,
	palloc func(n int) []primPair, ealloc func(n int) []float64) {
	sp.A, sp.B, sp.LA, sp.LB = a, b, a.L, b.L
	ab := a.Center.Sub(b.Center)
	ab2 := ab.Norm2()
	la, lb := a.L, b.L
	tdim := la + lb + 1
	// Count surviving primitive pairs first: arena allocators hand out
	// exactly-sized storage and never move it.
	n := 0
	for i, ea := range a.Exps {
		for j, eb := range b.Exps {
			mu := ea * eb / (ea + eb)
			if primTol > 0 &&
				math.Abs(a.Coefs[i]*b.Coefs[j])*math.Exp(-mu*ab2) < primTol {
				continue
			}
			n++
		}
	}
	prims := palloc(n)[:0]
	esz := (la + 1) * (lb + 1) * tdim
	for i, ea := range a.Exps {
		for j, eb := range b.Exps {
			p := ea + eb
			mu := ea * eb / p
			k3 := math.Exp(-mu * ab2)
			cc := a.Coefs[i] * b.Coefs[j]
			if primTol > 0 && math.Abs(cc)*k3 < primTol {
				continue
			}
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			pp := primPair{p: p, inv2p: 1 / (2 * p), P: P, cc: cc, k3: k3}
			pa := P.Sub(a.Center)
			pb := P.Sub(b.Center)
			paD := [3]float64{pa.X, pa.Y, pa.Z}
			pbD := [3]float64{pb.X, pb.Y, pb.Z}
			for d := 0; d < 3; d++ {
				pp.e[d] = ealloc(esz)
				// The 1D E(0,0,0) carries no AB factor here; the full 3D
				// prefactor k3 is applied once at contraction time so the
				// per-dimension tables stay well scaled.
				eTable(la, lb, pp.inv2p, paD[d], pbD[d], pp.e[d], lb+1, tdim)
			}
			prims = append(prims, pp)
		}
	}
	sp.prims = prims
}

// eTable fills the MD expansion coefficients E_t^{ij} for one dimension:
// out[(i*jdim+j)*tdim+t], i <= la, j <= lb (jdim >= lb+1), t <= i+j
// (tdim >= la+lb+1), with E_0^{00} = 1.
func eTable(la, lb int, inv2p, pa, pb float64, out []float64, jdim, tdim int) {
	idx := func(i, j, t int) int { return (i*jdim+j)*tdim + t }
	get := func(i, j, t int) float64 {
		if t < 0 || t > i+j {
			return 0
		}
		return out[idx(i, j, t)]
	}
	out[idx(0, 0, 0)] = 1
	// Raise i with j = 0.
	for i := 0; i < la; i++ {
		for t := 0; t <= i+1; t++ {
			out[idx(i+1, 0, t)] = inv2p*get(i, 0, t-1) + pa*get(i, 0, t) +
				float64(t+1)*get(i, 0, t+1)
		}
	}
	// Raise j for every i.
	for i := 0; i <= la; i++ {
		for j := 0; j < lb && j < jdim-1; j++ {
			for t := 0; t <= i+j+1; t++ {
				out[idx(i, j+1, t)] = inv2p*get(i, j, t-1) + pb*get(i, j, t) +
					float64(t+1)*get(i, j, t+1)
			}
		}
	}
}

// hermiteRTable fills r (size td^3, td = L+1) with the Hermite Coulomb
// integrals R^0_{tuv}(alpha, PQ) for t+u+v <= L, using aux as scratch
// (size (L+1)*td^3) and the Boys values F_0..F_L(alpha*|PQ|^2) in boys.
func hermiteRTable(l int, alpha float64, pq chem.Vec3, boys, r, aux []float64) {
	td := l + 1
	td2 := td * td
	td3 := td2 * td
	at := func(m, t, u, v int) int { return m*td3 + t*td2 + u*td + v }
	// m levels of R_{000}.
	f := 1.0
	for m := 0; m <= l; m++ {
		aux[at(m, 0, 0, 0)] = f * boys[m]
		f *= -2 * alpha
	}
	for ord := 1; ord <= l; ord++ {
		for m := 0; m <= l-ord; m++ {
			for t := 0; t <= ord; t++ {
				for u := 0; u <= ord-t; u++ {
					v := ord - t - u
					var val float64
					switch {
					case t > 0:
						if t > 1 {
							val += float64(t-1) * aux[at(m+1, t-2, u, v)]
						}
						val += pq.X * aux[at(m+1, t-1, u, v)]
					case u > 0:
						if u > 1 {
							val += float64(u-1) * aux[at(m+1, t, u-2, v)]
						}
						val += pq.Y * aux[at(m+1, t, u-1, v)]
					default:
						if v > 1 {
							val += float64(v-1) * aux[at(m+1, t, u, v-2)]
						}
						val += pq.Z * aux[at(m+1, t, u, v-1)]
					}
					aux[at(m, t, u, v)] = val
				}
			}
		}
	}
	copy(r[:td3], aux[:td3])
}

// Stats counts work done by an Engine.
type Stats struct {
	Quartets     int64 // shell quartets computed
	Integrals    int64 // basis-function ERIs produced (spherical)
	PrimQuartets int64 // primitive quartets surviving prescreening
	FastQuartets int64 // quartets served by a generated kernel

	// FastQuartets split by shell content, all served by the generated
	// kernels (kernels_gen.go): FastSP counts the all-s/p quartets and
	// FastGen those with a d shell, so FastQuartets = FastSP + FastGen.
	// MirrorGen is the subset of FastQuartets served through the
	// swap-and-transpose mirror wrapper. GeneralQuartets took the general
	// MD recursion (L > 2 on some shell, or DisableFastKernels);
	// Quartets = FastQuartets + GeneralQuartets.
	FastSP          int64
	FastGen         int64
	MirrorGen       int64
	GeneralQuartets int64

	// ByClass[bc][kc] counts quartets by bra and ket pair class
	// (ClassSS..ClassDD, with ClassHi for pairs beyond d), regardless of
	// which path served them.
	ByClass [NumPairClasses + 1][NumPairClasses + 1]int64
}

// GeneralFraction reports the fraction of quartets that took the general
// MD path (0 when no quartets were computed).
func (s *Stats) GeneralFraction() float64 {
	if s.Quartets == 0 {
		return 0
	}
	return float64(s.GeneralQuartets) / float64(s.Quartets)
}

// Engine computes ERI shell-quartet batches and one-electron integrals.
// Engines hold scratch buffers and are NOT safe for concurrent use; create
// one per goroutine (the Fock builders do).
type Engine struct {
	// PrimTol enables primitive pre-screening in pairs built through the
	// engine (see NewShellPair).
	PrimTol float64
	// DisableFastKernels forces every quartet through the general MD path
	// instead of the generated kernels (kernels_gen.go). An A/B knob and
	// escape hatch; the kernels are on by default.
	DisableFastKernels bool
	Stats              Stats

	boys   [maxBoysM + 1]float64
	raux   []float64
	rtab   []float64
	gtab   []float64
	cart   []float64
	sphScr [2][]float64
	out    []float64

	// Generated-kernel scratch (kernels_gen.go): the stride-9 Hermite R
	// cube, the g[braHermite][ketComp] two-phase intermediate, the per-
	// primitive-pair folded bra terms (336 = the dd slot count), and the
	// growable ket-term and mirror-transpose buffers. The fixed-size
	// arrays keep the kernels off the allocator.
	genR     [729]float64
	genG     [35][36]float64
	genBra   [336]float64
	genKet   []float64
	genCartT []float64
}

// NewEngine returns an Engine with prescreening disabled.
func NewEngine() *Engine { return &Engine{} }

// Pair builds a ShellPair using the engine's PrimTol.
func (e *Engine) Pair(a, b *basis.Shell) *ShellPair {
	return NewShellPair(a, b, e.PrimTol)
}

func (e *Engine) ensure(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// DefaultScratchBudget is the TrimScratch budget used when 0 is passed:
// comfortably above the ~120 KiB working set of a (dd|dd) quartet, so
// trimming is a no-op for ordinary basis sets.
const DefaultScratchBudget = 256 << 10

// ScratchBytes reports the engine's current growable scratch footprint in
// bytes (the fixed-size kernel scratch is excluded; it is part of the
// Engine struct itself).
func (e *Engine) ScratchBytes() int {
	n := cap(e.raux) + cap(e.rtab) + cap(e.gtab) + cap(e.cart) +
		cap(e.sphScr[0]) + cap(e.sphScr[1]) + cap(e.out) +
		cap(e.genKet) + cap(e.genCartT)
	return n * 8
}

// TrimScratch releases the engine's growable scratch if it exceeds budget
// bytes (0 means DefaultScratchBudget). ensure() deliberately never
// shrinks, so a single huge quartet would otherwise pin peak-sized
// buffers per worker for the rest of an SCF run; the Fock builders call
// this at episode boundaries (never inside a batch — returned batches
// alias the scratch).
func (e *Engine) TrimScratch(budget int) {
	if budget <= 0 {
		budget = DefaultScratchBudget
	}
	if e.ScratchBytes() <= budget {
		return
	}
	e.raux, e.rtab, e.gtab, e.cart = nil, nil, nil, nil
	e.sphScr[0], e.sphScr[1], e.out = nil, nil, nil
	e.genKet, e.genCartT = nil, nil
}

// ERI computes the contracted, spherical shell-quartet batch
// (bra.A bra.B | ket.A ket.B), returned row-major with indices
// [a][b][c][d]. The returned slice is engine-owned scratch, valid until
// the next engine call; copy it to retain it.
func (e *Engine) ERI(bra, ket *ShellPair) []float64 {
	cart := e.eriCartAuto(bra, ket)
	sph := sphTransform4(bra.LA, bra.LB, ket.LA, ket.LB, cart, &e.sphScr)
	n := len(sph)
	e.Stats.Quartets++
	e.Stats.Integrals += int64(n)
	out := e.ensure(&e.out, n)
	copy(out, sph)
	return out
}

// ERICart computes the contracted Cartesian quartet batch (used by tests
// to compare against the Obara-Saika oracle). Engine-owned scratch.
func (e *Engine) ERICart(bra, ket *ShellPair) []float64 {
	return e.eriCart(bra, ket)
}

const twoPiPow52 = 2 * 17.493418327624862846 // 2 * pi^{5/2}

func (e *Engine) eriCart(bra, ket *ShellPair) []float64 {
	la, lb, lc, ld := bra.LA, bra.LB, ket.LA, ket.LB
	ca, cb, cc2, cd := CartComponents(la), CartComponents(lb), CartComponents(lc), CartComponents(ld)
	na, nb, nc, nd := len(ca), len(cb), len(cc2), len(cd)
	nket := nc * nd
	ltot := la + lb + lc + ld
	lab := la + lb
	lcd := lc + ld
	tdAB := lab + 1
	td := ltot + 1
	td2, td3 := td*td, td*td*td

	cart := e.ensure(&e.cart, na*nb*nc*nd)
	for i := range cart {
		cart[i] = 0
	}
	rtab := e.ensure(&e.rtab, td3)
	raux := e.ensure(&e.raux, (ltot+1)*td3)
	gdim := tdAB * tdAB * tdAB
	gtab := e.ensure(&e.gtab, nket*gdim)

	jdimB := lb + 1
	jdimD := ld + 1
	tdimAB := lab + 1
	tdimCD := lcd + 1

	for bi := range bra.prims {
		bp := &bra.prims[bi]
		for ki := range ket.prims {
			kp := &ket.prims[ki]
			e.Stats.PrimQuartets++
			p, q := bp.p, kp.p
			alpha := p * q / (p + q)
			pq := bp.P.Sub(kp.P)
			x := alpha * pq.Norm2()
			Boys(ltot, x, e.boys[:])
			hermiteRTable(ltot, alpha, pq, e.boys[:], rtab, raux)
			pref := twoPiPow52 / (p * q * math.Sqrt(p+q)) *
				bp.cc * kp.cc * bp.k3 * kp.k3

			// Build g[ketcomp][t][u][v] = sum_{tau,nu,phi}
			//   (-1)^{tau+nu+phi} Ecd R_{t+tau, u+nu, v+phi}.
			exC, eyC, ezC := kp.e[0], kp.e[1], kp.e[2]
			for ic, cC := range cc2 {
				for id, cD := range cd {
					g := gtab[(ic*nd+id)*gdim : (ic*nd+id+1)*gdim]
					exBase := (cC.X*jdimD + cD.X) * tdimCD
					eyBase := (cC.Y*jdimD + cD.Y) * tdimCD
					ezBase := (cC.Z*jdimD + cD.Z) * tdimCD
					tmaxC := cC.X + cD.X
					umaxC := cC.Y + cD.Y
					vmaxC := cC.Z + cD.Z
					for t := 0; t <= lab; t++ {
						for u := 0; u <= lab-t; u++ {
							for v := 0; v <= lab-t-u; v++ {
								var s float64
								for tau := 0; tau <= tmaxC; tau++ {
									ex := exC[exBase+tau]
									if ex == 0 {
										continue
									}
									if tau&1 == 1 {
										ex = -ex
									}
									for nu := 0; nu <= umaxC; nu++ {
										ey := eyC[eyBase+nu]
										if ey == 0 {
											continue
										}
										if nu&1 == 1 {
											ey = -ey
										}
										exy := ex * ey
										rrow := rtab[(t+tau)*td2+(u+nu)*td:]
										for phi := 0; phi <= vmaxC; phi++ {
											ez := ezC[ezBase+phi]
											if ez == 0 {
												continue
											}
											if phi&1 == 1 {
												ez = -ez
											}
											s += exy * ez * rrow[v+phi]
										}
									}
								}
								g[(t*tdAB+u)*tdAB+v] = s
							}
						}
					}
				}
			}

			// Contract bra E coefficients with g.
			exA, eyA, ezA := bp.e[0], bp.e[1], bp.e[2]
			for ia, cA := range ca {
				for ib, cB := range cb {
					exBase := (cA.X*jdimB + cB.X) * tdimAB
					eyBase := (cA.Y*jdimB + cB.Y) * tdimAB
					ezBase := (cA.Z*jdimB + cB.Z) * tdimAB
					tmax := cA.X + cB.X
					umax := cA.Y + cB.Y
					vmax := cA.Z + cB.Z
					braBase := (ia*nb + ib) * nket
					for kc := 0; kc < nket; kc++ {
						g := gtab[kc*gdim : (kc+1)*gdim]
						var s float64
						for t := 0; t <= tmax; t++ {
							ex := exA[exBase+t]
							if ex == 0 {
								continue
							}
							for u := 0; u <= umax; u++ {
								ey := eyA[eyBase+u]
								if ey == 0 {
									continue
								}
								exy := ex * ey
								grow := g[(t*tdAB+u)*tdAB:]
								for v := 0; v <= vmax; v++ {
									ez := ezA[ezBase+v]
									if ez != 0 {
										s += exy * ez * grow[v]
									}
								}
							}
						}
						cart[braBase+kc] += pref * s
					}
				}
			}
		}
	}
	return cart
}

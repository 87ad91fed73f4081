package integrals

// Kernel dispatch. Every quartet with L <= 2 on each shell is served by a
// generated kernel in kernels_gen.go (see cmd/kernelgen): straight-line
// code with the McMurchie-Davidson Hermite expansion constant-folded per
// component pair, one kernel per canonical class (bra pair class >= ket
// pair class). This file holds the pair-class tables and eriCartAuto,
// which routes a quartet to its kernel, or to the general MD recursion
// in md.go for f shells and DisableFastKernels.
//
// Mirror classes reuse the canonical kernels: because R_{tuv}(-PQ) =
// (-1)^{t+u+v} R_{tuv}(PQ), a (Y|X) quartet is the transpose of the
// (X|Y) kernel called with the sides swapped. Every kernel is
// cross-checked against the general MD path and the Obara-Saika oracle
// in kernels_gen_test.

//go:generate go run gtfock/cmd/kernelgen -out kernels_gen.go

// Shell-pair classes for kernel dispatch and per-class statistics: the
// seven distinct L<=2 pair layouts. sp and sd pairs are served by the
// ClassPS and ClassDS kernels because their flat E-table offsets and
// component-pair orders coincide numerically; pd and dp do not alias
// (their component-pair orders diverge) and are distinct classes.
const (
	ClassSS = iota
	ClassPS
	ClassPP
	ClassDS
	ClassPD
	ClassDP
	ClassDD
	// NumPairClasses counts the kernel pair classes above.
	NumPairClasses
)

// ClassHi buckets any pair carrying a shell beyond d; such quartets
// always take the general MD path.
const ClassHi = NumPairClasses

// pairClassTab maps la*3+lb (la, lb <= 2) to the pair class.
var pairClassTab = [9]int8{
	ClassSS, ClassPS, ClassDS,
	ClassPS, ClassPP, ClassPD,
	ClassDS, ClassDP, ClassDD,
}

var pairClassNames = [NumPairClasses + 1]string{
	"ss", "ps", "pp", "ds", "pd", "dp", "dd", "hi",
}

// PairClassName returns a short label for a pair-class index
// (ClassSS.."dd", with ClassHi as "hi").
func PairClassName(c int) string {
	if c < 0 || c > ClassHi {
		return "??"
	}
	return pairClassNames[c]
}

func pairClass(sp *ShellPair) int {
	if sp.LA > 2 || sp.LB > 2 {
		return ClassHi
	}
	return int(pairClassTab[sp.LA*3+sp.LB])
}

// eriCartAuto dispatches a quartet to its generated kernel, falling back
// to the general MD path for anything beyond d.
func (e *Engine) eriCartAuto(bra, ket *ShellPair) []float64 {
	bc, kc := pairClass(bra), pairClass(ket)
	e.Stats.ByClass[bc][kc]++
	if e.DisableFastKernels || bc == ClassHi || kc == ClassHi {
		e.Stats.GeneralQuartets++
		return e.eriCart(bra, ket)
	}
	e.Stats.FastQuartets++
	if bc <= ClassPP && kc <= ClassPP {
		e.Stats.FastSP++
	} else {
		e.Stats.FastGen++
	}
	if fn := genKernels[bc][kc]; fn != nil {
		return fn(e, bra, ket)
	}
	// Non-canonical class (bra class < ket class): bra-ket symmetry
	// makes the swapped kernel's output exactly the [ket][bra] layout of
	// this quartet (within MD this is the R(-PQ) parity identity), so
	// transpose it into separate scratch — cart would be clobbered in
	// place.
	e.Stats.MirrorGen++
	swapped := genKernels[kc][bc](e, ket, bra)
	nb := NumCart(bra.LA) * NumCart(bra.LB)
	nk := NumCart(ket.LA) * NumCart(ket.LB)
	out := e.ensure(&e.genCartT, nb*nk)
	for i := 0; i < nk; i++ {
		col := swapped[i*nb : i*nb+nb]
		for j, v := range col {
			out[j*nk+i] = v
		}
	}
	return out
}

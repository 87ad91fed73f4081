// Command kernelgen generates the ERI kernels of
// internal/integrals/kernels_gen.go: one straight-line kernel per
// canonical quartet class with L <= 2 on every shell, and the unrolled
// Hermite recursions they call.
//
// It walks the McMurchie-Davidson Hermite expansion at generation time:
// for each quartet class (a bra pair class x a ket pair class, both up
// to d shells) it enumerates, per component pair, the sparse E-coefficient
// structure — every term is a product of up to three 1D E-table entries
// with a compile-time-known flat offset into a fixed stride-9 Hermite R
// cube — and emits straight-line, branch-free Go that
//
//  1. builds the folded term coefficients once per primitive pair
//     (genTermsXX builders; the ket side folds the (-1)^(t+u+v) phase),
//  2. fills the R cube with genHermiteRn, the R^m_{tuv} recursion of
//     total order n unrolled with every m > 0 level in locals, so only
//     the m = 0 plane is stored,
//  3. contracts ket terms against R at every bra-reachable Hermite index
//     into the g[braHermite][ketComp] intermediate (phase 1), and
//  4. contracts bra terms against g with a fused per-row axpy loop the
//     compiler can vectorize (phase 2).
//
// An ss ket skips the g intermediate (its single term is R_000), and
// (ss|ss) is one boysF0 call per primitive quartet. Only canonical
// classes with braClass >= ketClass are emitted — 28 kernels; the 21
// mirrored combinations are served by eriCartAuto calling the swapped
// kernel and transposing (bra-ket symmetry plus the R(-PQ) parity
// identity make the swapped output exactly the transpose).
//
// The generator re-derives the small amount of integrals-package layout
// it depends on (Cartesian component order, E-table flat indexing, the
// primPair field set) rather than importing the package, so it builds
// standalone; the property sweep in kernels_gen_test.go is what actually
// pins the two in agreement. Regenerate with
//
//	go generate ./internal/integrals
//
// (or `make generate-check`, which also fails CI on drift).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

type cart struct{ x, y, z int }

// cartComponents mirrors integrals.CartComponents: lx descending, then
// ly descending.
func cartComponents(l int) []cart {
	var cs []cart
	for x := l; x >= 0; x-- {
		for y := l - x; y >= 0; y-- {
			cs = append(cs, cart{x, y, l - x - y})
		}
	}
	return cs
}

func numCart(l int) int { return (l + 1) * (l + 2) / 2 }

// maxOrder is the largest total angular momentum of a quartet, (dd|dd);
// maxSide is that of one side, dd.
const (
	maxOrder = 8
	maxSide  = 4
)

// rStride is the fixed per-dimension stride of the shared Hermite R
// cube: bra t + ket tau reaches at most 4+4 = 8 per dimension for
// (dd|dd), so 9 indices per dimension cover every class.
const rStride = maxOrder + 1

var dim9 = [3]int{rStride * rStride, rStride, 1}

// hermList enumerates the Hermite indices (t,u,v) order-major (total
// order 0..8; within an order t descending, then u descending), so the
// first hermPrefix[L] entries are exactly the indices of total order
// <= L.
var (
	hermList   []cart
	hermPrefix [maxOrder + 1]int
	hermIndex  = map[cart]int{}
)

func init() {
	for ord := 0; ord <= maxOrder; ord++ {
		for t := ord; t >= 0; t-- {
			for u := ord - t; u >= 0; u-- {
				c := cart{t, u, ord - t - u}
				hermIndex[c] = len(hermList)
				hermList = append(hermList, c)
			}
		}
		hermPrefix[ord] = len(hermList)
	}
}

// class is one shell-pair layout. sp and sd quartet sides are served by
// the ps and ds entries: their flat E-table offsets and component-pair
// orders coincide numerically, so the same builders and kernels apply.
// pd and dp do NOT alias (their component-pair orders diverge) and get
// separate entries.
type class struct {
	name   string
	la, lb int
}

func (c class) ord() int        { return c.la + c.lb }
func (c class) ncomp() int      { return numCart(c.la) * numCart(c.lb) }
func (c class) esz() int        { return (c.la + 1) * (c.lb + 1) * (c.la + c.lb + 1) }
func (c class) builder() string { return "genTerms" + strings.ToUpper(c.name) }

// classes in canonical dispatch order; indices must match the Class*
// constants in kernels.go.
var classes = []class{
	{"ss", 0, 0}, {"ps", 1, 0}, {"pp", 1, 1},
	{"ds", 2, 0}, {"pd", 1, 2}, {"dp", 2, 1}, {"dd", 2, 2},
}

// term is one constant-folded Hermite expansion term of a component
// pair: a product of E-table entries (one per dimension carrying
// angular momentum), its Hermite index (t,u,v), and whether the
// ket-side phase flips its sign.
type term struct {
	slot    int
	factors []int // E-table flat offset per factor
	facDims []int // dimension of each factor
	herm    cart
	odd     bool
}

func (t term) roff() int { return t.herm.roff() }

// roff is the flat offset of Hermite index c in the stride-9 R cube.
func (c cart) roff() int { return c.x*dim9[0] + c.y*dim9[1] + c.z*dim9[2] }

// classTerms is a class plus its full folded term structure: pairs[c]
// lists the terms of component pair c, slots is the total term count
// (the builder's output array length).
type classTerms struct {
	class
	pairs [][]term
	slots int
}

func buildTerms(c class) *classTerms {
	ct := &classTerms{class: c}
	ca, cb := cartComponents(c.la), cartComponents(c.lb)
	jdim, tdim := c.lb+1, c.la+c.lb+1
	for _, A := range ca {
		ax := [3]int{A.x, A.y, A.z}
		for _, B := range cb {
			bx := [3]int{B.x, B.y, B.z}
			terms := []term{{}}
			for d := 0; d < 3; d++ {
				i, j := ax[d], bx[d]
				if i+j == 0 {
					continue // E^{00}_0 = 1 contributes no factor
				}
				base := (i*jdim + j) * tdim
				var next []term
				for _, tm := range terms {
					for t := 0; t <= i+j; t++ {
						nt := term{
							factors: append(append([]int{}, tm.factors...), base+t),
							facDims: append(append([]int{}, tm.facDims...), d),
							herm:    tm.herm,
						}
						switch d {
						case 0:
							nt.herm.x += t
						case 1:
							nt.herm.y += t
						default:
							nt.herm.z += t
						}
						next = append(next, nt)
					}
				}
				terms = next
			}
			for i := range terms {
				h := terms[i].herm
				terms[i].odd = (h.x+h.y+h.z)%2 == 1
				terms[i].slot = ct.slots
				ct.slots++
			}
			ct.pairs = append(ct.pairs, terms)
		}
	}
	return ct
}

func emitHeader(w *bytes.Buffer) {
	fmt.Fprint(w, `// Code generated by gtfock/cmd/kernelgen; DO NOT EDIT.
//
// Specialized ERI kernels for every canonical quartet class with L <= 2
// on each shell, produced by constant-folding the McMurchie-Davidson
// Hermite expansion per component pair, and the unrolled Hermite
// recursions they call. See cmd/kernelgen and DESIGN.md section 8 for
// the scheme; regenerate with
//
//	go generate ./internal/integrals

package integrals

import (
	"math"

	"gtfock/internal/chem"
)

`)
	var offs []string
	for _, c := range hermList[:hermPrefix[maxSide]] {
		offs = append(offs, fmt.Sprint(c.roff()))
	}
	fmt.Fprintf(w, `// genHermOff9 lists the flat offsets of the Hermite indices (t,u,v) in
// the stride-9 R cube, order-major (order 0..4; within an order t then u
// descending), so a bra of total angular momentum L reaches exactly the
// first (L+1)(L+2)(L+3)/6 entries.
var genHermOff9 = [%d]int16{%s}

`, hermPrefix[maxSide], strings.Join(offs, ", "))
}

// emitHermite writes genHermiteRn: the Hermite Coulomb integrals
// R^0_{tuv} for t+u+v <= n by the recursion
//
//	R^m_{t+1,u,v} = t R^{m+1}_{t-1,u,v} + X R^{m+1}_{t,u,v}
//
// (and likewise in u and v), seeded by R^m_000 = (-2 alpha)^m F_m. Levels
// run m = n down to 0; each m > 0 value is a local read only by level
// m-1, and level 0 stores straight into the stride-9 cube.
func emitHermite(w *bytes.Buffer, n int) {
	name := func(m int, h [3]int) string { return fmt.Sprintf("r%d_%d%d%d", m, h[0], h[1], h[2]) }
	fmt.Fprintf(w, "// genHermiteR%d stores R^0_{tuv}(alpha, PQ) for t+u+v <= %d into the\n", n, n)
	fmt.Fprintf(w, "// stride-9 cube r from the Boys values f[0..%d]. Entries of higher order\n", n)
	fmt.Fprint(w, "// are left stale and must not be read.\n")
	fmt.Fprintf(w, "func genHermiteR%d(alpha float64, pq chem.Vec3, f *[maxBoysM + 1]float64, r *[729]float64) {\n", n)
	fmt.Fprint(w, "x, y, z := pq.X, pq.Y, pq.Z\n")
	fmt.Fprint(w, "a1 := -2 * alpha\n")
	for m := 2; m <= n; m++ {
		fmt.Fprintf(w, "a%d := a%d * a1\n", m, m-1)
	}
	for m := n; m >= 0; m-- {
		for _, c := range hermList[:hermPrefix[n-m]] {
			h := [3]int{c.x, c.y, c.z}
			var expr string
			switch {
			case m == 0 && c == cart{}:
				expr = "f[0]"
			case c == cart{}:
				expr = fmt.Sprintf("a%d * f[%d]", m, m)
			default:
				// Lower the first nonzero index, as the general
				// hermiteRTable does.
				d := 0
				for h[d] == 0 {
					d++
				}
				k := h[d]
				h[d]--
				expr = fmt.Sprintf("%s*%s", []string{"x", "y", "z"}[d], name(m+1, h))
				if k > 1 {
					h[d]--
					if k == 2 {
						expr += " + " + name(m+1, h)
					} else {
						expr += fmt.Sprintf(" + %d*%s", k-1, name(m+1, h))
					}
				}
			}
			if m == 0 {
				fmt.Fprintf(w, "r[%d] = %s\n", c.roff(), expr)
			} else {
				fmt.Fprintf(w, "%s := %s\n", name(m, [3]int{c.x, c.y, c.z}), expr)
			}
		}
	}
	fmt.Fprint(w, "}\n\n")
}

func emitBuilder(w *bytes.Buffer, ct *classTerms) {
	fmt.Fprintf(w, "// %s fills t with the %d folded Hermite expansion terms of one\n", ct.builder(), ct.slots)
	fmt.Fprintf(w, "// primitive pair of a %s-class shell pair (la=%d, lb=%d), one slot per\n", ct.name, ct.la, ct.lb)
	fmt.Fprintf(w, "// E-coefficient product; s = -1 applies the ket-side (-1)^(t+u+v)\n")
	fmt.Fprintf(w, "// Hermite phase to odd-order terms (pass +1 for a bra).\n")
	fmt.Fprintf(w, "func %s(pp *primPair, s float64, t *[%d]float64) {\n", ct.builder(), ct.slots)
	for d := 0; d < 3; d++ {
		fmt.Fprintf(w, "e%d := (*[%d]float64)(pp.e[%d])\n", d, ct.esz(), d)
	}
	for _, pair := range ct.pairs {
		for _, tm := range pair {
			var parts []string
			if tm.odd {
				parts = append(parts, "s")
			}
			for k, off := range tm.factors {
				parts = append(parts, fmt.Sprintf("e%d[%d]", tm.facDims[k], off))
			}
			fmt.Fprintf(w, "t[%d] = %s\n", tm.slot, strings.Join(parts, " * "))
		}
	}
	fmt.Fprint(w, "}\n\n")
}

// genBraCap must match the Engine.genBra array length in md.go (the
// slot count of the largest class, dd).
const genBraCap = 336

func emitKernel(w *bytes.Buffer, b, k *classTerms) {
	name := fmt.Sprintf("eriGen_%s_%s", b.name, k.name)
	nb, nk := b.ncomp(), k.ncomp()
	ltot := b.ord() + k.ord()
	nbh := hermPrefix[b.ord()]
	ketSS := k.ord() == 0

	fmt.Fprintf(w, "// %s computes a contracted Cartesian (%s|%s)-class quartet,\n", name, b.name, k.name)
	fmt.Fprintf(w, "// row-major over bra then ket component pairs (%d x %d).\n", nb, nk)
	fmt.Fprintf(w, "func %s(e *Engine, bra, ket *ShellPair) []float64 {\n", name)
	if ltot == 0 {
		// (ss|ss): R_000 = F_0 is the whole expansion.
		fmt.Fprint(w, `cart := e.ensure(&e.cart, 1)
var v float64
for bi := range bra.prims {
bp := &bra.prims[bi]
for ki := range ket.prims {
kp := &ket.prims[ki]
e.Stats.PrimQuartets++
p, q := bp.p, kp.p
alpha := p * q / (p + q)
pq := bp.P.Sub(kp.P)
v += twoPiPow52 / (p * q * math.Sqrt(p+q)) * bp.cc * kp.cc * bp.k3 * kp.k3 * boysF0(alpha*pq.Norm2())
}
}
cart[0] = v
return cart
}

`)
		return
	}
	fmt.Fprintf(w, "cart := e.ensure(&e.cart, %d)\n", nb*nk)
	fmt.Fprint(w, "for i := range cart {\ncart[i] = 0\n}\n")
	if ketSS {
		fmt.Fprintf(w, "cv := (*[%d]float64)(cart)\n", nb*nk)
	} else {
		fmt.Fprintf(w, "kbuf := e.ensure(&e.genKet, len(ket.prims)*%d)\n", k.slots)
		fmt.Fprint(w, "for ki := range ket.prims {\n")
		fmt.Fprintf(w, "%s(&ket.prims[ki], -1, (*[%d]float64)(kbuf[%d*ki:]))\n", k.builder(), k.slots, k.slots)
		fmt.Fprint(w, "}\n")
	}
	fmt.Fprintf(w, "bt := (*[%d]float64)(e.genBra[:])\n", b.slots)
	fmt.Fprint(w, "for bi := range bra.prims {\n")
	fmt.Fprint(w, "bp := &bra.prims[bi]\n")
	fmt.Fprintf(w, "%s(bp, 1, bt)\n", b.builder())
	fmt.Fprint(w, "for ki := range ket.prims {\n")
	fmt.Fprint(w, "kp := &ket.prims[ki]\n")
	fmt.Fprint(w, "e.Stats.PrimQuartets++\n")
	fmt.Fprint(w, "p, q := bp.p, kp.p\n")
	fmt.Fprint(w, "alpha := p * q / (p + q)\n")
	fmt.Fprint(w, "pq := bp.P.Sub(kp.P)\n")
	fmt.Fprintf(w, "Boys(%d, alpha*pq.Norm2(), e.boys[:%d])\n", ltot, ltot+1)
	fmt.Fprintf(w, "genHermiteR%d(alpha, pq, &e.boys, &e.genR)\n", ltot)
	fmt.Fprint(w, "pref := twoPiPow52 / (p * q * math.Sqrt(p+q)) * bp.cc * kp.cc * bp.k3 * kp.k3\n")
	if ketSS {
		// The ss ket contributes the single term E^{000} = 1 at R offset
		// 0: contract bra terms against R directly, no g intermediate.
		fmt.Fprint(w, "r := &e.genR\n")
		for ab, terms := range b.pairs {
			var parts []string
			for _, tm := range terms {
				parts = append(parts, fmt.Sprintf("bt[%d]*r[%d]", tm.slot, tm.roff()))
			}
			fmt.Fprintf(w, "cv[%d] += pref * (%s)\n", ab, strings.Join(parts, " + "))
		}
	} else {
		fmt.Fprintf(w, "kt := (*[%d]float64)(kbuf[%d*ki:])\n", k.slots, k.slots)
		maxOff := 0
		for _, pair := range k.pairs {
			for _, tm := range pair {
				if o := tm.roff(); o > maxOff {
					maxOff = o
				}
			}
		}
		// Phase 1: ket terms against R at every bra-reachable Hermite
		// index. rr's constant re-slice length lets the compiler drop
		// the bounds checks on the constant offsets below.
		fmt.Fprintf(w, "for h := 0; h < %d; h++ {\n", nbh)
		fmt.Fprintf(w, "rr := e.genR[int(genHermOff9[h]):][:%d]\n", maxOff+1)
		fmt.Fprint(w, "gr := &e.genG[h]\n")
		for kc, pair := range k.pairs {
			var parts []string
			for _, tm := range pair {
				parts = append(parts, fmt.Sprintf("kt[%d]*rr[%d]", tm.slot, tm.roff()))
			}
			fmt.Fprintf(w, "gr[%d] = %s\n", kc, strings.Join(parts, " + "))
		}
		fmt.Fprint(w, "}\n")
		// Phase 2: bra terms against g, one fused axpy loop per bra
		// component pair.
		for ab, terms := range b.pairs {
			fmt.Fprint(w, "{\n")
			fmt.Fprintf(w, "row := (*[%d]float64)(cart[%d:])\n", nk, ab*nk)
			var sum []string
			for i, tm := range terms {
				fmt.Fprintf(w, "c%d := pref * bt[%d]\n", i, tm.slot)
				fmt.Fprintf(w, "g%d := &e.genG[%d]\n", i, hermIndex[tm.herm])
				sum = append(sum, fmt.Sprintf("c%d*g%d[kc]", i, i))
			}
			fmt.Fprintf(w, "for kc := 0; kc < %d; kc++ {\n", nk)
			fmt.Fprintf(w, "row[kc] += %s\n", strings.Join(sum, " + "))
			fmt.Fprint(w, "}\n}\n")
		}
	}
	fmt.Fprint(w, "}\n}\nreturn cart\n}\n\n")
}

func emitTable(w *bytes.Buffer, kernels [][2]int) {
	fmt.Fprint(w, `// genKernels maps (bra class, ket class) — indexed by the Class*
// constants — to the generated kernel. nil entries are the
// non-canonical (bra < ket) classes, which eriCartAuto serves by the
// mirror transpose.
var genKernels = [NumPairClasses][NumPairClasses]func(*Engine, *ShellPair, *ShellPair) []float64{
`)
	row := -1
	for _, bk := range kernels {
		b, k := bk[0], bk[1]
		if b != row {
			if row >= 0 {
				fmt.Fprint(w, "},\n")
			}
			fmt.Fprintf(w, "Class%s: {\n", strings.ToUpper(classes[b].name))
			row = b
		}
		fmt.Fprintf(w, "Class%s: eriGen_%s_%s,\n",
			strings.ToUpper(classes[k].name), classes[b].name, classes[k].name)
	}
	fmt.Fprint(w, "},\n}\n")
}

func main() {
	out := flag.String("out", "kernels_gen.go", "output file (Go source, package integrals)")
	flag.Parse()

	cts := make([]*classTerms, len(classes))
	for i, c := range classes {
		cts[i] = buildTerms(c)
	}
	if dd := cts[len(cts)-1]; dd.slots != genBraCap {
		log.Fatalf("kernelgen: dd slot count %d != genBraCap %d (update Engine.genBra in md.go)", dd.slots, genBraCap)
	}

	var w bytes.Buffer
	emitHeader(&w)
	for n := 1; n <= maxOrder; n++ {
		emitHermite(&w, n)
	}
	for _, ct := range cts[1:] { // an ss side needs no term builder
		emitBuilder(&w, ct)
	}
	var kernels [][2]int
	for b := range classes { // every canonical class: bra >= ket
		for k := 0; k <= b; k++ {
			kernels = append(kernels, [2]int{b, k})
			emitKernel(&w, cts[b], cts[k])
		}
	}
	emitTable(&w, kernels)

	src, err := format.Source(w.Bytes())
	if err != nil {
		log.Fatalf("kernelgen: generated code does not parse: %v", err)
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kernelgen: wrote %s (%d kernels, %d classes)\n", *out, len(kernels), len(classes))
}

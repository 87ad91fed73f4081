package integrals

// PairTable is the build-wide precomputed shell-pair table: every
// Schwarz-significant ordered shell pair of a basis set, built once and
// shared read-only by all workers of a Fock build (and across SCF
// iterations), replacing the per-worker lazy map[int64]*ShellPair caches.
//
// Pairs are stored in one flat slice sorted by descending Schwarz value
// Q(m,p), so a quartet loop that walks kets in table order can stop at
// the first failing Schwarz product: Q(bra)*Q(ket) is monotone
// non-increasing along the list (see screen.Screening.PhiQ for the
// per-shell version of the same idea). Primitive-pair structs and
// E-coefficient tables are carved from shared arena chunks instead of
// thousands of small allocations.
//
// Besides the pair data the table can cache per-shell-block density
// bounds (UpdateDensity, once per SCF iteration) that quartet loops may
// combine with the Schwarz product for density-weighted screening.

import (
	"math"
	"sort"
	"sync/atomic"

	"gtfock/internal/basis"
)

// PairID indexes a shell pair within a PairTable.
type PairID int32

// NoPair marks an ordered shell pair that is not Schwarz-significant and
// therefore not stored.
const NoPair PairID = -1

// PairTable holds the precomputed significant shell pairs of one basis
// set. Read-only after construction except for UpdateDensity, which
// publishes a fresh immutable bounds snapshot through an atomic pointer:
// concurrent readers need no locking, and a straggling worker from a
// previous build reads either the old snapshot or the new one, never a
// torn mix (see TestUpdateDensityRace).
type PairTable struct {
	Basis *basis.Set

	pairs []ShellPair
	q     []float64  // Schwarz value per pair, descending
	mp    [][2]int32 // shell indices (m, p) per pair
	index []PairID   // ns*ns ordered-pair index, NoPair if absent
	// dBound is the published per-shell-block max |D| snapshot; nil until
	// UpdateDensity. The pointed-to slice is immutable once published.
	dBound atomic.Pointer[[]float64]
	n      int
}

// NewPairTable precomputes the MD pair data for every ordered shell pair
// (m, p) with keep(m, p) true, Schwarz-sorted by descending q(m, p).
// Typical callers use screen.Screening.PairTable, which plugs in the
// Schwarz bounds; q and keep are parameters only to keep this package
// independent of the screening layer. primTol is the primitive
// pre-screening threshold (see NewShellPair).
func NewPairTable(bs *basis.Set, q func(m, p int) float64, keep func(m, p int) bool, primTol float64) *PairTable {
	ns := bs.NumShells()
	t := &PairTable{Basis: bs, n: ns, index: make([]PairID, ns*ns)}
	for i := range t.index {
		t.index[i] = NoPair
	}
	type rec struct {
		m, p int32
		q    float64
	}
	recs := make([]rec, 0, ns*ns)
	for m := 0; m < ns; m++ {
		for p := 0; p < ns; p++ {
			if keep(m, p) {
				recs = append(recs, rec{int32(m), int32(p), q(m, p)})
			}
		}
	}
	// Descending Schwarz value; index order breaks ties so the table is
	// deterministic.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].q != recs[j].q {
			return recs[i].q > recs[j].q
		}
		if recs[i].m != recs[j].m {
			return recs[i].m < recs[j].m
		}
		return recs[i].p < recs[j].p
	})
	t.pairs = make([]ShellPair, len(recs))
	t.q = make([]float64, len(recs))
	t.mp = make([][2]int32, len(recs))
	fa := floatArena{chunk: 1 << 14}
	pa := primArena{chunk: 1 << 8}
	for i := range recs {
		r := &recs[i]
		fillShellPair(&t.pairs[i], &bs.Shells[r.m], &bs.Shells[r.p],
			primTol, pa.take, fa.take)
		t.q[i] = r.q
		t.mp[i] = [2]int32{r.m, r.p}
		t.index[int(r.m)*ns+int(r.p)] = PairID(i)
	}
	return t
}

// NumPairs returns the number of stored (significant) ordered pairs.
func (t *PairTable) NumPairs() int { return len(t.pairs) }

// ID returns the table index of ordered pair (m, p), or NoPair.
func (t *PairTable) ID(m, p int) PairID { return t.index[m*t.n+p] }

// At returns the shell pair with the given id.
func (t *PairTable) At(id PairID) *ShellPair { return &t.pairs[id] }

// Lookup returns the pair (m, p), or nil if it is not significant.
func (t *PairTable) Lookup(m, p int) *ShellPair {
	id := t.index[m*t.n+p]
	if id == NoPair {
		return nil
	}
	return &t.pairs[id]
}

// Q returns the Schwarz value of pair id; Q values are non-increasing in
// id.
func (t *PairTable) Q(id PairID) float64 { return t.q[id] }

// Shells returns the shell indices (m, p) of pair id.
func (t *PairTable) Shells(id PairID) (m, p int) {
	return int(t.mp[id][0]), int(t.mp[id][1])
}

// KeepQuartet reports the Schwarz test Q(bra)*Q(ket) >= tau, identical to
// screen.Screening.KeepQuartet on the corresponding shell indices.
func (t *PairTable) KeepQuartet(bra, ket PairID, tau float64) bool {
	return t.q[bra]*t.q[ket] >= tau
}

// UpdateDensity refreshes the per-shell-block density bounds from the
// dense row-major density matrix d with leading dimension ld (the basis
// function count): dBound(m,p) = max |d[i][j]| over the (m,p) shell
// block. Called once per SCF iteration — this is the "cached once per
// iteration instead of recomputed per quartet" quantity density-weighted
// screening needs. The bounds are computed into a fresh slice and
// published atomically, so it is safe to call while readers are still
// screening — they observe a complete old or new snapshot, never torn
// values.
func (t *PairTable) UpdateDensity(d []float64, ld int) {
	bound := make([]float64, t.n*t.n)
	bs := t.Basis
	for m := 0; m < t.n; m++ {
		om, nm := bs.Offsets[m], bs.ShellFuncs(m)
		for p := 0; p < t.n; p++ {
			op, np := bs.Offsets[p], bs.ShellFuncs(p)
			var mx float64
			for i := om; i < om+nm; i++ {
				row := d[i*ld : i*ld+ld]
				for j := op; j < op+np; j++ {
					if v := math.Abs(row[j]); v > mx {
						mx = v
					}
				}
			}
			bound[m*t.n+p] = mx
		}
	}
	t.dBound.Store(&bound)
}

// HasDensity reports whether UpdateDensity has been called.
func (t *PairTable) HasDensity() bool { return t.dBound.Load() != nil }

// DBound returns the cached max |D| over the (m, p) shell block.
func (t *PairTable) DBound(m, p int) float64 { return (*t.dBound.Load())[m*t.n+p] }

// MaxQuartetDensity bounds the largest cached |D| block any of the six
// Fock contributions of quartet (m p | n q) reads; multiplied by the
// Schwarz product it bounds the quartet's contribution to F. The six
// reads come from one atomically published snapshot.
func (t *PairTable) MaxQuartetDensity(m, p, n, q int) float64 {
	ns := t.n
	d := *t.dBound.Load()
	mx := d[n*ns+q]
	if v := d[m*ns+p]; v > mx {
		mx = v
	}
	if v := d[p*ns+q]; v > mx {
		mx = v
	}
	if v := d[p*ns+n]; v > mx {
		mx = v
	}
	if v := d[m*ns+q]; v > mx {
		mx = v
	}
	if v := d[m*ns+n]; v > mx {
		mx = v
	}
	return mx
}

// floatArena carves exact-length zeroed []float64 blocks out of large
// chunks. Blocks are never reused or moved, so slices handed out stay
// valid for the arena's lifetime.
type floatArena struct {
	cur   []float64
	chunk int
}

func (a *floatArena) take(n int) []float64 {
	if len(a.cur) < n {
		c := a.chunk
		if c < n {
			c = n
		}
		a.cur = make([]float64, c)
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}

// primArena is floatArena for primPair structs.
type primArena struct {
	cur   []primPair
	chunk int
}

func (a *primArena) take(n int) []primPair {
	if len(a.cur) < n {
		c := a.chunk
		if c < n {
			c = n
		}
		a.cur = make([]primPair, c)
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}

// Quartet identifies one (bra|ket) shell quartet by PairTable ids.
type Quartet struct {
	Bra, Ket PairID
}

// ERIBatch computes every quartet of qs against the shared pair table and
// invokes visit(k, batch) with the spherical batch of qs[k], in order.
// The batch slice is engine-owned scratch valid only inside the visit
// call — digest it in place (core.ApplyQuartet does); unlike ERI no
// retained copy is made, so the steady state of a warmed-up engine is
// allocation-free (see TestERIBatchZeroAlloc).
func (e *Engine) ERIBatch(pt *PairTable, qs []Quartet, visit func(k int, batch []float64)) {
	for k := range qs {
		bra := &pt.pairs[qs[k].Bra]
		ket := &pt.pairs[qs[k].Ket]
		cart := e.eriCartAuto(bra, ket)
		sph := sphTransform4(bra.LA, bra.LB, ket.LA, ket.LB, cart, &e.sphScr)
		e.Stats.Quartets++
		e.Stats.Integrals += int64(len(sph))
		visit(k, sph)
	}
}

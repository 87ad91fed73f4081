package integrals

// ERIStore is the stored-ERI cache tier (ROADMAP "Stored-ERI cache
// tier", after Mitin's stored non-zero two-electron integral method):
// the screened surviving quartet set of a Fock build is
// geometry-determined and identical across SCF iterations, so iteration
// 1 records each task's surviving batch — quartet ids, ket shell
// indices, and the contracted spherical integral values — and
// iterations 2..N replay the stored batches straight through the
// contraction path (core.ApplyQuartet) without re-entering the kernel
// layer.
//
// Format: one entry per (M, N) task, indexed by task id M*ns+N. The
// index legs (quartet ids as int32 pairs, int32 value offsets) always
// stay in memory — they are a small fraction of the values and replay
// needs them to re-screen against fresh density bounds. The value leg
// is carved from a shared arena when it fits the configured budget;
// over budget it either spills to a BlobStore (the shard fleet, so
// capacity scales with members) or is dropped, in which case that task
// recomputes every iteration. A replay miss of any kind degrades to
// recompute — the store is a cache, never a correctness dependency.
//
// Exactly-once: entries are committed first-writer-wins through an
// atomic pointer. A worker re-executing a task (a rerun of a failed
// build over the same store) recomputes the same deterministic batch
// (collection order is the PairTable order, the engine is
// deterministic), so a duplicate commit carries bit-identical data and
// losing the race is harmless. A
// replayed task applies the stored values in the recorded order, so a
// replayed execution and a recomputed execution commit identical
// contributions to F.

import (
	"errors"
	"sync"
	"sync/atomic"

	"gtfock/internal/metrics"
)

// BlobStore is the spill backend of an ERIStore: an immutable
// put-once/get key-value store for float64 batches. Implementations are
// cache-semantics only — a GetBlob miss (ErrBlobMiss) after a shard
// restart or eviction is normal and makes the store recompute that
// task. dist.MemBlobStore is the in-process implementation; the netga
// client implements it over the shard fleet (opPutBlob/opGetBlob).
type BlobStore interface {
	// PutBlob stores vals under key. Re-puts of the same key may be
	// ignored (first write wins); values are never mutated after Put.
	PutBlob(key uint64, vals []float64) error
	// GetBlob fetches the blob into dst (reusing its capacity) and
	// returns the filled slice. Any error — conventionally ErrBlobMiss
	// (or dist.ErrBlobMiss) for an unknown key — is treated as a miss.
	GetBlob(key uint64, dst []float64) ([]float64, error)
}

// ErrBlobMiss reports a GetBlob key the backend does not hold.
var ErrBlobMiss = errors.New("integrals: blob not found")

// storedTask is one task's immutable recorded batch.
type storedTask struct {
	qs  []Quartet  // surviving quartets, in collection (= replay) order
	pq  [][2]int32 // ket shell indices (p, q) per quartet
	off []int32    // len(qs)+1 value offsets; batch k is vals[off[k]:off[k+1]]
	// vals holds the contracted spherical integrals when resident; nil
	// when spilled or dropped.
	vals    []float64
	spilled bool
	dropped bool
}

// ERIStore holds the recorded batches of one geometry (one PairTable).
// CommitTask and ReplayTask are safe for concurrent use by build
// workers; the store stays valid across SCF iterations as long as the
// PairTable it was built against does.
type ERIStore struct {
	budget  int64 // max resident value bytes; 0 = unlimited
	keyBase uint64
	spill   BlobStore
	cache   *metrics.Cache

	entries []atomic.Pointer[storedTask]

	mu       sync.Mutex // guards arena + resident-byte accounting on commit
	arena    floatArena
	resident int64
}

// NewERIStore creates a store for the ns*ns tasks of one build geometry.
// budgetBytes bounds resident value memory (0 = unlimited); over-budget
// batches go to spill when non-nil, else are dropped (recomputed every
// iteration). keyBase salts spill keys so concurrent runs sharing a
// fleet do not collide; cache is the shared counter sink — nil gets a
// private one so Stats always works.
func NewERIStore(nshells int, budgetBytes int64, spill BlobStore, keyBase uint64, cache *metrics.Cache) *ERIStore {
	if cache == nil {
		cache = &metrics.Cache{}
	}
	return &ERIStore{
		budget:  budgetBytes,
		keyBase: keyBase,
		spill:   spill,
		cache:   cache,
		entries: make([]atomic.Pointer[storedTask], nshells*nshells),
		arena:   floatArena{chunk: 1 << 16},
	}
}

// Stats returns the store's counter snapshot.
func (s *ERIStore) Stats() metrics.CacheSnapshot { return s.cache.Snapshot() }

// Metrics returns the store's counter sink (for sharing with expvar).
func (s *ERIStore) Metrics() *metrics.Cache { return s.cache }

// NumTasks returns the task capacity (ns*ns).
func (s *ERIStore) NumTasks() int { return len(s.entries) }

// Contains reports whether task has a committed entry of any kind.
func (s *ERIStore) Contains(task int) bool { return s.entries[task].Load() != nil }

// blobKey derives the spill key of a task: multiplication by an odd
// constant is a bijection on uint64, so keys are unique within a run,
// and the XOR salt keeps concurrent runs on a shared fleet apart.
func (s *ERIStore) blobKey(task int) uint64 {
	return s.keyBase ^ (uint64(task+1) * 0x9e3779b97f4a7c15)
}

// CommitTask records one task's surviving batch: qs and pq in collection
// order, ends[k] the exclusive end offset of batch k in vals (as
// accumulated by the recording visit). All inputs are copied; the caller
// may reuse its buffers. First writer wins: a re-execution recomputes
// bit-identical data, so duplicates are dropped without comparison. An
// empty batch (fully screened task) commits an empty entry so replay
// still hits.
func (s *ERIStore) CommitTask(task int, qs []Quartet, pq [][2]int32, ends []int32, vals []float64) {
	if s.entries[task].Load() != nil {
		return
	}
	e := &storedTask{}
	if len(qs) > 0 {
		e.qs = append([]Quartet(nil), qs...)
		e.pq = append([][2]int32(nil), pq...)
		e.off = make([]int32, len(qs)+1)
		copy(e.off[1:], ends)
	}
	bytes := int64(8 * len(vals))
	s.mu.Lock()
	if s.entries[task].Load() != nil { // lost the race while copying
		s.mu.Unlock()
		return
	}
	switch {
	case len(vals) == 0:
		// Empty or fully screened task: index-only entry.
	case s.budget <= 0 || s.resident+bytes <= s.budget:
		e.vals = s.arena.take(len(vals))
		copy(e.vals, vals)
		s.resident += bytes
	case s.spill != nil:
		// PutBlob under the store lock: spills only happen past the
		// budget, and serializing them keeps the accounting and the
		// first-writer-wins window trivially correct.
		if err := s.spill.PutBlob(s.blobKey(task), vals); err == nil {
			e.spilled = true
			s.cache.AddSpill(bytes)
		} else {
			e.dropped = true
			s.cache.AddDropped()
		}
	default:
		e.dropped = true
		s.cache.AddDropped()
	}
	s.entries[task].Store(e)
	s.mu.Unlock()
	if !e.dropped {
		s.cache.AddStored(int64(len(qs)), bytes)
	}
}

// ReplayTask replays task's stored batch through visit, one call per
// recorded quartet with its contracted spherical values, in the recorded
// order. scratch is a caller-owned buffer reused for spill fetches.
// Returns false — and counts a miss — when the task must be recomputed:
// no entry yet, entry dropped over budget, or the spill backend no
// longer has the values.
func (s *ERIStore) ReplayTask(task int, scratch *[]float64, visit func(q Quartet, p, qq int32, vals []float64)) bool {
	e := s.entries[task].Load()
	if e == nil || e.dropped {
		s.cache.AddTaskMiss()
		return false
	}
	vals := e.vals
	if e.spilled {
		got, err := s.spill.GetBlob(s.blobKey(task), (*scratch)[:0])
		if err != nil {
			s.cache.AddSpillMiss()
			s.cache.AddTaskMiss()
			return false
		}
		*scratch = got
		if int(e.off[len(e.off)-1]) > len(got) {
			// Torn/foreign blob: treat as a miss rather than replaying
			// garbage (keys are salted, but a shared fleet is external state).
			s.cache.AddSpillMiss()
			s.cache.AddTaskMiss()
			return false
		}
		vals = got
		s.cache.AddSpillFetch()
	}
	for k := range e.qs {
		visit(e.qs[k], e.pq[k][0], e.pq[k][1], vals[e.off[k]:e.off[k+1]])
	}
	s.cache.AddTaskHit()
	s.cache.AddReplayed(int64(len(e.qs)))
	return true
}

// Package metrics is the low-overhead measurement layer of the real-mode
// Fock build: per-worker histograms and counters for the quantities the
// paper's evaluation is built on (task service time, steal latency,
// one-sided transfer volume, retries; Sec. IV, Tables V-VIII).
//
// A worker accumulates into a private Sample (single-writer, no
// synchronization) and merges it into the shared Registry only when its
// flush has landed in the global F, so a completed build's registry
// counts every task exactly once and a failed worker's sample is never
// merged.
package metrics

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// nbuckets spans int64: bucket b counts observations in [2^(b-1), 2^b).
const nbuckets = 64

// Hist is a power-of-two-bucket histogram of positive int64 observations
// (nanoseconds or bytes). The zero value is ready to use. It is a plain,
// single-writer value inside a Sample; the Registry holds the atomic
// mirror (histAtomic).
type Hist struct {
	Counts [nbuckets]int64
	N      int64
	Sum    int64
	Max    int64
}

// Observe records v; non-positive observations count into bucket 0.
func (h *Hist) Observe(v int64) {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.Counts[b%nbuckets]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// histAtomic is the concurrently-readable accumulation of merged Hists.
type histAtomic struct {
	counts [nbuckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

func (h *histAtomic) merge(s *Hist) {
	for i, c := range s.Counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(s.N)
	h.sum.Add(s.Sum)
	for {
		old := h.max.Load()
		if s.Max <= old || h.max.CompareAndSwap(old, s.Max) {
			return
		}
	}
}

// HistSnapshot is the JSON-facing view of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	// Buckets maps the upper bound 2^b to its count, zero buckets elided.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *histAtomic) snapshot() HistSnapshot {
	var counts [nbuckets]int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return snapshotCounts(counts, h.n.Load(), h.sum.Load(), h.max.Load())
}

func snapshotCounts(counts [nbuckets]int64, n, sum, max int64) HistSnapshot {
	s := HistSnapshot{Count: n, Sum: sum, Max: max}
	if n == 0 {
		return s
	}
	s.Mean = float64(sum) / float64(n)
	s.P50 = quantile(counts, n, 0.50)
	s.P95 = quantile(counts, n, 0.95)
	s.P99 = quantile(counts, n, 0.99)
	s.Buckets = map[string]int64{}
	for b, c := range counts {
		if c != 0 {
			s.Buckets[bucketLabel(b)] = c
		}
	}
	return s
}

func bucketLabel(b int) string {
	// Upper bound of bucket b is 2^b (bucket 0 holds v <= 1).
	if b >= 63 {
		return "inf"
	}
	return strconv.FormatInt(int64(1)<<b, 10)
}

// quantile returns the geometric midpoint of the bucket holding the
// q-quantile observation — a factor-sqrt(2) approximation, plenty for
// imbalance histograms.
func quantile(counts [nbuckets]int64, n int64, q float64) int64 {
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range counts {
		cum += c
		if cum >= rank {
			if b == 0 {
				return 0
			}
			lo := int64(1) << (b - 1)
			return int64(float64(lo) * math.Sqrt2)
		}
	}
	return 0
}

// Sample is one worker's private measurement buffer. It is written by
// exactly one goroutine and carries no synchronization; merge it into
// the Registry once the worker's flush has landed.
type Sample struct {
	Tasks      Hist // task service time, ns
	Steals     Hist // successful steal latency (scan start to block landed), ns
	Flushes    Hist // commit/flush duration, ns
	GetCalls   int64
	GetBytes   int64
	AccCalls   int64
	AccBytes   int64
	GetRetries int64
	AccRetries int64
	StealFails int64 // steal scans that came up dry

	// ERI dispatch split (from integrals.Stats deltas per task): all-s/p
	// and d-bearing quartets served by the generated kernels, and
	// quartets that took the general MD recursion, so bench/serve output
	// can report what fraction of the integral work still takes the
	// general path.
	QuartetsFastSP  int64
	QuartetsFastGen int64
	QuartetsGeneral int64
}

// Reset clears the sample.
func (s *Sample) Reset() { *s = Sample{} }

// worker is the Registry's committed per-rank accumulation.
type worker struct {
	tasks, steals, flushes histAtomic
	getCalls, getBytes     atomic.Int64
	accCalls, accBytes     atomic.Int64
	getRetries, accRetries atomic.Int64
	stealFails             atomic.Int64
	merges                 atomic.Int64

	quartetsFastSP  atomic.Int64
	quartetsFastGen atomic.Int64
	quartetsGeneral atomic.Int64
}

// Registry aggregates committed samples per worker rank. All methods are
// safe for concurrent use; Snapshot may run while a build is in flight
// (the expvar endpoint does exactly that) and sees a consistent-enough
// view for monitoring.
type Registry struct {
	workers []worker
}

// NewRegistry creates a registry for n worker ranks.
func NewRegistry(n int) *Registry { return &Registry{workers: make([]worker, n)} }

// P returns the number of worker ranks.
func (r *Registry) P() int {
	if r == nil {
		return 0
	}
	return len(r.workers)
}

// Merge folds a committed sample into rank's totals. Nil-receiver safe so
// the disabled path costs one branch.
func (r *Registry) Merge(rank int, s *Sample) {
	if r == nil || rank < 0 || rank >= len(r.workers) {
		return
	}
	w := &r.workers[rank]
	w.tasks.merge(&s.Tasks)
	w.steals.merge(&s.Steals)
	w.flushes.merge(&s.Flushes)
	w.getCalls.Add(s.GetCalls)
	w.getBytes.Add(s.GetBytes)
	w.accCalls.Add(s.AccCalls)
	w.accBytes.Add(s.AccBytes)
	w.getRetries.Add(s.GetRetries)
	w.accRetries.Add(s.AccRetries)
	w.stealFails.Add(s.StealFails)
	w.quartetsFastSP.Add(s.QuartetsFastSP)
	w.quartetsFastGen.Add(s.QuartetsFastGen)
	w.quartetsGeneral.Add(s.QuartetsGeneral)
	w.merges.Add(1)
}

// WorkerSnapshot is the JSON-facing per-rank view.
type WorkerSnapshot struct {
	Rank       int          `json:"rank"`
	TaskNS     HistSnapshot `json:"task_ns"`
	StealNS    HistSnapshot `json:"steal_ns"`
	FlushNS    HistSnapshot `json:"flush_ns"`
	GetCalls   int64        `json:"get_calls"`
	GetBytes   int64        `json:"get_bytes"`
	AccCalls   int64        `json:"acc_calls"`
	AccBytes   int64        `json:"acc_bytes"`
	GetRetries int64        `json:"get_retries,omitempty"`
	AccRetries int64        `json:"acc_retries,omitempty"`
	StealFails int64        `json:"steal_fails,omitempty"`
	Commits    int64        `json:"commits"`

	QuartetsFastSP  int64 `json:"quartets_fast_sp,omitempty"`
	QuartetsFastGen int64 `json:"quartets_fast_gen,omitempty"`
	QuartetsGeneral int64 `json:"quartets_general,omitempty"`
}

// Snapshot is the JSON-facing registry view.
type Snapshot struct {
	Workers     []WorkerSnapshot `json:"workers"`
	TasksTotal  int64            `json:"tasks_total"`
	StealsTotal int64            `json:"steals_total"`
	BytesTotal  int64            `json:"bytes_total"`

	// ERI dispatch totals across ranks; QuartetsGeneralFrac is the
	// general-path fraction (0 when no quartets were recorded).
	QuartetsFastSP      int64   `json:"quartets_fast_sp,omitempty"`
	QuartetsFastGen     int64   `json:"quartets_fast_gen,omitempty"`
	QuartetsGeneral     int64   `json:"quartets_general,omitempty"`
	QuartetsGeneralFrac float64 `json:"quartets_general_frac,omitempty"`
}

// Snapshot captures the current committed totals.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	out := Snapshot{
		Workers: make([]WorkerSnapshot, len(r.workers)),
	}
	for i := range r.workers {
		w := &r.workers[i]
		ws := WorkerSnapshot{
			Rank:       i,
			TaskNS:     w.tasks.snapshot(),
			StealNS:    w.steals.snapshot(),
			FlushNS:    w.flushes.snapshot(),
			GetCalls:   w.getCalls.Load(),
			GetBytes:   w.getBytes.Load(),
			AccCalls:   w.accCalls.Load(),
			AccBytes:   w.accBytes.Load(),
			GetRetries: w.getRetries.Load(),
			AccRetries: w.accRetries.Load(),
			StealFails: w.stealFails.Load(),
			Commits:    w.merges.Load(),

			QuartetsFastSP:  w.quartetsFastSP.Load(),
			QuartetsFastGen: w.quartetsFastGen.Load(),
			QuartetsGeneral: w.quartetsGeneral.Load(),
		}
		out.Workers[i] = ws
		out.TasksTotal += ws.TaskNS.Count
		out.StealsTotal += ws.StealNS.Count
		out.BytesTotal += ws.GetBytes + ws.AccBytes
		out.QuartetsFastSP += ws.QuartetsFastSP
		out.QuartetsFastGen += ws.QuartetsFastGen
		out.QuartetsGeneral += ws.QuartetsGeneral
	}
	if total := out.QuartetsFastSP + out.QuartetsFastGen + out.QuartetsGeneral; total > 0 {
		out.QuartetsGeneralFrac = float64(out.QuartetsGeneral) / float64(total)
	}
	return out
}

// MarshalJSON serializes the current snapshot, so a *Registry can be
// handed directly to json.Marshal or published via expvar.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// ExpvarFunc adapts the registry to expvar.Publish(expvar.Func(...)).
func (r *Registry) ExpvarFunc() func() any {
	return func() any { return r.Snapshot() }
}

// RPC is the transport-level counter set of the network backend. Unlike
// worker Samples it is not merged at commit time: an RPC happened on the
// wire whether or not the work it carried ever commits, so the client
// records into it directly with atomics. All methods are nil-receiver
// safe so a client without metrics costs one branch per call.
type RPC struct {
	latency                  histAtomic // wall time of one RPC incl. its retries, ns
	calls, retries, failures atomic.Int64
	dials, reconnects        atomic.Int64
	resets, dupSends         atomic.Int64
	partitioned              atomic.Int64

	// Failure-cause split: a deadline that expired (overload — the peer
	// is slow or we are) versus a connection the peer tore down (faults,
	// restarts, kills). Reports that lump them together cannot tell a
	// saturated service from a dying one.
	deadlineExceeded atomic.Int64
	peerResets       atomic.Int64
}

// ObserveCall records one completed RPC (success or final failure) with
// its total wall time including retries.
func (c *RPC) ObserveCall(ns int64) {
	if c == nil {
		return
	}
	var h Hist
	h.Observe(ns)
	c.latency.merge(&h)
	c.calls.Add(1)
}

// AddRetry counts one retried attempt inside an RPC.
func (c *RPC) AddRetry() {
	if c != nil {
		c.retries.Add(1)
	}
}

// AddFailure counts one RPC abandoned past its retry budget or deadline.
func (c *RPC) AddFailure() {
	if c != nil {
		c.failures.Add(1)
	}
}

// AddDial counts one fresh connection established.
func (c *RPC) AddDial() {
	if c != nil {
		c.dials.Add(1)
	}
}

// AddReconnect counts one connection re-established after an error.
func (c *RPC) AddReconnect() {
	if c != nil {
		c.reconnects.Add(1)
	}
}

// AddReset counts one connection torn down mid-RPC (peer or injected).
func (c *RPC) AddReset() {
	if c != nil {
		c.resets.Add(1)
	}
}

// AddDupSend counts one request frame deliberately delivered twice by
// the fault injector.
func (c *RPC) AddDupSend() {
	if c != nil {
		c.dupSends.Add(1)
	}
}

// AddPartitioned counts one RPC failed fast inside a partition window.
func (c *RPC) AddPartitioned() {
	if c != nil {
		c.partitioned.Add(1)
	}
}

// AddDeadlineExceeded counts one RPC attempt that failed because an op
// deadline or retry wall cap expired — the overload signature, as opposed
// to a torn connection (AddPeerReset).
func (c *RPC) AddDeadlineExceeded() {
	if c != nil {
		c.deadlineExceeded.Add(1)
	}
}

// AddPeerReset counts one RPC attempt that failed because the peer reset
// or closed the connection mid-exchange (server kill, restart, injected
// reset) — the fault signature, as opposed to an expired deadline.
func (c *RPC) AddPeerReset() {
	if c != nil {
		c.peerResets.Add(1)
	}
}

// RPCSnapshot is the JSON-facing view of the transport counters.
type RPCSnapshot struct {
	LatencyNS   HistSnapshot `json:"latency_ns"`
	Calls       int64        `json:"calls"`
	Retries     int64        `json:"retries,omitempty"`
	Failures    int64        `json:"failures,omitempty"`
	Dials       int64        `json:"dials"`
	Reconnects  int64        `json:"reconnects,omitempty"`
	Resets      int64        `json:"resets,omitempty"`
	DupSends    int64        `json:"dup_sends,omitempty"`
	Partitioned int64        `json:"partitioned,omitempty"`
	// Failure-cause split: expired deadlines (overload) vs peer-torn
	// connections (faults/restarts).
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty"`
	PeerResets       int64 `json:"peer_resets,omitempty"`
}

// Snapshot captures the current transport counters.
func (c *RPC) Snapshot() RPCSnapshot {
	if c == nil {
		return RPCSnapshot{}
	}
	return RPCSnapshot{
		LatencyNS:        c.latency.snapshot(),
		Calls:            c.calls.Load(),
		Retries:          c.retries.Load(),
		Failures:         c.failures.Load(),
		Dials:            c.dials.Load(),
		Reconnects:       c.reconnects.Load(),
		Resets:           c.resets.Load(),
		DupSends:         c.dupSends.Load(),
		Partitioned:      c.partitioned.Load(),
		DeadlineExceeded: c.deadlineExceeded.Load(),
		PeerResets:       c.peerResets.Load(),
	}
}

// MarshalJSON serializes the current snapshot.
func (c *RPC) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

// Cache is the counter set of the stored-ERI tier (integrals.ERIStore).
// Like RPC it is recorded with direct atomics rather than merged at the
// flush: a replay/recompute decision happened whether or not the build
// it served succeeds (the store itself stays exactly-once via
// first-writer-wins commits). All methods are nil-receiver safe.
type Cache struct {
	taskHits, taskMisses             atomic.Int64
	quartetsStored, quartetsReplayed atomic.Int64
	bytesStored                      atomic.Int64
	spills, spillBytes               atomic.Int64
	spillFetches, spillMisses        atomic.Int64
	dropped                          atomic.Int64
}

// AddTaskHit counts one task served from the store (replayed).
func (c *Cache) AddTaskHit() {
	if c != nil {
		c.taskHits.Add(1)
	}
}

// AddTaskMiss counts one task the store could not serve (no entry yet,
// entry dropped over budget, or spill fetch failed) — the caller
// recomputes it through the kernel layer.
func (c *Cache) AddTaskMiss() {
	if c != nil {
		c.taskMisses.Add(1)
	}
}

// AddStored counts one committed task entry: quartets and value bytes
// retained (in memory or on a spill shard).
func (c *Cache) AddStored(quartets, bytes int64) {
	if c != nil {
		c.quartetsStored.Add(quartets)
		c.bytesStored.Add(bytes)
	}
}

// AddReplayed counts quartets applied from stored batches.
func (c *Cache) AddReplayed(quartets int64) {
	if c != nil {
		c.quartetsReplayed.Add(quartets)
	}
}

// AddSpill counts one task's values pushed to the spill backend.
func (c *Cache) AddSpill(bytes int64) {
	if c != nil {
		c.spills.Add(1)
		c.spillBytes.Add(bytes)
	}
}

// AddSpillFetch counts one spilled batch fetched back for replay.
func (c *Cache) AddSpillFetch() {
	if c != nil {
		c.spillFetches.Add(1)
	}
}

// AddSpillMiss counts one spilled batch the backend no longer had (shard
// restarted, blob evicted) — the task falls back to recompute.
func (c *Cache) AddSpillMiss() {
	if c != nil {
		c.spillMisses.Add(1)
	}
}

// AddDropped counts one over-budget task entry dropped instead of
// spilled (no spill backend, or the spill write failed).
func (c *Cache) AddDropped() {
	if c != nil {
		c.dropped.Add(1)
	}
}

// CacheSnapshot is the JSON-facing view of the stored-ERI counters.
type CacheSnapshot struct {
	TaskHits         int64 `json:"task_hits"`
	TaskMisses       int64 `json:"task_misses"`
	QuartetsStored   int64 `json:"quartets_stored"`
	QuartetsReplayed int64 `json:"quartets_replayed"`
	BytesStored      int64 `json:"bytes_stored"`
	Spills           int64 `json:"spills,omitempty"`
	SpillBytes       int64 `json:"spill_bytes,omitempty"`
	SpillFetches     int64 `json:"spill_fetches,omitempty"`
	SpillMisses      int64 `json:"spill_misses,omitempty"`
	Dropped          int64 `json:"dropped,omitempty"`
}

// HitRate returns replayed tasks over replay attempts (0 when none).
func (s CacheSnapshot) HitRate() float64 {
	if s.TaskHits+s.TaskMisses == 0 {
		return 0
	}
	return float64(s.TaskHits) / float64(s.TaskHits+s.TaskMisses)
}

// Sub returns the per-field difference s - b, for per-iteration deltas
// of a monotonically growing counter set.
func (s CacheSnapshot) Sub(b CacheSnapshot) CacheSnapshot {
	return CacheSnapshot{
		TaskHits:         s.TaskHits - b.TaskHits,
		TaskMisses:       s.TaskMisses - b.TaskMisses,
		QuartetsStored:   s.QuartetsStored - b.QuartetsStored,
		QuartetsReplayed: s.QuartetsReplayed - b.QuartetsReplayed,
		BytesStored:      s.BytesStored - b.BytesStored,
		Spills:           s.Spills - b.Spills,
		SpillBytes:       s.SpillBytes - b.SpillBytes,
		SpillFetches:     s.SpillFetches - b.SpillFetches,
		SpillMisses:      s.SpillMisses - b.SpillMisses,
		Dropped:          s.Dropped - b.Dropped,
	}
}

// Snapshot captures the current stored-ERI counters.
func (c *Cache) Snapshot() CacheSnapshot {
	if c == nil {
		return CacheSnapshot{}
	}
	return CacheSnapshot{
		TaskHits:         c.taskHits.Load(),
		TaskMisses:       c.taskMisses.Load(),
		QuartetsStored:   c.quartetsStored.Load(),
		QuartetsReplayed: c.quartetsReplayed.Load(),
		BytesStored:      c.bytesStored.Load(),
		Spills:           c.spills.Load(),
		SpillBytes:       c.spillBytes.Load(),
		SpillFetches:     c.spillFetches.Load(),
		SpillMisses:      c.spillMisses.Load(),
		Dropped:          c.dropped.Load(),
	}
}

// MarshalJSON serializes the current snapshot.
func (c *Cache) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

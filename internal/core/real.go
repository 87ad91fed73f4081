package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	"gtfock/internal/screen"
)

// Options configures a real-mode Fock build.
type Options struct {
	Prow, Pcol int     // process grid (defaults 1x1)
	PrimTol    float64 // primitive prescreening threshold for the ERI engine
	// DisableFastKernels forces every quartet through the general MD
	// recursion instead of the generated kernels — the A/B knob behind
	// the kernel-delta benchmarks.
	DisableFastKernels bool

	// Ctx, when non-nil, cancels the build: workers observe the
	// cancellation between tasks and abandon their incarnations, in-flight
	// retried operations abort early (always before an accumulate's point
	// of no return, so nothing half-lands), and Build returns with
	// Result.Err wrapping the context's cause. A canceled build never
	// produces a usable G — callers resume from their own checkpoints.
	Ctx context.Context

	// PairTable, when non-nil, is the precomputed shell-pair table all
	// workers share (read-only). Pass the table across SCF iterations so
	// pair data is built once per geometry instead of once per build; it
	// must come from the same screening (and the same PrimTol) as scr, or
	// the quartet set will not match. Nil makes Build construct one.
	PairTable *integrals.PairTable
	// DensityScreen additionally skips quartets whose Schwarz bound times
	// the cached max-density block (PairTable.UpdateDensity) falls below
	// tau. Off by default: it changes G by O(tau) per skipped quartet, so
	// builds no longer match BuildSerial bit-tightly — callers that want
	// it (the SCF loop) accept the approximation knowingly. No-op unless
	// the shared PairTable has density bounds.
	DensityScreen bool
	// ERIStore, when non-nil, is the stored-ERI cache tier shared across
	// builds of one geometry (it must be sized for this basis and used
	// with the same PairTable): tasks with a stored entry replay it
	// through the contraction path instead of re-entering the kernel
	// layer, and tasks without one compute, apply, and commit their batch
	// first-writer-wins. With ERIStore set, the density screen moves from
	// collection time to apply time — the store always records the full
	// Schwarz-surviving set (valid for any later density), and both the
	// recording and replaying paths prune the same quartets per build, so
	// a replayed task and a recomputed task commit identical
	// contributions and the exactly-once chaos invariants hold unchanged.
	ERIStore *integrals.ERIStore

	// Fault enables the fault-tolerant runtime: the injector is consulted
	// at worker lifecycle points and on one-sided ops, and the build runs
	// with leases, heartbeats, epoch fencing and orphan recovery. Nil
	// (the default) keeps the original fast path with zero overhead.
	Fault *fault.Injector
	// LeaseTTL is how long a worker may go without a heartbeat before the
	// monitor declares it dead and re-enqueues its uncommitted blocks.
	// Default 1s. It should exceed the longest single task plus any
	// benign op delay; a too-small TTL is safe but wastes re-execution.
	LeaseTTL time.Duration
	// MonitorEvery is the lease-scan period (default LeaseTTL/4).
	MonitorEvery time.Duration
	// MaxFaultRounds bounds the number of crash-recovery respawn rounds
	// before the injector is disarmed to force completion (default 8).
	MaxFaultRounds int
	// RetryAttempts/RetryBackoff configure the reliable wrappers around
	// prefetch Gets (defaults 4 attempts, 1ms initial backoff). Flush
	// accumulates retry without an attempt bound; see dist.AccFencedRetry.
	RetryAttempts int
	RetryBackoff  time.Duration
	// RetryWallCap bounds the total wall time one retried operation may
	// consume (context deadline over the whole retry loop, default 10s).
	// A prefetch Get hitting the cap abandons the incarnation cleanly; a
	// flush Acc consults it only before the commit's point of no return
	// (the first landed patch) — after that, retries are unbounded,
	// because abandoning a half-landed flush would break exactly-once.
	RetryWallCap time.Duration

	// Backend, when non-nil, supplies the global arrays for D and F —
	// e.g. the TCP Global Arrays transport in internal/net — in place of
	// the in-process dist.GlobalArray. Build calls it once with the
	// block layout and the run's stats; cleanup (may be nil) runs when
	// the build finishes. A build over an external backend always runs
	// the lease/fencing runtime, so a worker that loses its transport
	// past the retry budget degrades gracefully: it aborts, the monitor
	// fences it, and its blocks are re-executed exactly once elsewhere.
	Backend func(grid *dist.Grid2D, stats *dist.RunStats) (gaD, gaF dist.Backend, cleanup func(), err error)

	// Trace, when non-nil, records per-worker activity spans (prefetch,
	// ERI compute, flush, steal, idle scans) against the build's start
	// time, renderable with Trace.Timeline. Spans of fenced incarnations
	// are marked discarded after the run. Nil disables span recording.
	Trace *dist.Trace
	// Metrics, when non-nil, collects per-worker histograms and counters
	// (task service time, steal latency, Get/Acc traffic, retries, lease
	// renewals). Samples follow merge-on-commit semantics: a fenced or
	// crashed incarnation's uncommitted sample is discarded, never merged,
	// so the registry counts each task exactly once — mirroring the epoch
	// fence on the F accumulate. Nil disables collection.
	Metrics *metrics.Registry
}

// Result is the outcome of a Fock build.
type Result struct {
	// G is the symmetric two-electron matrix: F = H_core + G.
	G *linalg.Matrix
	// Stats holds the per-process accounting of the run.
	Stats *dist.RunStats
	// Wall is the wall-clock duration of the parallel section.
	Wall time.Duration
	// Err is non-nil when the build could not produce a correct G: the
	// external backend failed to initialize, or recovery exhausted its
	// rounds against a transport that never healed. In-process builds
	// (Options.Backend nil) never set it — the injector disarm valve
	// guarantees completion.
	Err error
}

// Build runs the paper's Algorithm 4 for real: prow x pcol goroutine
// processes over block-distributed global arrays, with static task
// partitioning, D prefetch, local F accumulation, and distributed work
// stealing. The density d must be symmetric.
//
// With opt.Fault set, the build additionally survives injected worker
// crashes, stalls and transport faults: a lease monitor fences dead or
// wedged workers, their uncommitted task blocks are re-enqueued for
// survivors (or for respawned workers in a follow-up round), and epoch
// fencing on the F accumulate guarantees exactly-once accumulation, so
// the recovered G is bit-for-bit within the serial oracle's tolerance.
func Build(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix, opt Options) Result {
	if opt.Prow <= 0 {
		opt.Prow = 1
	}
	if opt.Pcol <= 0 {
		opt.Pcol = 1
	}
	ns := bs.NumShells()
	nprocs := opt.Prow * opt.Pcol
	if opt.ERIStore != nil && opt.ERIStore.NumTasks() != ns*ns {
		return Result{Err: fmt.Errorf("core: ERIStore sized for %d tasks, build has %d", opt.ERIStore.NumTasks(), ns*ns)}
	}

	// Shell-level block cuts and the matching function-level grid.
	rowShellCuts := dist.UniformCuts(ns, opt.Prow)
	colShellCuts := dist.UniformCuts(ns, opt.Pcol)
	grid := Grid(bs, opt.Prow, opt.Pcol)

	// The shared pair table replaces the old per-worker lazy pair caches:
	// built once (or passed in and reused across SCF iterations), read by
	// every worker concurrently.
	pt := opt.PairTable
	if pt == nil {
		pt = scr.PairTable(opt.PrimTol)
	}

	stats := dist.NewRunStats(nprocs)
	var gaD, gaF dist.Backend
	if opt.Backend != nil {
		var cleanup func()
		var err error
		gaD, gaF, cleanup, err = opt.Backend(grid, stats)
		if err != nil {
			return Result{Stats: stats, Err: fmt.Errorf("core: backend init: %w", err)}
		}
		if cleanup != nil {
			defer cleanup()
		}
		if err := loadMatrix(gaD, d); err != nil {
			return Result{Stats: stats, Err: fmt.Errorf("core: load density: %w", err)}
		}
		// An external backend may be a live session that already served a
		// build (SCF iterations, cache replays): F accumulates, so it must
		// start from zero — in-process arrays below are born zeroed.
		if err := loadMatrix(gaF, linalg.NewMatrix(d.Rows, d.Cols)); err != nil {
			return Result{Stats: stats, Err: fmt.Errorf("core: zero F: %w", err)}
		}
	} else {
		gd := dist.NewGlobalArray(grid, dist.NewRunStats(nprocs)) // load not accounted
		gd.LoadMatrix(d)
		gaD, gaF = gd, dist.NewGlobalArray(grid, stats)
	}

	// Per-process task queues holding the static partition (Sec. III-C).
	queues := make([]*Queue, nprocs)
	blocks := make([]TaskBlock, nprocs)
	for i := 0; i < opt.Prow; i++ {
		for j := 0; j < opt.Pcol; j++ {
			pid := grid.ProcID(i, j)
			blocks[pid] = TaskBlock{
				R0: rowShellCuts[i], R1: rowShellCuts[i+1],
				C0: colShellCuts[j], C1: colShellCuts[j+1],
			}
			queues[pid] = NewQueue(blocks[pid])
		}
	}

	// Fault-tolerant runtime: lease ledger, epoch fence, transport hook.
	// An external backend always runs leased — its transport can fail
	// even without an injector, and the lease machinery is what turns a
	// lost peer into re-enqueued work instead of a wrong answer.
	var led *ledger
	if opt.Fault != nil || opt.Backend != nil {
		if opt.LeaseTTL <= 0 {
			opt.LeaseTTL = time.Second
		}
		if opt.RetryAttempts <= 0 {
			opt.RetryAttempts = 4
		}
		if opt.RetryBackoff <= 0 {
			opt.RetryBackoff = time.Millisecond
		}
		if opt.RetryWallCap <= 0 {
			opt.RetryWallCap = 10 * time.Second
		}
		if opt.MaxFaultRounds <= 0 {
			opt.MaxFaultRounds = 8
		}
		led = newLedger(nprocs, opt.LeaseTTL, stats)
		gaF.SetFence(led)
	}
	if opt.Fault != nil {
		// The in-process arrays consult the injector through the op hook;
		// the net backend injects at its conn layer instead (and an
		// injector handed to it via netga.Config, not here).
		hook := func(proc int, op dist.OpKind) (time.Duration, bool) {
			return opt.Fault.OpFault(proc, mapOpKind(op))
		}
		if g, ok := gaD.(*dist.GlobalArray); ok {
			g.SetOpHook(hook)
		}
		if g, ok := gaF.(*dist.GlobalArray); ok {
			g.SetOpHook(hook)
		}
	}

	var buildErr error
	start := time.Now()
	for round := 0; ; round++ {
		roundBlocks := blocks
		if round > 0 {
			// Respawn rounds start with empty queues; all remaining work
			// comes from the orphan pool.
			roundBlocks = nil
			for pid := range queues {
				queues[pid] = NewQueue(TaskBlock{})
			}
		}
		var stopMon func()
		var epochs []int64
		if led != nil {
			// Register every incarnation and claim the static partition
			// BEFORE any worker goroutine starts: a fast thief may steal
			// from a victim's queue before the victim's goroutine runs, and
			// the claim transfer needs the victim's claim to already exist
			// — otherwise the same tasks end up both orphaned and claimed,
			// breaking exactly-once.
			epochs = make([]int64, nprocs)
			for r := 0; r < nprocs; r++ {
				epochs[r] = led.register(r)
			}
			if round == 0 {
				for pid, b := range blocks {
					led.claim(pid, epochs[pid], b)
				}
			}
			led.beginRound(queues)
			stopMon = startMonitor(led, opt.MonitorEvery)
		}
		dist.RunProcs(nprocs, func(rank int) {
			w := newWorker(rank, bs, scr, pt, grid, gaD, gaF, stats, opt)
			w.led = led
			w.clock0 = start
			if led != nil {
				w.epoch = epochs[rank]
			}
			w.run(roundBlocks, queues, opt)
		})
		if stopMon != nil {
			stopMon()
		}
		// Per-queue atomic-operation accounting (Sec. IV-C), accumulated
		// across recovery rounds.
		for pid, q := range queues {
			stats.Per[pid].QueueOps += q.Ops
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			// Canceled builds never respawn: whatever the workers abandoned
			// stays unfinished, and the caller sees the cause, not a wrong G.
			buildErr = fmt.Errorf("core: build canceled: %w", context.Cause(opt.Ctx))
			break
		}
		if led == nil || !led.sweep() {
			break
		}
		atomic.AddInt64(&stats.Recovery.Rounds, 1)
		if round+1 >= opt.MaxFaultRounds {
			if opt.Fault != nil && opt.Fault.Armed() {
				// Too many faulty rounds: finish the tail failure-free.
				opt.Fault.Disarm()
			} else if round+1 >= 2*opt.MaxFaultRounds {
				// Real (non-injected) transport faults cannot be disarmed.
				// Give up rather than respawn forever against a peer that
				// never heals; the caller sees the failure, not a wrong G.
				buildErr = fmt.Errorf("core: %d blocks unrecovered after %d recovery rounds: transport never healed",
					led.orphanCount(), round+1)
				break
			}
		}
	}
	wall := time.Since(start)

	// Fenced incarnations' uncommitted spans were published under their
	// epoch; mark them discarded so duration accounting excludes them.
	if led != nil && opt.Trace != nil {
		for _, fe := range led.fencedEpochs() {
			opt.Trace.Discard(fe.rank, fe.epoch)
		}
	}

	g2e, gerr := toMatrix(gaF)
	if gerr != nil {
		if buildErr == nil {
			buildErr = fmt.Errorf("core: gather G: %w", gerr)
		}
		return Result{Stats: stats, Wall: wall, Err: buildErr}
	}
	g := g2e.Clone()
	g.AXPY(1, g2e.T()) // G = acc + acc^T completes the 8-fold symmetry
	return Result{G: g, Stats: stats, Wall: wall, Err: buildErr}
}

// loadMatrix and toMatrix prefer a backend's error-returning bulk ops
// when it has them (the network client does): a fleet lost mid-build
// then fails the build — which the serving layer retries — instead of
// panicking a process that hosts other tenants' jobs.
func loadMatrix(ga dist.Backend, m *linalg.Matrix) error {
	if l, ok := ga.(interface {
		LoadMatrixErr(*linalg.Matrix) error
	}); ok {
		return l.LoadMatrixErr(m)
	}
	ga.LoadMatrix(m)
	return nil
}

func toMatrix(ga dist.Backend) (*linalg.Matrix, error) {
	if g, ok := ga.(interface {
		ToMatrixErr() (*linalg.Matrix, error)
	}); ok {
		return g.ToMatrixErr()
	}
	return ga.ToMatrix(), nil
}

// mapOpKind translates the dist op taxonomy into the injector's.
func mapOpKind(op dist.OpKind) fault.Op {
	switch op {
	case dist.OpPut:
		return fault.OpPut
	case dist.OpAcc:
		return fault.OpAcc
	default:
		return fault.OpGet
	}
}

// Grid returns the function-level block distribution a prow x pcol Build
// over bs uses (shell-uniform cuts mapped to basis-function offsets).
// Shard servers of the network backend must be constructed over exactly
// this grid — and over the same shell ordering — or patch ownership
// validation rejects the build's requests.
func Grid(bs *basis.Set, prow, pcol int) *dist.Grid2D {
	ns := bs.NumShells()
	return dist.NewGrid2D(prow, pcol,
		funcCuts(bs, dist.UniformCuts(ns, prow)),
		funcCuts(bs, dist.UniformCuts(ns, pcol)))
}

// funcCuts maps shell-index cuts to basis-function-index cuts.
func funcCuts(bs *basis.Set, shellCuts []int) []int {
	out := make([]int, len(shellCuts))
	for i, s := range shellCuts {
		if s == bs.NumShells() {
			out[i] = bs.NumFuncs
		} else {
			out[i] = bs.Offsets[s]
		}
	}
	return out
}

// worker is the per-process state of a real-mode build.
type worker struct {
	rank  int
	bs    *basis.Set
	scr   *screen.Screening
	grid  *dist.Grid2D
	gaD   dist.Backend
	gaF   dist.Backend
	stats *dist.RunStats
	eng   *integrals.Engine
	pt    *integrals.PairTable // shared read-only pair table
	dloc  []float64            // dense n x n local D image (prefetched patches)
	floc  []float64            // dense n x n local F accumulator
	fp    *Footprint
	nf    int
	comp  time.Duration

	// Batched ERI state: doTask collects a task's surviving quartets and
	// submits them in one ERIBatch call; visit (built once, so the hot
	// path allocates nothing) digests each batch straight from engine
	// scratch into the local accumulators.
	batch   []integrals.Quartet
	bmeta   [][2]int32 // (p, q) shell indices parallel to batch
	curM    int
	curN    int
	visit   func(k int, batch []float64)
	dscreen bool

	// Stored-ERI cache tier state (nil store = always recompute). The
	// record closure tees engine batches into recVals/recEnds for a
	// first-writer-wins CommitTask; the replay closure applies stored
	// batches with the same apply-time density screen, so both paths
	// commit identical contributions (see Options.ERIStore).
	store       *integrals.ERIStore
	ns          int // shell count; task id = M*ns + N
	curDscr     bool
	recVals     []float64
	recEnds     []int32
	replayScr   []float64 // spill-fetch scratch
	recVisit    func(k int, batch []float64)
	replayVisit func(q integrals.Quartet, p, qq int32, vals []float64)

	// Fault-tolerant runtime state (nil led = plain fast path).
	ctx           context.Context // build cancellation (nil = never canceled)
	led           *ledger
	inj           *fault.Injector
	epoch         int64
	victims       map[int]bool
	fallible      bool // backend ops can fail: use the retrying wrappers
	retryAttempts int
	retryBackoff  time.Duration
	retryWallCap  time.Duration

	// Observability sinks (both nil = zero-instrumentation fast path).
	// Spans and the metric sample buffer one commit episode and are
	// published together with the flush: committed via commitEpisode,
	// or via abortEpisode when the incarnation dies uncommitted.
	trace  *dist.Trace
	reg    *metrics.Registry
	clock0 time.Time
	samp   metrics.Sample
	spans  []dist.Span

	// Last-seen engine dispatch counters, so per-task deltas can flow
	// into the sample (engine Stats are monotonic across episodes).
	lastFastSP, lastFastGen, lastGeneral int64
}

func newWorker(rank int, bs *basis.Set, scr *screen.Screening, pt *integrals.PairTable,
	grid *dist.Grid2D, gaD, gaF dist.Backend, stats *dist.RunStats, opt Options) *worker {
	eng := integrals.NewEngine()
	eng.PrimTol = opt.PrimTol
	eng.DisableFastKernels = opt.DisableFastKernels
	w := &worker{
		rank: rank, bs: bs, scr: scr, grid: grid,
		gaD: gaD, gaF: gaF, stats: stats, eng: eng,
		pt:       pt,
		dscreen:  opt.DensityScreen,
		store:    opt.ERIStore,
		ns:       bs.NumShells(),
		dloc:     make([]float64, bs.NumFuncs*bs.NumFuncs),
		floc:     make([]float64, bs.NumFuncs*bs.NumFuncs),
		fp:       NewFootprint(),
		nf:       bs.NumFuncs,
		ctx:      opt.Ctx,
		inj:      opt.Fault,
		fallible: gaD.Fallible() || gaF.Fallible(),
		victims:  map[int]bool{},
		trace:    opt.Trace,
		reg:      opt.Metrics,
	}
	w.visit = func(k int, batch []float64) {
		pq := w.bmeta[k]
		ApplyQuartet(w.bs, w.dloc, w.floc, w.curM, int(pq[0]), w.curN, int(pq[1]), batch)
	}
	if w.store != nil {
		w.recVisit = func(k int, batch []float64) {
			pq := w.bmeta[k]
			qt := w.batch[k]
			w.applyStored(qt.Bra, qt.Ket, pq[0], pq[1], batch)
			w.recVals = append(w.recVals, batch...)
			w.recEnds = append(w.recEnds, int32(len(w.recVals)))
		}
		w.replayVisit = func(q integrals.Quartet, p, qq int32, vals []float64) {
			w.applyStored(q.Bra, q.Ket, p, qq, vals)
		}
	}
	return w
}

// applyStored digests one recorded or replayed quartet into the local
// accumulators, applying the density screen at apply time (both paths
// prune identically within a build; see Options.ERIStore).
func (w *worker) applyStored(bra, ket integrals.PairID, p, q int32, vals []float64) {
	if w.curDscr &&
		w.pt.Q(bra)*w.pt.Q(ket)*w.pt.MaxQuartetDensity(w.curM, int(p), w.curN, int(q)) < w.scr.Tau {
		return
	}
	ApplyQuartet(w.bs, w.dloc, w.floc, w.curM, int(p), w.curN, int(q), vals)
}

// opCtx returns the deadline context bounding one retried operation's
// total wall time (Options.RetryWallCap), derived from the build context
// so a job-level cancellation also aborts an in-flight retry loop (the
// accumulate path honors it only before its point of no return).
func (w *worker) opCtx() (context.Context, context.CancelFunc) {
	base := w.ctx
	if base == nil {
		base = context.Background()
	}
	if w.retryWallCap <= 0 {
		return base, func() {}
	}
	return context.WithTimeout(base, w.retryWallCap)
}

// obsNow reads the clock only when an observability sink is attached; the
// zero time tells observation sites downstream to skip themselves, so the
// disabled path costs one branch per site and no clock reads.
func (w *worker) obsNow() time.Time {
	if w.trace == nil && w.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// span buffers one activity interval [t0, now); no-op when tracing is off
// or t0 is the disabled sentinel. The epoch is stamped at publish time.
func (w *worker) span(kind byte, t0 time.Time) {
	if w.trace == nil || t0.IsZero() {
		return
	}
	w.spans = append(w.spans, dist.Span{
		Proc:  w.rank,
		Start: t0.Sub(w.clock0).Seconds(),
		End:   time.Since(w.clock0).Seconds(),
		Kind:  kind,
	})
}

// commitEpisode publishes the episode's observability buffers as part of
// the committed record. Committed spans carry epoch 0, which is never
// fenced (live epochs start at 1), so a later fence of this worker's
// incarnation does not retroactively discard work that already landed.
func (w *worker) commitEpisode() {
	if len(w.spans) > 0 {
		for i := range w.spans {
			w.spans[i].Epoch = 0
		}
		w.trace.AddSpans(w.spans)
		w.spans = w.spans[:0]
	}
	if w.reg != nil {
		w.reg.Merge(w.rank, &w.samp)
		w.samp.Reset()
	}
}

// abortEpisode publishes buffered spans under this incarnation's epoch —
// Build marks them discarded once the ledger reports the fence — and
// drops the uncommitted metric sample. No-op after a commitEpisode, so it
// is safe to run deferred on every worker exit.
func (w *worker) abortEpisode() {
	if len(w.spans) > 0 {
		for i := range w.spans {
			w.spans[i].Epoch = w.epoch
		}
		w.trace.AddSpans(w.spans)
		w.spans = w.spans[:0]
	}
	w.reg.Discard(&w.samp)
	w.samp.Reset()
}

// heartbeat refreshes this worker's lease.
func (w *worker) heartbeat() {
	if w.led != nil {
		w.led.heartbeat(w.rank)
		w.samp.LeaseRenewals++
	}
}

// fetchFootprint Gets the D patches of fp into dloc, one call per row
// shell per owner column (the transfer granularity of Sec. III-D). Under
// fault injection the Gets retry with backoff; false means an op
// ultimately failed and the caller must abandon this incarnation.
func (w *worker) fetchFootprint(fp *Footprint) bool {
	retry := w.fallible
	t0 := w.obsNow()
	for _, m := range fp.Rows() {
		lo, hi, _ := fp.Span(m)
		r0 := w.bs.Offsets[m]
		r1 := r0 + w.bs.ShellFuncs(m)
		c0 := w.bs.Offsets[lo]
		c1 := w.bs.Offsets[hi] + w.bs.ShellFuncs(hi)
		for _, p := range w.grid.Patches(r0, r1, c0, c1) {
			w.samp.GetCalls++
			w.samp.GetBytes += 8 * int64(p.R1-p.R0) * int64(p.C1-p.C0)
			if !retry {
				w.gaD.Get(w.rank, p.R0, p.R1, p.C0, p.C1,
					w.dloc[p.R0*w.nf+p.C0:], w.nf)
				continue
			}
			w.heartbeat()
			ctx, cancel := w.opCtx()
			retries, err := w.gaD.GetRetry(ctx, w.retryAttempts, w.retryBackoff,
				w.rank, p.R0, p.R1, p.C0, p.C1,
				w.dloc[p.R0*w.nf+p.C0:], w.nf)
			cancel()
			w.samp.GetRetries += int64(retries)
			if err != nil {
				w.span(dist.SpanPrefetch, t0)
				return false
			}
		}
	}
	w.span(dist.SpanPrefetch, t0)
	return true
}

// addWork merges block b into the worker's flush footprint after
// prefetching the D patches b needs.
func (w *worker) addWork(b TaskBlock) bool {
	fpb := NewFootprint()
	fpb.AddBlock(w.scr, b)
	if !w.fetchFootprint(fpb) {
		return false
	}
	w.fp.AddBlock(w.scr, b)
	return true
}

// resetAccum clears the flushed local F contributions so a follow-up
// episode (adopted orphan work) accumulates from zero.
func (w *worker) resetAccum() {
	for _, m := range w.fp.Rows() {
		lo, hi, _ := w.fp.Span(m)
		r0 := w.bs.Offsets[m]
		r1 := r0 + w.bs.ShellFuncs(m)
		c0 := w.bs.Offsets[lo]
		c1 := w.bs.Offsets[hi] + w.bs.ShellFuncs(hi)
		for r := r0; r < r1; r++ {
			row := w.floc[r*w.nf+c0 : r*w.nf+c1]
			for i := range row {
				row[i] = 0
			}
		}
	}
	w.fp = NewFootprint()
}

// flush accumulates the local F contributions back to the distributed F,
// over the merged footprint spans (Algorithm 4, line 9). Plain fast path
// (no fencing, no faults).
func (w *worker) flush() {
	for _, m := range w.fp.Rows() {
		lo, hi, _ := w.fp.Span(m)
		r0 := w.bs.Offsets[m]
		r1 := r0 + w.bs.ShellFuncs(m)
		c0 := w.bs.Offsets[lo]
		c1 := w.bs.Offsets[hi] + w.bs.ShellFuncs(hi)
		for _, p := range w.grid.Patches(r0, r1, c0, c1) {
			w.samp.AccCalls++
			w.samp.AccBytes += 8 * int64(p.R1-p.R0) * int64(p.C1-p.C0)
			w.gaF.Acc(w.rank, p.R0, p.R1, p.C0, p.C1,
				w.floc[p.R0*w.nf+p.C0:], w.nf, 1)
		}
	}
}

// commitFlush lands the local F contributions exactly once. Under the
// ledger it is a fenced transaction: beginCommit validates this
// incarnation's epoch (a fenced zombie's flush is discarded here) and
// endCommit marks the claimed blocks done; the monitor never fences a
// committing worker, so the transaction is atomic w.r.t. recovery.
func (w *worker) commitFlush() bool {
	t0 := w.obsNow()
	if w.led == nil {
		w.flush()
		w.finishFlush(t0)
		return true
	}
	if !w.led.beginCommit(w.rank, w.epoch) {
		atomic.AddInt64(&w.stats.Recovery.FencedFlushes, 1)
		return false
	}
	// The first patch is the commit's point of no return: until it lands,
	// a retry deadline abandons the flush cleanly (abortCommit keeps the
	// claims for exactly-once re-execution elsewhere); once anything has
	// landed, retries are unbounded — the monitor cannot fence a
	// committing worker, so the only exit is landing every patch.
	landed := false
	for _, m := range w.fp.Rows() {
		lo, hi, _ := w.fp.Span(m)
		r0 := w.bs.Offsets[m]
		r1 := r0 + w.bs.ShellFuncs(m)
		c0 := w.bs.Offsets[lo]
		c1 := w.bs.Offsets[hi] + w.bs.ShellFuncs(hi)
		for _, p := range w.grid.Patches(r0, r1, c0, c1) {
			w.samp.AccCalls++
			w.samp.AccBytes += 8 * int64(p.R1-p.R0) * int64(p.C1-p.C0)
			ctx := context.Background()
			cancel := func() {}
			if !landed {
				ctx, cancel = w.opCtx()
			}
			retries, err := w.gaF.AccFencedRetry(ctx, w.retryBackoff, w.rank, w.epoch,
				p.R0, p.R1, p.C0, p.C1, w.floc[p.R0*w.nf+p.C0:], w.nf, 1)
			cancel()
			w.samp.AccRetries += int64(retries)
			if err != nil {
				// Only reachable before the first landed patch (deadline),
				// or as a defensive catch for an impossible mid-commit
				// fence: nothing of this flush is in the global F.
				w.led.abortCommit(w.rank)
				atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
				return false
			}
			landed = true
		}
	}
	w.led.endCommit(w.rank)
	w.finishFlush(t0)
	return true
}

// finishFlush observes the flush that just landed and publishes the
// episode's buffers as committed.
func (w *worker) finishFlush(t0 time.Time) {
	if !t0.IsZero() {
		w.samp.Flushes.Observe(time.Since(t0).Nanoseconds())
		w.span(dist.SpanFlush, t0)
	}
	w.commitEpisode()
}

type drainResult int

const (
	drainDry       drainResult = iota // no reachable work anywhere
	drainFenced                       // this incarnation was declared dead
	drainAbandoned                    // a prefetch op failed after retries
)

// drain is the inner loop of Algorithm 4: pop own tasks, steal, and (in
// fault mode) adopt orphaned blocks of fenced workers, until nothing is
// reachable.
func (w *worker) drain(my *Queue, queues []*Queue, opt Options, st *dist.ProcStats) drainResult {
	myRow := w.rank / opt.Pcol
	for {
		if w.led != nil && !w.led.valid(w.rank, w.epoch) {
			return drainFenced
		}
		if w.ctx != nil && w.ctx.Err() != nil {
			// Job-level cancellation: abandon between tasks, exactly like a
			// prefetch failure — claimed blocks stay with the ledger, and
			// Build's round loop turns the cancellation into Result.Err.
			return drainAbandoned
		}
		t, ok := my.Pop()
		if !ok {
			// Work stealing (Sec. III-F): scan the grid row-wise starting
			// from our own row.
			s0 := w.obsNow()
			stole := false
			for r := 0; r < opt.Prow && !stole; r++ {
				row := (myRow + r) % opt.Prow
				for c := 0; c < opt.Pcol && !stole; c++ {
					v := row*opt.Pcol + c
					if v == w.rank {
						continue
					}
					var blk TaskBlock
					var ok bool
					if w.led != nil {
						// Atomic steal + claim transfer; see ledger.steal.
						blk, ok = w.led.steal(v, w.rank, w.epoch, queues[v])
					} else {
						blk, ok = queues[v].Steal()
					}
					if !ok {
						continue
					}
					if !s0.IsZero() {
						w.samp.Steals.Observe(time.Since(s0).Nanoseconds())
						w.span(dist.SpanSteal, s0)
					}
					fpSteal := NewFootprint()
					fpSteal.AddBlock(w.scr, blk)
					if !w.fetchFootprint(fpSteal) {
						return drainAbandoned
					}
					w.fp.AddBlock(w.scr, blk)
					my.AddBlock(blk)
					if !w.victims[v] {
						w.victims[v] = true
						st.Victims++
					}
					st.Steals++
					stole = true
				}
			}
			if !stole {
				// A scan that found nothing anywhere is idle time.
				w.samp.StealFails++
				w.span(dist.SpanIdle, s0)
			}
			if !stole && w.led != nil {
				if blk, ok := w.led.adopt(w.rank, w.epoch); ok {
					if !w.addWork(blk) {
						return drainAbandoned
					}
					my.AddBlock(blk)
					continue
				}
			}
			if !stole {
				return drainDry
			}
			continue
		}
		w.heartbeat()
		if w.inj != nil {
			if d := w.inj.Stall(w.rank); d > 0 {
				atomic.AddInt64(&w.stats.Recovery.Stalls, 1)
				time.Sleep(d)
			}
		}
		c0 := time.Now()
		w.doTask(t)
		dt := time.Since(c0)
		w.comp += dt
		if w.reg != nil {
			w.samp.Tasks.Observe(dt.Nanoseconds())
			es := &w.eng.Stats
			w.samp.QuartetsFastSP += es.FastSP - w.lastFastSP
			w.samp.QuartetsFastGen += es.FastGen - w.lastFastGen
			w.samp.QuartetsGeneral += es.GeneralQuartets - w.lastGeneral
			w.lastFastSP, w.lastFastGen, w.lastGeneral =
				es.FastSP, es.FastGen, es.GeneralQuartets
		}
		w.span(dist.SpanCompute, c0)
		st.TasksRun++
	}
}

// run is Algorithm 4 with recovery: prefetch, drain own queue, steal and
// adopt until nothing remains, then flush as a fenced commit; repeat for
// orphaned work that appears after the commit. A return without a commit
// (injected crash, fencing, abandoned op) leaves this incarnation's
// claimed blocks to the monitor/sweep for re-execution elsewhere.
func (w *worker) run(blocks []TaskBlock, queues []*Queue, opt Options) {
	t0 := time.Now()
	st := &w.stats.Per[w.rank]
	defer func() {
		st.ComputeTime += w.comp.Seconds()
		st.TotalTime += time.Since(t0).Seconds()
	}()
	// Any episode still buffered at exit never committed (commitEpisode
	// empties the buffers); publish it as discardable.
	defer w.abortEpisode()
	w.retryAttempts = opt.RetryAttempts
	w.retryBackoff = opt.RetryBackoff
	w.retryWallCap = opt.RetryWallCap

	my := queues[w.rank]
	if blocks != nil && !blocks[w.rank].Empty() {
		// The initial block was claimed by Build before this goroutine
		// started (w.epoch was assigned there too); only prefetch here.
		if !w.addWork(blocks[w.rank]) {
			atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
			return
		}
	}

	for {
		switch w.drain(my, queues, opt, st) {
		case drainAbandoned:
			atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
			return
		case drainFenced:
			// Late flush of a zombie: must be (and is) discarded.
			w.commitFlush()
			return
		}
		if w.inj != nil && w.inj.Crash(w.rank, fault.PointBeforeFlush) {
			atomic.AddInt64(&w.stats.Recovery.Crashes, 1)
			return
		}
		if !w.commitFlush() {
			return
		}
		// Between rounds the worker is idle: cap engine scratch that an
		// unusually large quartet class may have grown (default budget).
		w.eng.TrimScratch(0)
		if w.inj != nil && w.inj.Crash(w.rank, fault.PointAfterFlush) {
			atomic.AddInt64(&w.stats.Recovery.Crashes, 1)
			return
		}
		if w.led == nil {
			return
		}
		// Recovery work: adopt one orphaned block and run another episode
		// with a fresh local accumulator.
		blk, ok := w.led.adopt(w.rank, w.epoch)
		if !ok {
			return
		}
		w.resetAccum()
		if !w.addWork(blk) {
			atomic.AddInt64(&w.stats.Recovery.Aborts, 1)
			return
		}
		my.AddBlock(blk)
	}
}

// doTask is Algorithm 3 in batched form: collect the unique, screened
// quartets of (M,: | N,:) as pair-table ids, then submit the whole
// surviving list in one ERIBatch call so the engine amortizes dispatch
// and the Fock digestion runs straight off engine scratch with no
// intermediate copies. Kets walk the Schwarz-descending PhiQ list, so the
// first failing Schwarz product ends the scan (the surviving set is
// exactly KeepQuartet's).
func (w *worker) doTask(t Task) {
	m, n := t.M, t.N
	if !SymmetryCheck(m, n) {
		return
	}
	w.curM, w.curN = m, n
	if w.store != nil {
		// Stored-ERI tier: replay the recorded batch when present; a miss
		// of any kind (not recorded yet, dropped over budget, spill gone)
		// falls through to compute-and-commit. The density screen moves to
		// apply time so the recorded set is the full Schwarz set.
		w.curDscr = w.dscreen && w.pt.HasDensity()
		if w.store.ReplayTask(m*w.ns+n, &w.replayScr, w.replayVisit) {
			return
		}
	}
	tau := w.scr.Tau
	dscr := w.store == nil && w.dscreen && w.pt.HasDensity()
	w.batch = w.batch[:0]
	w.bmeta = w.bmeta[:0]
	for _, p := range w.scr.Phi[m] {
		if !SymmetryCheck(m, p) {
			continue
		}
		braID := w.pt.ID(m, p)
		if braID == integrals.NoPair {
			continue
		}
		qBra := w.pt.Q(braID)
		for _, q := range w.scr.PhiQ[n] {
			ketID := w.pt.ID(n, q)
			if qKet := w.pt.Q(ketID); qBra*qKet < tau {
				break
			} else if dscr && qBra*qKet*w.pt.MaxQuartetDensity(m, p, n, q) < tau {
				continue
			}
			if !SymmetryCheck(n, q) {
				continue
			}
			// Diagonal tasks (M==N) see both bra-ket orderings (MP|MQ)
			// and (MQ|MP) of the same orbit; break the tie on (P,Q).
			// (Algorithm 3 in the paper omits this case.)
			if m == n && !SymmetryCheck(p, q) {
				continue
			}
			w.batch = append(w.batch, integrals.Quartet{Bra: braID, Ket: ketID})
			w.bmeta = append(w.bmeta, [2]int32{int32(p), int32(q)})
		}
	}
	if w.store == nil {
		w.eng.ERIBatch(w.pt, w.batch, w.visit)
		return
	}
	w.recVals = w.recVals[:0]
	w.recEnds = w.recEnds[:0]
	w.eng.ERIBatch(w.pt, w.batch, w.recVisit)
	w.store.CommitTask(m*w.ns+n, w.batch, w.bmeta, w.recEnds, w.recVals)
}

// ApplyQuartet applies the scaled 6-block Fock update for the unique
// batch v[i in B1][j in B2][k in K1][l in K2] = (ij|kl), where (B1,B2) is
// the bra shell pair and (K1,K2) the ket pair, into the dense n x n
// buffers d (density, read) and f (Fock accumulator, written):
//
//	F_ij += 4 D_kl v'   F_ik -= D_jl v'   F_il -= D_jk v'
//	F_kl += 4 D_ij v'   F_jl -= D_ik v'   F_jk -= D_il v'
//
// with v' = v / 2^{[B1==B2] + [K1==K2] + [(B1,B2)==(K1,K2)]}; adding
// G + G^T at the end restores the full 8-fold symmetric sum of eq. (3)
// (see DESIGN.md).
func ApplyQuartet(bs *basis.Set, d, f []float64, m, p, n, q int, batch []float64) {
	om, op, on, oq := bs.Offsets[m], bs.Offsets[p], bs.Offsets[n], bs.Offsets[q]
	nm, np, nn, nq2 := bs.ShellFuncs(m), bs.ShellFuncs(p), bs.ShellFuncs(n), bs.ShellFuncs(q)
	scale := 1.0
	if m == p {
		scale *= 0.5
	}
	if n == q {
		scale *= 0.5
	}
	if m == n && p == q {
		scale *= 0.5
	}
	nf := bs.NumFuncs
	idx := 0
	for i := 0; i < nm; i++ {
		gi := om + i
		for j := 0; j < np; j++ {
			gj := op + j
			for k := 0; k < nn; k++ {
				gk := on + k
				for l := 0; l < nq2; l++ {
					gl := oq + l
					v := batch[idx] * scale
					idx++
					f[gi*nf+gj] += 4 * v * d[gk*nf+gl]
					f[gk*nf+gl] += 4 * v * d[gi*nf+gj]
					f[gi*nf+gk] -= v * d[gj*nf+gl]
					f[gj*nf+gl] -= v * d[gi*nf+gk]
					f[gi*nf+gl] -= v * d[gj*nf+gk]
					f[gj*nf+gk] -= v * d[gi*nf+gl]
				}
			}
		}
	}
}

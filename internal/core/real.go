package core

import (
	"context"
	"fmt"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/dist"
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
	// cancellation between tasks, in-flight retried operations abort, and
	// Build returns with Result.Err wrapping the context's cause. A
	// canceled build never produces a usable G — callers resume from
	// their own checkpoints.
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
	// contributions.
	ERIStore *integrals.ERIStore

	// Backend, when non-nil, supplies the global arrays for D and F —
	// e.g. the TCP Global Arrays transport in internal/net — in place of
	// the in-process dist.GlobalArray. Build calls it once with the
	// block layout and the run's stats; cleanup (may be nil) runs when
	// the build finishes. Operations on an external backend can fail:
	// the first one that fails past the backend's own retry budget, or
	// that the backend rejects, stops every worker and ends the build
	// with Result.Err. Nothing is re-executed inside the build; a caller
	// that wants a result retries the whole build under a fresh session,
	// never the failed build's, whose late accumulates may still land.
	Backend func(grid *dist.Grid2D, stats *dist.RunStats) (gaD, gaF dist.Backend, cleanup func(), err error)

	// Trace, when non-nil, records per-worker activity spans (prefetch,
	// ERI compute, flush, steal, idle scans) against the build's start
	// time, renderable with Trace.Timeline. A worker publishes its spans
	// when its flush lands. Nil disables span recording.
	Trace *dist.Trace
	// Metrics, when non-nil, collects per-worker histograms and counters
	// (task service time, steal latency, Get/Acc traffic, retries). A
	// worker merges its sample when its flush lands, so a failed build
	// leaves the failed workers' samples out. Nil disables collection.
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
	// external backend failed to initialize, one of its operations failed
	// or was rejected, or Options.Ctx was canceled. G is nil then.
	// In-process builds without a Ctx never set it.
	Err error
}

// Build runs the paper's Algorithm 4 for real: prow x pcol goroutine
// processes over block-distributed global arrays, with static task
// partitioning, D prefetch, local F accumulation, and distributed work
// stealing. The density d must be symmetric.
//
// Like the paper's algorithm, a build has no recovery of its own: over
// an external backend the first failed operation ends it with
// Result.Err (see Options.Backend).
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

	// A build that can stop early (cancellation, or an external backend
	// whose operations can fail) shares one context whose cause is the
	// first worker's failure: the others see it between tasks and in
	// their retry sleeps, and stop. The plain in-process build has none.
	var ctx context.Context
	fail := func(error) {}
	if opt.Ctx != nil || opt.Backend != nil {
		base := opt.Ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(base)
		defer cancel(nil)
		fail = cancel
	}

	start := time.Now()
	dist.RunProcs(nprocs, func(rank int) {
		w := newWorker(rank, bs, scr, pt, grid, gaD, gaF, stats, opt)
		w.ctx = ctx
		w.fallible = opt.Backend != nil
		w.clock0 = start
		if err := w.run(blocks[rank], queues, opt); err != nil {
			fail(err)
		}
	})
	wall := time.Since(start)
	// Per-queue atomic-operation accounting (Sec. IV-C).
	for pid, q := range queues {
		stats.Per[pid].QueueOps = q.Ops
	}
	switch {
	case opt.Ctx != nil && opt.Ctx.Err() != nil:
		return Result{Stats: stats, Wall: wall,
			Err: fmt.Errorf("core: build canceled: %w", context.Cause(opt.Ctx))}
	case ctx != nil && ctx.Err() != nil:
		return Result{Stats: stats, Wall: wall, Err: context.Cause(ctx)}
	}

	g2e, err := toMatrix(gaF)
	if err != nil {
		return Result{Stats: stats, Wall: wall, Err: fmt.Errorf("core: gather G: %w", err)}
	}
	g := g2e.Clone()
	g.AXPY(1, g2e.T()) // G = acc + acc^T completes the 8-fold symmetry
	return Result{G: g, Stats: stats, Wall: wall}
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

	victims map[int]bool // distinct ranks stolen from

	// Failure handling (both unset on the plain in-process path).
	ctx      context.Context // build context: canceled by Options.Ctx or the first failed worker
	fallible bool            // external backend: use the error-returning ops

	// Observability sinks (both nil = zero-instrumentation fast path).
	// Spans and the metric sample are buffered for the whole build and
	// published when the worker's flush lands (publish).
	trace  *dist.Trace
	reg    *metrics.Registry
	clock0 time.Time
	samp   metrics.Sample
	spans  []dist.Span
}

func newWorker(rank int, bs *basis.Set, scr *screen.Screening, pt *integrals.PairTable,
	grid *dist.Grid2D, gaD, gaF dist.Backend, stats *dist.RunStats, opt Options) *worker {
	eng := integrals.NewEngine()
	eng.PrimTol = opt.PrimTol
	eng.DisableFastKernels = opt.DisableFastKernels
	w := &worker{
		rank: rank, bs: bs, scr: scr, grid: grid,
		gaD: gaD, gaF: gaF, stats: stats, eng: eng,
		pt:      pt,
		dscreen: opt.DensityScreen,
		store:   opt.ERIStore,
		ns:      bs.NumShells(),
		dloc:    make([]float64, bs.NumFuncs*bs.NumFuncs),
		floc:    make([]float64, bs.NumFuncs*bs.NumFuncs),
		fp:      NewFootprint(),
		nf:      bs.NumFuncs,
		victims: map[int]bool{},
		trace:   opt.Trace,
		reg:     opt.Metrics,
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
// or t0 is the disabled sentinel.
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

// fetchFootprint Gets the D patches of fp into dloc, one call per row
// shell per owner column (the transfer granularity of Sec. III-D). Over
// an external backend each Get retries within the backend's budget; an
// error means the build cannot complete.
func (w *worker) fetchFootprint(fp *Footprint) error {
	t0 := w.obsNow()
	defer w.span(dist.SpanPrefetch, t0)
	for _, m := range fp.Rows() {
		lo, hi, _ := fp.Span(m)
		r0 := w.bs.Offsets[m]
		r1 := r0 + w.bs.ShellFuncs(m)
		c0 := w.bs.Offsets[lo]
		c1 := w.bs.Offsets[hi] + w.bs.ShellFuncs(hi)
		for _, p := range w.grid.Patches(r0, r1, c0, c1) {
			w.samp.GetCalls++
			w.samp.GetBytes += 8 * int64(p.R1-p.R0) * int64(p.C1-p.C0)
			dst := w.dloc[p.R0*w.nf+p.C0:]
			if !w.fallible {
				w.gaD.Get(w.rank, p.R0, p.R1, p.C0, p.C1, dst, w.nf)
				continue
			}
			retries, err := w.gaD.GetRetry(w.ctx, 0, 0, w.rank, p.R0, p.R1, p.C0, p.C1, dst, w.nf)
			w.samp.GetRetries += int64(retries)
			if err != nil {
				return fmt.Errorf("core: rank %d: get D: %w", w.rank, err)
			}
		}
	}
	return nil
}

// addWork prefetches the D patches block b needs and merges b into the
// worker's flush footprint.
func (w *worker) addWork(b TaskBlock) error {
	fpb := NewFootprint()
	fpb.AddBlock(w.scr, b)
	if err := w.fetchFootprint(fpb); err != nil {
		return err
	}
	w.fp.AddBlock(w.scr, b)
	return nil
}

// flush accumulates the local F contributions back to the distributed F,
// over the merged footprint spans (Algorithm 4, line 9). Over an
// external backend each accumulate lands exactly once within the
// session (idempotency tokens) or fails the build.
func (w *worker) flush() error {
	for _, m := range w.fp.Rows() {
		lo, hi, _ := w.fp.Span(m)
		r0 := w.bs.Offsets[m]
		r1 := r0 + w.bs.ShellFuncs(m)
		c0 := w.bs.Offsets[lo]
		c1 := w.bs.Offsets[hi] + w.bs.ShellFuncs(hi)
		for _, p := range w.grid.Patches(r0, r1, c0, c1) {
			w.samp.AccCalls++
			w.samp.AccBytes += 8 * int64(p.R1-p.R0) * int64(p.C1-p.C0)
			src := w.floc[p.R0*w.nf+p.C0:]
			if !w.fallible {
				w.gaF.Acc(w.rank, p.R0, p.R1, p.C0, p.C1, src, w.nf, 1)
				continue
			}
			retries, err := w.gaF.AccFencedRetry(w.ctx, 0, w.rank, 0, p.R0, p.R1, p.C0, p.C1, src, w.nf, 1)
			w.samp.AccRetries += int64(retries)
			if err != nil {
				return fmt.Errorf("core: rank %d: accumulate F: %w", w.rank, err)
			}
		}
	}
	return nil
}

// publish hands the worker's buffered spans and metric sample, with the
// ERI dispatch split of its engine (fresh per build), to the build's
// sinks once its flush has landed.
func (w *worker) publish() {
	w.trace.AddSpans(w.spans)
	if w.reg != nil {
		es := &w.eng.Stats
		w.samp.QuartetsFastSP, w.samp.QuartetsFastGen, w.samp.QuartetsGeneral =
			es.FastSP, es.FastGen, es.GeneralQuartets
		w.reg.Merge(w.rank, &w.samp)
	}
}

// steal scans the grid row-wise starting from the worker's own row for a
// victim with stealable work (Sec. III-F).
func (w *worker) steal(queues []*Queue, opt Options) (victim int, blk TaskBlock, ok bool) {
	myRow := w.rank / opt.Pcol
	for r := 0; r < opt.Prow; r++ {
		row := (myRow + r) % opt.Prow
		for c := 0; c < opt.Pcol; c++ {
			v := row*opt.Pcol + c
			if v == w.rank {
				continue
			}
			if blk, ok := queues[v].Steal(); ok {
				return v, blk, true
			}
		}
	}
	return 0, TaskBlock{}, false
}

// drain is the inner loop of Algorithm 4: pop own tasks and steal until
// nothing is reachable.
func (w *worker) drain(my *Queue, queues []*Queue, opt Options, st *dist.ProcStats) error {
	for {
		if w.ctx != nil && w.ctx.Err() != nil {
			// Cancellation, or another worker failed: stop between tasks.
			return context.Cause(w.ctx)
		}
		t, ok := my.Pop()
		if !ok {
			s0 := w.obsNow()
			v, blk, stole := w.steal(queues, opt)
			if !stole {
				// A scan that found nothing anywhere is idle time.
				w.samp.StealFails++
				w.span(dist.SpanIdle, s0)
				return nil
			}
			if !s0.IsZero() {
				w.samp.Steals.Observe(time.Since(s0).Nanoseconds())
				w.span(dist.SpanSteal, s0)
			}
			if err := w.addWork(blk); err != nil {
				return err
			}
			my.AddBlock(blk)
			if !w.victims[v] {
				w.victims[v] = true
				st.Victims++
			}
			st.Steals++
			continue
		}
		c0 := time.Now()
		w.doTask(t)
		dt := time.Since(c0)
		w.comp += dt
		if w.reg != nil {
			w.samp.Tasks.Observe(dt.Nanoseconds())
		}
		w.span(dist.SpanCompute, c0)
		st.TasksRun++
	}
}

// run is Algorithm 4 for one process: prefetch its static block, drain
// its own queue and steal until nothing remains, then flush once. The
// first failed operation ends the worker with that error.
func (w *worker) run(block TaskBlock, queues []*Queue, opt Options) error {
	t0 := time.Now()
	st := &w.stats.Per[w.rank]
	defer func() {
		st.ComputeTime += w.comp.Seconds()
		st.TotalTime += time.Since(t0).Seconds()
	}()
	if !block.Empty() {
		if err := w.addWork(block); err != nil {
			return err
		}
	}
	if err := w.drain(queues[w.rank], queues, opt, st); err != nil {
		return err
	}
	f0 := w.obsNow()
	if err := w.flush(); err != nil {
		return err
	}
	if !f0.IsZero() {
		w.samp.Flushes.Observe(time.Since(f0).Nanoseconds())
		w.span(dist.SpanFlush, f0)
	}
	w.publish()
	return nil
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

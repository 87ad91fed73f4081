package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/serve"
)

// The service-closed traffic: sto-3g H2 : CH4 : ethane at 1:2:1 at two
// priority levels (the loadgen default), offered by two closed-loop
// submitters that each wait for their job to finish.
var serviceMix = []struct {
	mol    string
	weight int
}{{"H2", 1}, {"CH4", 2}, {"alkane:2", 1}}

const (
	serviceBasis      = "sto-3g"
	serviceSubmitters = 2
)

// genSpecs draws the seed's job sequence: shuffled blocks that each
// hold the mix exactly, every molecule at both priorities equally often,
// so runs differ in job order but not in job population. The service
// sees only these specs.
func genSpecs(seed int64, n int) []serve.JobSpec {
	var block []serve.JobSpec
	for _, m := range serviceMix {
		for k := 0; k < 2*m.weight; k++ {
			block = append(block, serve.JobSpec{Molecule: m.mol, Basis: serviceBasis, ConvTol: convTol, Priority: k % 2})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	specs := make([]serve.JobSpec, 0, n+len(block))
	for len(specs) < n {
		for _, i := range rng.Perm(len(block)) {
			specs = append(specs, block[i])
		}
	}
	return specs[:n]
}

// runObs is one Runner.Run call of a job (a preempted job has several).
type runObs struct {
	id         int64 // span id of the Run call (traced jobs)
	start, end time.Time
	cbs        []time.Time // OnCheckpoint calls, one per finished iteration
	builds     []*buildObs // traced jobs only
	rpc0, rpc1 metrics.RPCSnapshot
}

// jobObs is everything recorded about one job.
type jobObs struct {
	spec       serve.JobSpec
	id         string
	traced     bool
	t0, t1, t2 time.Time // Submit called, Submit returned, Wait returned
	runs       []*runObs
	events     []serve.Event
	err        error
}

// service is the in-process hfd: two loopback shards, a FleetRunner on
// a 1x2 grid, and a capacity-1 preempting serve.Server, wired so the
// benchmark observes every Runner.Run, build and iteration.
type service struct {
	shards []*netga.MultiServer
	runner *serve.FleetRunner
	srv    *serve.Server
	sm     *metrics.Serve
	rpc    *metrics.RPC
	t      *tracer // nil in untraced runs
	refs   map[string]float64

	mu   sync.Mutex
	jobs map[string]*jobObs
	cur  *runObs // the running job's current run; capacity 1 runs one at a time
	curJ *jobObs
}

// job returns the record of job id, creating it.
func (s *service) job(id string) *jobObs {
	jo := s.jobs[id]
	if jo == nil {
		// Traced runs trace every second job, so both kinds run
		// interleaved under the same load for the overhead figure.
		jo = &jobObs{id: id, traced: s.t != nil && opID(id)%2 == 0}
		s.jobs[id] = jo
	}
	return jo
}

// Run wraps FleetRunner.Run (serve.Runner).
func (s *service) Run(ctx context.Context, j *serve.Job) (*serve.JobResult, error) {
	s.mu.Lock()
	jo := s.job(j.ID)
	r := &runObs{start: time.Now(), rpc0: s.rpc.Snapshot()}
	if jo.traced {
		r.id = s.t.newID()
	}
	jo.runs = append(jo.runs, r)
	s.cur, s.curJ = r, jo
	s.mu.Unlock()

	res, err := s.runner.Run(ctx, j)

	s.mu.Lock()
	r.end = time.Now()
	r.rpc1 = s.rpc.Snapshot()
	s.cur, s.curJ = nil, nil
	s.mu.Unlock()
	if jo.traced {
		s.t.add(r.id, "serve.FleetRunner.Run", opID(j.ID), 0, r.start, r.end, 0)
	}
	return res, err
}

// opID is a job's operation id in the trace: its sequence number.
func opID(jobID string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(jobID, "j-"), 10, 64)
	return n
}

// onCheckpoint records an iteration boundary of the running job.
func (s *service) onCheckpoint(j *serve.Job, iter int) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		s.cur.cbs = append(s.cur.cbs, now)
	}
}

// tuneCore installs the per-build sinks and the timing backend on a
// traced job's builds.
func (s *service) tuneCore(o *core.Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, jo := s.cur, s.curJ
	if r == nil || !jo.traced {
		return
	}
	b := &buildObs{start: time.Now(), density: -1,
		trace: &dist.Trace{}, reg: metrics.NewRegistry(o.Prow * o.Pcol)}
	r.builds = append(r.builds, b)
	o.Trace, o.Metrics = b.trace, b.reg
	inner := o.Backend
	o.Backend = timeBackends(func(grid *dist.Grid2D, st *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
		b.stats = st
		return inner(grid, st)
	}, s.t, opID(jo.id), r.id, func() {
		s.mu.Lock()
		b.end = time.Now()
		s.mu.Unlock()
	})
}

// startService brings the service up and completes one warm-up job.
func startService(cfg config, n int, t *tracer) (*service, func(), error) {
	shards, addrs, err := startShards(2)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("ckpt-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &service{shards: shards, sm: metrics.NewServe(), t: t, refs: cfg.refs, jobs: map[string]*jobObs{}}
	s.runner = serve.NewFleetRunner(addrs, dir)
	s.runner.Prow, s.runner.Pcol = prow, pcol
	s.runner.Serve = s.sm
	s.runner.OnCheckpoint = s.onCheckpoint
	if t != nil {
		s.rpc = &metrics.RPC{}
		s.runner.RPC = s.rpc
		s.runner.TuneCore = s.tuneCore
	}
	closeFn := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if s.srv != nil {
			if err := s.srv.Drain(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
			}
		}
		for _, sh := range shards {
			sh.Close()
		}
	}
	// hfd defaults, apart from capacity 1 so two submitters contend.
	s.srv, err = serve.NewServer(serve.Config{
		Capacity: 1, MemBudget: 256 << 20,
		DefaultTenant: serve.TenantConfig{Weight: 1},
		Preempt:       true, Runner: s, Metrics: s.sm,
	})
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	warm := serve.JobSpec{Molecule: "H2", Basis: serviceBasis, ConvTol: convTol}
	if err := s.submitWait(warm).err; err != nil {
		closeFn()
		return nil, nil, fmt.Errorf("warm-up job: %w", err)
	}
	return s, closeFn, nil
}

// submitWait submits spec and waits for the job's terminal state.
func (s *service) submitWait(spec serve.JobSpec) *jobObs {
	t0 := time.Now()
	j, err := s.srv.Submit(spec)
	t1 := time.Now()
	if err != nil {
		return &jobObs{spec: spec, t0: t0, t1: t1, t2: t1, err: err}
	}
	res, err := j.Wait()
	t2 := time.Now()
	s.mu.Lock()
	jo := s.job(j.ID)
	s.mu.Unlock()
	jo.spec, jo.t0, jo.t1, jo.t2 = spec, t0, t1, t2
	if jo.traced {
		s.t.add(0, "serve.Server.Submit", opID(j.ID), 0, t0, t1, 0)
		s.t.add(0, "serve.Job.Wait", opID(j.ID), 0, t1, t2, 0)
	}
	jo.events, _ = j.EventsSince(0)
	if err == nil && res == nil {
		err = fmt.Errorf("no result in state %v", j.State())
	}
	if err == nil {
		err = checkEnergy("job "+j.ID+" "+spec.Molecule, res.Converged, res.Energy, s.refs[refKey(spec.Molecule, spec.Basis)])
	}
	if err != nil {
		var evs []string
		for _, ev := range jo.events {
			evs = append(evs, fmt.Sprintf("%s:%d:%.12f", ev.Type, ev.Iter, ev.Energy))
		}
		err = fmt.Errorf("%w (events %s)", err, strings.Join(evs, " "))
	}
	jo.err = err
	return jo
}

// phases splits a completed job's latency at its events: submit (until
// the queued event), queue wait (until the first running event), run
// (until the terminal event) and delivery (until Wait returned).
func phases(jo *jobObs) (submit, queue, run, delivery time.Duration, ok bool) {
	var queued, running, terminal time.Time
	for _, ev := range jo.events {
		at := time.Unix(0, ev.Time)
		switch ev.Type {
		case "queued":
			if queued.IsZero() {
				queued = at
			}
		case "running":
			if running.IsZero() {
				running = at
			}
		case "done", "failed", "canceled", "shed":
			terminal = at
		}
	}
	if queued.IsZero() || running.IsZero() || terminal.IsZero() {
		return 0, 0, 0, 0, false
	}
	return queued.Sub(jo.t0), running.Sub(queued), terminal.Sub(running), jo.t2.Sub(terminal), true
}

func runServiceClosed(cfg config) (*report, error) {
	for _, m := range serviceMix {
		if _, err := ref(cfg.refs, m.mol, serviceBasis); err != nil {
			return nil, err
		}
	}
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	n := 0
	s, closeFn, setupS, err := setupRepeated(setups, func() (*service, func(), error) {
		n++
		return startService(cfg, n, t)
	})
	if err != nil {
		return nil, err
	}

	// Enough specs for the fastest plausible service over the run.
	specs := genSpecs(cfg.seed, 200*int(cfg.seconds/time.Second)+100)
	var next atomic.Int64
	var done []*jobObs
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for w := 0; w < serviceSubmitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				jo := s.submitWait(specs[i])
				mu.Lock()
				done = append(done, jo)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	closeFn()

	rep := newReport()
	var lat, runS, gaps []float64
	var last time.Time
	ok := 0
	for _, jo := range done {
		rep.op(jo.err)
		if jo.err != nil {
			continue
		}
		ok++
		if jo.t2.After(last) {
			last = jo.t2
		}
		lat = append(lat, ms(jo.t2.Sub(jo.t0)))
		var r time.Duration
		for _, ro := range jo.runs {
			r += ro.end.Sub(ro.start)
			for k := 1; k < len(ro.cbs); k++ {
				gaps = append(gaps, ms(ro.cbs[k].Sub(ro.cbs[k-1])))
			}
		}
		runS = append(runS, r.Seconds())
	}
	if ok == 0 {
		return rep, nil
	}
	if !cfg.traced {
		fmt.Fprintf(os.Stderr, "perfbench: service-closed samples: %d accepted jobs of %d, %d iteration gaps, %d set-ups\n", ok, len(done), len(gaps), setups)
		rep.set("setup_s", setupS)
		rep.set("scf_s", median(runS))
		rep.set("scf_iter_ms", median(gaps))
		rep.set("jobs_per_s", float64(ok)/last.Sub(start).Seconds())
		rep.set("job_latency_p50_ms", quantile(lat, 0.5))
		rep.set("job_latency_p90_ms", quantile(lat, 0.9))
		return rep, nil
	}
	if err := s.layerMetrics(rep, done); err != nil {
		return nil, err
	}
	if err := eriMicro(rep, t); err != nil {
		return nil, err
	}
	return rep, t.write(traceFile(cfg, "service-closed"))
}

// layerMetrics reports the traced run: the shared per-layer set over the
// traced jobs, the serve layer over every accepted job, and the tracing
// overhead from traced against untraced run time per molecule.
func (s *service) layerMetrics(rep *report, done []*jobObs) error {
	var obs []opObs
	runByMol := map[bool]map[string][]float64{true: {}, false: {}}
	for _, jo := range done {
		if jo.err != nil {
			continue
		}
		o := opObs{id: opID(jo.id), wall: jo.t2.Sub(jo.t0)}
		for _, ro := range jo.runs {
			o.run += ro.end.Sub(ro.start)
		}
		runByMol[jo.traced][jo.spec.Molecule] = append(runByMol[jo.traced][jo.spec.Molecule], o.run.Seconds())
		if !jo.traced {
			continue
		}
		mol, err := chem.ParseSpec(jo.spec.Molecule)
		if err != nil {
			return err
		}
		bs, err := basis.Build(mol, jo.spec.Basis)
		if err != nil {
			return err
		}
		ns := int64(bs.NumShells())
		o.screen, o.kept = screenOnce(s.t, o.id, bs)
		var bad error
		for ri, ro := range jo.runs {
			o.iters += len(ro.cbs)
			o.rpc.Calls += ro.rpc1.Calls - ro.rpc0.Calls
			o.rpc.Retries += ro.rpc1.Retries - ro.rpc0.Retries
			o.rpc.Dials += ro.rpc1.Dials - ro.rpc0.Dials
			if ri == 0 && len(ro.builds) > 0 {
				o.setup = ro.builds[0].start.Sub(ro.start)
			}
			for k := range ro.builds {
				// A build whose iteration never finished was canceled by
				// preemption; its work is redone after the resume.
				if k >= len(ro.cbs) {
					break
				}
				b := *ro.builds[k]
				b.fock = b.end.Sub(b.start)
				if k > 0 {
					b.density = b.start.Sub(ro.cbs[k-1])
					b.gap = ro.cbs[k].Sub(ro.cbs[k-1])
				}
				if got := b.reg.Snapshot().TasksTotal; got != ns*ns && bad == nil {
					bad = fmt.Errorf("job %s build %d ran %d tasks, want ns² = %d", jo.id, k+1, got, ns*ns)
				}
				o.builds = append(o.builds, b)
			}
		}
		if bad != nil {
			rep.fail(bad)
		}
		obs = append(obs, o)
	}
	if len(obs) == 0 {
		return fmt.Errorf("no traced job completed")
	}
	layerMetrics(rep, s.t, obs, prow*pcol)
	if err := serveMetrics(rep, done, s.sm); err != nil {
		return err
	}

	// Overhead: per molecule, median traced over median untraced run
	// time, weighted by the traced job count.
	var over, weight float64
	for mol, tr := range runByMol[true] {
		un := runByMol[false][mol]
		if len(un) == 0 {
			continue
		}
		over += ratioMinus1(median(tr), median(un)) * float64(len(tr))
		weight += float64(len(tr))
	}
	rep.set("trace_overhead_frac", frac(over, weight))
	return nil
}

// serveMetrics reports the serve layer over the accepted jobs: Submit
// time, and queue wait and run phase from each job's events, with the
// scheduler's parks per completed job, retries and rejections.
func serveMetrics(rep *report, jobs []*jobObs, sm *metrics.Serve) error {
	var submit, queue, run []float64
	for _, jo := range jobs {
		if jo.err != nil {
			continue
		}
		_, q, r, _, ok := phases(jo)
		if !ok {
			return fmt.Errorf("job %s: incomplete event stream", jo.id)
		}
		submit = append(submit, float64(jo.t1.Sub(jo.t0))/1e3)
		queue = append(queue, ms(q))
		run = append(run, ms(r))
	}
	if len(submit) == 0 {
		return fmt.Errorf("no job completed")
	}
	snap := sm.Snapshot()
	rep.set("serve.submit_us_p50", quantile(submit, 0.5))
	rep.set("serve.submit_us_p90", quantile(submit, 0.9))
	rep.set("serve.queue_wait_ms_p50", quantile(queue, 0.5))
	rep.set("serve.queue_wait_ms_p90", quantile(queue, 0.9))
	rep.set("serve.run_ms_p50", quantile(run, 0.5))
	rep.set("serve.run_ms_p90", quantile(run, 0.9))
	rep.set("serve.parks", frac(float64(snap.Parked), float64(snap.Completed)))
	rep.set("serve.retries", float64(snap.Retries))
	rep.set("serve.rejected", float64(snap.RejectedQueue+snap.RejectedQuota+snap.RejectedMem))
	return nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/scf"
	"gtfock/internal/screen"
	"gtfock/internal/serve"
)

// The benchmark machine has two cores, so every build runs two workers
// on a 1x2 grid.
const prow, pcol = 1, 2

// scfCase is one SCF workload: the system, and whether its builds run
// over loopback shards with the stored-ERI cache.
type scfCase struct {
	name, mol, basis string
	// net submits every solve as a job to an in-process serve.Server
	// (capacity 1) whose Runner runs it over two loopback
	// netga.MultiServer shards, with the ERI cache on, a checkpoint file
	// after every iteration and a session Client.Checkpoint per
	// iteration, as serve.FleetRunner does: iteration 1 records the
	// integrals and later iterations replay them, so no kernel runs after
	// the first build.
	net bool
}

var (
	scfDirect = scfCase{name: "scf-direct", mol: "alkane:3", basis: "cc-pvdz"}
	scfReplay = scfCase{name: "scf-replay-net", mol: "alkane:8", basis: "sto-3g", net: true}
)

func runSCFDirect(cfg config) (*report, error)    { return runSCF(cfg, scfDirect) }
func runSCFReplayNet(cfg config) (*report, error) { return runSCF(cfg, scfReplay) }

// startShards starts n multi-session shard servers on loopback ports
// with the hfd defaults (256 sessions, 512 MiB each).
func startShards(n int) ([]*netga.MultiServer, []string, error) {
	var shards []*netga.MultiServer
	var addrs []string
	for i := 0; i < n; i++ {
		ms, err := netga.NewMultiServer(n, i, 256, 512<<20)
		if err == nil {
			var addr string
			if addr, err = ms.Start("127.0.0.1:0"); err == nil {
				shards = append(shards, ms)
				addrs = append(addrs, addr)
				continue
			}
		}
		for _, s := range shards {
			s.Close()
		}
		return nil, nil, fmt.Errorf("start shard %d: %w", i, err)
	}
	return shards, addrs, nil
}

type scfEnv struct {
	c       scfCase
	mol     *chem.Molecule
	bs      *basis.Set
	ref     float64
	shards  []*netga.MultiServer
	addrs   []string
	ckpt    string
	session uint64

	// The net case's job server. The submitter hands each solve's tracer
	// and operation id to the Runner through reqs and gets its
	// observation back through outs; capacity 1 and one submitter keep
	// exactly one job in flight.
	srv  *serve.Server
	sm   *metrics.Serve
	reqs chan solveReq
	outs chan solveOut
}

type solveReq struct {
	t  *tracer
	op int64
}

// newSession returns a session id no earlier solve on these shards used:
// a fresh session gives a solve empty shard arrays and dedup state.
func (e *scfEnv) newSession() uint64 {
	e.session++
	return e.session
}

// setupSCF loads the reference, builds the basis, warms the screening
// path and, for the net case, starts the shards and opens and closes one
// probe session over the solve's grid.
func setupSCF(c scfCase, cfg config, n int) (*scfEnv, func(), error) {
	e, err := ref(cfg.refs, c.mol, c.basis)
	if err != nil {
		return nil, nil, err
	}
	mol, err := chem.ParseSpec(c.mol)
	if err != nil {
		return nil, nil, err
	}
	bs, err := basis.Build(mol, c.basis)
	if err != nil {
		return nil, nil, err
	}
	env := &scfEnv{c: c, mol: mol, bs: bs, ref: e,
		ckpt: filepath.Join(cfg.dir, fmt.Sprintf("%s-%d.ckpt", c.name, n))}
	screen.Compute(bs, screen.DefaultTau).PairTable(0)
	closeFn := func() {
		if env.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := env.srv.Drain(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
			}
		}
		for _, s := range env.shards {
			s.Close()
		}
	}
	if !c.net {
		return env, closeFn, nil
	}
	if env.shards, env.addrs, err = startShards(2); err != nil {
		return nil, nil, err
	}
	grid := core.Grid(bs, prow, pcol)
	assign, _ := netga.SplitProcs(grid.NumProcs(), len(env.addrs))
	cl, err := netga.Dial(grid, nil, env.addrs, assign, netga.Config{Session: env.newSession()})
	if err != nil {
		closeFn()
		return nil, nil, fmt.Errorf("probe session: %w", err)
	}
	err = cl.Bye()
	cl.Close()
	if err != nil {
		closeFn()
		return nil, nil, fmt.Errorf("probe session bye: %w", err)
	}
	env.sm = metrics.NewServe()
	env.reqs, env.outs = make(chan solveReq, 1), make(chan solveOut, 1)
	// hfd defaults, apart from capacity 1.
	env.srv, err = serve.NewServer(serve.Config{
		Capacity: 1, MemBudget: 256 << 20,
		DefaultTenant: serve.TenantConfig{Weight: 1},
		Preempt:       true, Runner: env, Metrics: env.sm,
	})
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	return env, closeFn, nil
}

// Run is the net case's serve.Runner: it runs the solve the submitter
// queued for this job.
func (e *scfEnv) Run(ctx context.Context, j *serve.Job) (*serve.JobResult, error) {
	req := <-e.reqs
	s := time.Now()
	out := e.solve(req.t, req.op)
	req.t.add(0, "serve.Runner.Run", req.op, 0, s, time.Now(), 0)
	e.outs <- out
	if out.err != nil {
		return nil, out.err
	}
	return &serve.JobResult{Converged: true, Energy: out.energy, Iterations: out.obs.iters}, nil
}

// op runs one solve: directly, or in the net case as a job through the
// server, whose latency becomes the operation's wall time. A traced
// operation first times the screening layer on the basis, outside the
// solve.
func (e *scfEnv) op(t *tracer, op int64) (solveOut, *jobObs) {
	var scr time.Duration
	var kept float64
	if t != nil {
		scr, kept = screenOnce(t, op, e.bs)
	}
	out, jo := e.submit(t, op)
	out.obs.screen, out.obs.kept = scr, kept
	return out, jo
}

func (e *scfEnv) submit(t *tracer, op int64) (solveOut, *jobObs) {
	if e.srv == nil {
		return e.solve(t, op), nil
	}
	e.reqs <- solveReq{t: t, op: op}
	spec := serve.JobSpec{Molecule: e.c.mol, Basis: e.c.basis, ConvTol: convTol}
	t0 := time.Now()
	j, err := e.srv.Submit(spec)
	t1 := time.Now()
	if err != nil {
		<-e.reqs
		return solveOut{err: fmt.Errorf("%s job %d: %w", e.c.name, op, err)}, nil
	}
	_, werr := j.Wait()
	t2 := time.Now()
	t.add(0, "serve.Server.Submit", op, 0, t0, t1, 0)
	t.add(0, "serve.Job.Wait", op, 0, t1, t2, 0)
	var out solveOut
	select {
	case out = <-e.outs: // sent before Run returned, so before Wait did
	default:
		<-e.reqs
		out.err = fmt.Errorf("%s job %s ended %v without running: %v", e.c.name, j.ID, j.State(), werr)
	}
	out.obs.wall = t2.Sub(t0)
	jo := &jobObs{spec: spec, id: j.ID, t0: t0, t1: t1, t2: t2, err: out.err}
	jo.events, _ = j.EventsSince(0)
	return out, jo
}

// solveOut is one solve's observation and verdict.
type solveOut struct {
	obs    opObs
	gaps   []time.Duration // OnIteration gaps, iterations 2..N
	energy float64
	err    error // correctness failure
}

// solve runs one RunHF to convergence. With t non-nil it also installs
// the per-build sinks and the timing backend, and checks the per-build
// task count and replay hit rate.
func (e *scfEnv) solve(t *tracer, op int64) solveOut {
	o := opObs{id: op}
	root := t.newID()
	opt := scf.Options{
		BasisName: e.c.basis, Engine: scf.EngineGTFock,
		Prow: prow, Pcol: pcol, ConvTol: convTol,
	}
	var builds []buildObs
	if t != nil {
		opt.TuneFock = func(co *core.Options) {
			b := buildObs{start: time.Now(), trace: &dist.Trace{}, reg: metrics.NewRegistry(co.Prow * co.Pcol)}
			co.Trace, co.Metrics = b.trace, b.reg
			builds = append(builds, b)
		}
	}

	var clD, clF *netga.Client
	var rpc *metrics.RPC
	if e.c.net {
		if t != nil {
			rpc = &metrics.RPC{}
		}
		session := e.newSession()
		opt.ERICache = true
		opt.CheckpointPath = e.ckpt
		// One persistent client pair per solve, as serve.FleetRunner
		// keeps: Acc dedup tokens are monotone within a session.
		dial := func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
			if clD == nil {
				assign, _ := netga.SplitProcs(grid.NumProcs(), len(e.addrs))
				ncfg := netga.Config{Session: session, RPC: rpc, Array: 0}
				d, err := netga.Dial(grid, stats, e.addrs, assign, ncfg)
				if err != nil {
					return nil, nil, nil, err
				}
				ncfg.Array = 1
				f, err := netga.Dial(grid, stats, e.addrs, assign, ncfg)
				if err != nil {
					d.Close()
					return nil, nil, nil, err
				}
				clD, clF = d, f
			}
			return clD, clF, nil, nil
		}
		opt.FockBackend = dial
		if t != nil {
			opt.FockBackend = timeBackends(dial, t, op, root, func() { builds[len(builds)-1].end = time.Now() })
		}
	}

	var cbs []time.Time
	var iters []scf.Iteration
	var ckptErr error
	entry := time.Now()
	opt.OnIteration = func(iter int, it scf.Iteration) {
		if clD != nil {
			s := time.Now()
			if err := clD.Checkpoint(); err != nil && ckptErr == nil {
				ckptErr = err
			}
			now := time.Now()
			o.ckpt = append(o.ckpt, now.Sub(s))
			t.add(0, "net.Client.Checkpoint", op, root, s, now, 0)
		}
		now := time.Now()
		prev := entry
		if len(cbs) > 0 {
			prev = cbs[len(cbs)-1]
		}
		t.add(0, "scf.iteration", op, root, prev, now, 0)
		cbs = append(cbs, now)
		iters = append(iters, it)
	}
	res, err := scf.RunHF(e.mol, opt)
	end := time.Now()
	t.add(root, "scf.RunHF", op, 0, entry, end, 0)
	if clD != nil {
		if err == nil {
			if berr := clD.Bye(); berr != nil && ckptErr == nil {
				ckptErr = berr
			}
		}
		clD.Close()
		clF.Close()
	}

	what := fmt.Sprintf("%s solve %d", e.c.name, op)
	o.wall = end.Sub(entry)
	o.run = o.wall
	switch {
	case err != nil:
		return solveOut{obs: o, err: fmt.Errorf("%s: %w", what, err)}
	case ckptErr != nil:
		return solveOut{obs: o, err: fmt.Errorf("%s: session: %w", what, ckptErr)}
	}
	out := solveOut{energy: res.Energy, err: checkEnergy(what, res.Converged, res.Energy, e.ref)}
	for k := 1; k < len(cbs); k++ {
		out.gaps = append(out.gaps, cbs[k].Sub(cbs[k-1]))
	}
	o.iters = len(iters)
	o.rpc = rpc.Snapshot()
	o.storeMB = float64(res.CacheStats.BytesStored) / 1e6
	if t != nil {
		if out.err == nil {
			out.err = e.checkBuilds(what, builds, iters)
		}
		for k := range builds {
			if k >= len(iters) {
				break
			}
			it := iters[k]
			b := &builds[k]
			b.fock, b.density, b.stats, b.cache = it.FockTime, it.DensityTime, it.FockStats, it.Cache
			b.replay = e.c.net && k > 0
			if k > 0 {
				b.gap = cbs[k].Sub(cbs[k-1])
			}
		}
		o.builds = builds
		if len(builds) > 0 && len(iters) > 0 {
			o.setup = builds[0].start.Add(-iters[0].DensityTime).Sub(entry)
		}
	}
	out.obs = o
	return out
}

// checkBuilds applies the traced-run invariants: one build per
// iteration, every build runs ns² tasks, and every replay build serves
// every task from the store.
func (e *scfEnv) checkBuilds(what string, builds []buildObs, iters []scf.Iteration) error {
	if len(builds) != len(iters) {
		return fmt.Errorf("%s: %d builds for %d iterations", what, len(builds), len(iters))
	}
	ns := int64(e.bs.NumShells())
	for k, b := range builds {
		if got := b.reg.Snapshot().TasksTotal; got != ns*ns {
			return fmt.Errorf("%s: build %d ran %d tasks, want ns² = %d", what, k+1, got, ns*ns)
		}
		if e.c.net && k > 0 {
			if r := iters[k].Cache.HitRate(); r != 1 {
				return fmt.Errorf("%s: replay build %d hit rate %.6f, want 1", what, k+1, r)
			}
		}
	}
	return nil
}

func runSCF(cfg config, c scfCase) (*report, error) {
	n := 0
	env, closeFn, setupS, err := setupRepeated(setups, func() (*scfEnv, func(), error) {
		n++
		return setupSCF(c, cfg, n)
	})
	if err != nil {
		return nil, err
	}
	defer closeFn()

	rep := newReport()
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	var walls, lat, gaps, tracedWalls []float64
	var obs []opObs
	var jobs []*jobObs
	start := time.Now()
	// A traced run alternates untraced and traced solves, so it always
	// has both for the overhead figure.
	for i := 0; time.Since(start) < cfg.seconds || (cfg.traced && i < 2); i++ {
		var st *tracer
		if i%2 == 1 {
			st = t
		}
		out, jo := env.op(st, int64(i+1))
		rep.op(out.err)
		if jo != nil {
			jobs = append(jobs, jo)
		}
		if st != nil {
			tracedWalls = append(tracedWalls, out.obs.run.Seconds())
			obs = append(obs, out.obs)
			continue
		}
		walls = append(walls, out.obs.run.Seconds())
		lat = append(lat, ms(out.obs.wall))
		gaps = append(gaps, msAll(out.gaps)...)
	}

	if !cfg.traced {
		fmt.Fprintf(os.Stderr, "perfbench: %s samples: %d solves, %d iteration gaps, %d set-ups\n", c.name, len(walls), len(gaps), setups)
		rep.set("setup_s", setupS)
		rep.set("scf_s", median(walls))
		rep.set("scf_iter_ms", median(gaps))
		rep.set("jobs_per_s", float64(len(lat))/sum(lat)*1e3)
		rep.set("job_latency_p50_ms", quantile(lat, 0.5))
		rep.set("job_latency_p90_ms", quantile(lat, 0.9))
		return rep, nil
	}
	layerMetrics(rep, t, obs, prow*pcol)
	if err := eriMicro(rep, t); err != nil {
		return nil, err
	}
	if env.srv != nil {
		if err := serveMetrics(rep, jobs, env.sm); err != nil {
			return nil, err
		}
	} else {
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "serve.") {
				rep.set(d.Name, 0)
			}
		}
	}
	rep.set("trace_overhead_frac", ratioMinus1(median(tracedWalls), median(walls)))
	return rep, t.write(traceFile(cfg, c.name))
}

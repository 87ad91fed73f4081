package main

import (
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/dist"
	"gtfock/internal/metrics"
	"gtfock/internal/screen"
)

// buildObs is one traced Fock build: its phase times and the per-build
// sinks installed through core.Options (Trace, Metrics).
type buildObs struct {
	start, end time.Time     // core.Build entry (TuneFock) and exit (backend cleanup; zero in-process)
	fock       time.Duration // build time
	density    time.Duration // density step before the build; -1 when not observable
	gap        time.Duration // OnIteration gap ending with this build's iteration; 0 for a run's first
	stats      *dist.RunStats
	cache      metrics.CacheSnapshot
	replay     bool // iterations 2..N of a cached run
	reg        *metrics.Registry
	trace      *dist.Trace
}

// opObs is one traced operation: an SCF solve, or a service job.
type opObs struct {
	id      int64
	wall    time.Duration // solve wall, or job latency submit → terminal
	run     time.Duration // time inside RunHF (= wall for solves)
	setup   time.Duration // RunHF entry to the start of iteration 1
	iters   int
	builds  []buildObs
	rpc     metrics.RPCSnapshot // this operation's transport counters
	ckpt    []time.Duration     // net.Client.Checkpoint calls
	storeMB float64
	screen  time.Duration // screen.Compute + PairTable on the op's basis
	kept    float64       // surviving unique quartets / all unique quartets
}

// screenOnce times the screening layer on bs and returns the surviving
// unique-quartet fraction.
func screenOnce(t *tracer, op int64, bs *basis.Set) (time.Duration, float64) {
	t0 := time.Now()
	scr := screen.Compute(bs, screen.DefaultTau)
	t1 := time.Now()
	scr.PairTable(0)
	t2 := time.Now()
	t.add(0, "screen.Compute", op, 0, t0, t1, 0)
	t.add(0, "screen.PairTable", op, 0, t1, t2, 0)
	ns := int64(bs.NumShells())
	pairs := ns * (ns + 1) / 2
	return t2.Sub(t0), float64(scr.UniqueQuartetCount()) / float64(pairs*(pairs+1)/2)
}

// layerMetrics fills the per-layer metrics every workload shares from
// its traced operations. ops must be non-empty.
func layerMetrics(rep *report, t *tracer, ops []opObs, nprocs int) {
	traced := map[int64]bool{}
	var (
		nbuild, nreplay                               float64
		quartets, general, computeS, kernelS          float64
		tasks, lb, steals, stealS, idleS, prefS, fluS float64
		calls, mb, fockMs, busyS                      float64
		densMs, otherMs                               []float64
		hitMin                                        = 1.0
		replayed                                      float64
		storeMB, rpcCalls, retries, dials             float64
		iters, setups, ckpts, screens, kept           []float64
		wall, run, fockS                              float64
	)
	for _, o := range ops {
		traced[o.id] = true
		wall += o.wall.Seconds()
		run += o.run.Seconds()
		iters = append(iters, float64(o.iters))
		setups = append(setups, ms(o.setup))
		ckpts = append(ckpts, msAll(o.ckpt)...)
		screens = append(screens, ms(o.screen))
		kept = append(kept, o.kept)
		storeMB += o.storeMB
		rpcCalls += float64(o.rpc.Calls)
		retries += float64(o.rpc.Retries)
		dials += float64(o.rpc.Dials)
		for _, b := range o.builds {
			nbuild++
			snap := b.reg.Snapshot()
			quartets += float64(snap.QuartetsFastSP + snap.QuartetsFastGen + snap.QuartetsGeneral)
			general += float64(snap.QuartetsGeneral)
			tasks += float64(snap.TasksTotal)
			steals += float64(snap.StealsTotal)
			kinds := b.trace.KindTotals()
			computeS += kinds[dist.SpanCompute]
			if !b.replay {
				kernelS += kinds[dist.SpanCompute]
			}
			stealS += kinds[dist.SpanSteal]
			idleS += kinds[dist.SpanIdle]
			prefS += kinds[dist.SpanPrefetch]
			fluS += kinds[dist.SpanFlush]
			lb += b.stats.LoadBalance()
			calls += b.stats.CallsAvg()
			mb += b.stats.VolumeAvgMB()
			for _, p := range b.stats.Per {
				busyS += p.TotalTime
			}
			fockMs += ms(b.fock)
			fockS += b.fock.Seconds()
			if b.density >= 0 {
				densMs = append(densMs, ms(b.density))
				if b.gap > 0 {
					otherMs = append(otherMs, ms(b.gap-b.fock-b.density))
				}
			}
			if b.replay {
				nreplay++
				replayed += float64(b.cache.QuartetsReplayed)
				if r := b.cache.HitRate(); r < hitMin {
					hitMin = r
				}
			}
		}
	}
	nops := float64(len(ops))
	if nreplay == 0 {
		hitMin = 0
	}
	keep := func(op int64) bool { return traced[op] }
	var opDur []float64
	var opBytes int64
	var netS float64
	for _, name := range backendOps {
		for _, s := range t.named(name, keep) {
			opDur = append(opDur, float64(s.dur())/1e3)
			opBytes += s.Bytes
			netS += s.dur().Seconds()
		}
	}

	rep.set("integrals.quartets", frac(quartets, nbuild))
	rep.set("integrals.general_frac", frac(general, quartets))
	rep.set("integrals.compute_ms", frac(computeS*1e3, nbuild))
	rep.set("integrals.ns_per_quartet", frac(kernelS*1e9, quartets))
	rep.set("integrals.store_hit_rate", hitMin)
	rep.set("integrals.store_mb", storeMB/nops)
	rep.set("integrals.replayed_quartets", frac(replayed, nreplay))
	rep.set("screen.setup_ms", median(screens))
	rep.set("screen.kept_frac", median(kept))
	rep.set("core.build_ms", frac(fockMs, nbuild))
	rep.set("core.tasks", frac(tasks, nbuild))
	rep.set("core.load_balance", frac(lb, nbuild))
	rep.set("core.steals", frac(steals, nbuild))
	rep.set("core.steal_ms", frac(stealS*1e3, nbuild))
	rep.set("core.idle_ms", frac(idleS*1e3, nbuild))
	rep.set("core.prefetch_ms", frac(prefS*1e3, nbuild))
	rep.set("core.flush_ms", frac(fluS*1e3, nbuild))
	rep.set("dist.calls_per_proc", frac(calls, nbuild))
	rep.set("dist.mb_per_proc", frac(mb, nbuild))
	rep.set("net.rpc_calls", rpcCalls/nops)
	rep.set("net.rpc_mb", float64(opBytes)/1e6/nops)
	rep.set("net.rpc_us_p50", zeroNaN(quantile(opDur, 0.5)))
	rep.set("net.rpc_us_p90", zeroNaN(quantile(opDur, 0.9)))
	rep.set("net.wait_frac", frac(netS, busyS))
	rep.set("net.retries", retries/nops)
	rep.set("net.dials", dials/nops)
	rep.set("net.session_checkpoint_ms", zeroNaN(median(ckpts)))
	rep.set("scf.iterations", median(iters))
	rep.set("scf.density_ms", zeroNaN(median(densMs)))
	rep.set("scf.other_ms", zeroNaN(median(otherMs)))
	rep.set("scf.setup_ms", median(setups))

	// Shares of the operations' wall time: kernel compute and transport
	// are summed over workers, so divide by the worker count to express
	// them as wall time; the core layer is the rest of the build, the
	// scf layer the rest of RunHF, the serve layer the rest of the job.
	integ := computeS / float64(nprocs)
	netW := netS / float64(nprocs)
	rep.set("share.integrals", frac(integ, wall))
	rep.set("share.net", frac(netW, wall))
	rep.set("share.core", frac(max(fockS-integ-netW, 0), wall))
	rep.set("share.scf", frac(max(run-fockS, 0), wall))
	rep.set("share.serve", frac(max(wall-run, 0), wall))
}

// zeroNaN maps the NaN of an empty sample to 0.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

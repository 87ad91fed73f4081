// Command fockbuild runs one distributed Fock matrix construction and
// reports timing, communication, scheduling and load-balance statistics.
//
// Real mode executes the build on goroutine processes with actual ERI
// computation; sim mode runs the discrete-event simulation at paper-scale
// core counts.
//
// Examples:
//
//	fockbuild -mol C24H12 -engine gtfock -grid 2x2
//	fockbuild -mol C96H24 -engine nwchem -mode sim -cores 3888
//	fockbuild -mol alkane:40 -reorder cell -grid 4x2
//
// Network backend (gtfock real mode): -backend net runs the build over
// fockd shard servers. The -fault-net-* flags inject seeded connection
// faults (resets, duplicated frames, slow links, partition windows) that
// the client's retries and idempotency tokens absorb. A build that still
// fails — an op failed past the retry budget, or a restarted shard
// forgot the session — is rerun from scratch under a fresh session, up
// to three times; -net-verify checks the accepted G against the serial
// oracle:
//
//	fockbuild -mol alkane:2 -basis sto-3g -backend net \
//	  -net-servers 127.0.0.1:7111,127.0.0.1:7112 -net-verify -fault-net-reset 0.15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/nwchem"
	"gtfock/internal/reorder"
	"gtfock/internal/screen"
)

func main() {
	var (
		molSpec = flag.String("mol", "C24H12", "molecule: a paper formula (C96H24, C100H202, ...), alkane:N, or flake:K")
		bname   = flag.String("basis", "cc-pvdz", "basis set: sto-3g, 6-31g, cc-pvdz, or cc-pvtz")
		engine  = flag.String("engine", "gtfock", "gtfock or nwchem")
		mode    = flag.String("mode", "real", "real (goroutine processes) or sim (discrete-event, paper scale)")
		grid    = flag.String("grid", "2x2", "process grid RxC for real mode")
		cores   = flag.Int("cores", 3888, "total cores for sim mode (multiple of 12)")
		tau     = flag.Float64("tau", screen.DefaultTau, "screening tolerance")
		ord     = flag.String("reorder", "cell", "shell ordering: cell, morton, natural (gtfock only)")
		primTol = flag.Float64("primtol", 0, "primitive prescreening tolerance (0 = off)")
		trace   = flag.Bool("trace", false, "print an activity timeline (sim mode, or gtfock real mode)")

		// Observability (gtfock real mode).
		metricsOut = flag.String("metrics", "", "write per-worker metrics JSON to this file")
		httpAddr   = flag.String("http", "", "serve /debug/vars (expvar) and /debug/pprof on this address (e.g. localhost:6060)")
		httpWait   = flag.Bool("http-wait", false, "after the build, keep the -http endpoint serving until interrupted")

		// Stored-ERI cache (gtfock real mode): build 1 records each task's
		// surviving integral batch, builds 2..N replay it without touching
		// the kernel layer. -eri-spill parks over-budget batches on the
		// shard servers so cache capacity scales with the fleet.
		eriCache  = flag.Bool("eri-cache", false, "record surviving ERIs on build 1 and replay on later builds (gtfock real mode)")
		eriBuilds = flag.Int("eri-builds", 2, "total builds with -eri-cache: build 1 records, builds 2..N replay")
		eriBudget = flag.Int64("eri-cache-budget", 0, "resident stored-ERI bytes; over budget spills (-eri-spill) or drops (0 = unlimited)")
		eriSpill  = flag.Bool("eri-spill", false, "spill over-budget batches to the shard servers (requires -backend net with -net-servers)")

		// Network backend (gtfock real mode): the global arrays live in
		// fockd shard servers and every one-sided op is a framed TCP RPC.
		backend    = flag.String("backend", "local", "global-array transport: local (in-process) or net (fockd shard servers)")
		netServers = flag.String("net-servers", "", "comma-separated fockd addresses (backend=net), in -index order")
		netSession = flag.Uint64("net-session", 0, "session id for the net backend (0 = derive from wall clock); a new id starts from empty arrays")
		netVerify  = flag.Bool("net-verify", false, "verify the net-backed G against the serial oracle (small molecules)")

		// Network fault injection (backend=net): applied at the conn layer.
		faultSeed      = flag.Int64("fault-seed", 1, "seed for the deterministic network fault injector")
		netReset       = flag.Float64("fault-net-reset", 0, "probability an RPC's connection is reset mid-flight")
		netDup         = flag.Float64("fault-net-dup", 0, "probability an RPC frame is delivered twice")
		netDelay       = flag.Float64("fault-net-delay", 0, "probability an RPC is held on a slow link")
		netDelayMS     = flag.Int("fault-net-delay-ms", 1, "slow-link delay in ms")
		netPartition   = flag.Float64("fault-net-partition", 0, "probability a rank opens a partition window")
		netPartitionMS = flag.Int("fault-net-partition-ms", 100, "partition window duration in ms")
	)
	flag.Parse()

	mol, err := chem.ParseSpec(*molSpec)
	fatalIf(err)
	bs, err := basis.Build(mol, *bname)
	fatalIf(err)
	fmt.Printf("%s: %d atoms, %d shells, %d basis functions\n",
		mol.Formula(), mol.NumAtoms(), bs.NumShells(), bs.NumFuncs)

	scr := screen.Compute(bs, *tau)
	if *engine == "gtfock" {
		var order []int
		switch *ord {
		case "cell":
			order = reorder.Cell(bs, 0)
		case "morton":
			order = reorder.Morton(bs, 0)
		case "natural":
			order = reorder.Identity(bs.NumShells())
		default:
			fatalIf(fmt.Errorf("unknown ordering %q", *ord))
		}
		pbs := bs.Permute(order)
		scr = scr.Permute(order, pbs)
		bs = pbs
	}
	fmt.Printf("screening: B = %.1f avg significant partners, %d unique quartets, work scale %.3f\n",
		scr.AvgPhi(), scr.UniqueQuartetCount(), scr.WorkScale)

	switch *mode {
	case "sim":
		cfg := dist.Lonestar()
		var st *dist.RunStats
		var tr *dist.Trace
		switch *engine {
		case "gtfock":
			if *trace {
				tr = &dist.Trace{}
			}
			st, err = core.SimulateOptions(bs, scr, cfg, *cores, core.SimOptions{Trace: tr})
		case "nwchem":
			st, err = nwchem.Simulate(bs, scr, cfg, *cores)
		default:
			err = fmt.Errorf("unknown engine %q", *engine)
		}
		fatalIf(err)
		report(st, fmt.Sprintf("simulated, %d cores", *cores))
		if tr != nil {
			fmt.Print(tr.Timeline(100, 24))
		}
	case "real":
		prow, pcol, err := parseGrid(*grid)
		fatalIf(err)
		if *eriCache && *engine != "gtfock" {
			fatalIf(fmt.Errorf("-eri-cache requires -engine gtfock"))
		}
		d := guessDensity(bs)
		switch *engine {
		case "gtfock":
			copt := core.Options{Prow: prow, Pcol: pcol, PrimTol: *primTol}
			var inj *fault.Injector
			if *netReset > 0 || *netDup > 0 || *netDelay > 0 || *netPartition > 0 {
				inj = fault.New(fault.Config{
					Seed:             *faultSeed,
					NetResetProb:     *netReset,
					NetDupProb:       *netDup,
					NetDelayProb:     *netDelay,
					NetDelayFor:      time.Duration(*netDelayMS) * time.Millisecond,
					NetPartitionProb: *netPartition,
					NetPartitionFor:  time.Duration(*netPartitionMS) * time.Millisecond,
				})
			}
			session := *netSession
			if session == 0 {
				session = uint64(time.Now().UnixNano())
			}
			var rpc *metrics.RPC
			var addrs []string
			if *backend == "net" {
				if *netServers == "" {
					fatalIf(fmt.Errorf("-backend net requires -net-servers"))
				}
				addrs = strings.Split(*netServers, ",")
				rpc = &metrics.RPC{}
				fmt.Printf("net backend: %d shard servers, session %d\n", len(addrs), session)
			} else if *backend != "local" {
				fatalIf(fmt.Errorf("unknown backend %q", *backend))
			}
			if *eriCache && *eriSpill && *backend != "net" {
				fatalIf(fmt.Errorf("-eri-spill requires -backend net"))
			}
			if *trace {
				copt.Trace = &dist.Trace{}
			}
			var reg *metrics.Registry
			if *metricsOut != "" || *httpAddr != "" {
				reg = metrics.NewRegistry(prow * pcol)
				copt.Metrics = reg
			}
			if *httpAddr != "" {
				addr, err := metrics.StartDebugServer(*httpAddr, reg)
				fatalIf(err)
				fmt.Printf("debug endpoint: http://%s/debug/vars (expvar) and http://%s/debug/pprof/\n", addr, addr)
			}
			// begin opens the shard session (and the stored-ERI cache that
			// lives in it) a build attempt runs under.
			var ns *shardSession
			var store *integrals.ERIStore
			begin := func() {
				if addrs != nil {
					ns = &shardSession{addrs: addrs, id: session, inj: inj, rpc: rpc}
					copt.Backend = ns.backend
				}
				if *eriCache {
					var spill integrals.BlobStore
					if *eriSpill {
						bc, err := ns.dialBlobs(core.Grid(bs, prow, pcol))
						fatalIf(err)
						spill = bc
					}
					store = integrals.NewERIStore(bs.NumShells(), *eriBudget, spill, session, nil)
					copt.ERIStore = store
				}
			}
			begin()
			res := core.Build(bs, scr, d, copt)
			for retry := 1; res.Err != nil && ns != nil && retry <= freshSessionRetries; retry++ {
				// A failed build's session is never reused: a restarted
				// shard forgot it, and a late accumulate of the failed
				// build could still land in it. Rebuild from scratch under
				// a fresh one.
				what := "failed"
				if ns.lost() {
					what = "lost to a shard restart"
				}
				fmt.Printf("net backend: session %d %s (%v); retry %d under session %d\n",
					session, what, res.Err, retry, session+1)
				ns.close()
				session++
				begin()
				res = core.Build(bs, scr, d, copt)
			}
			if res.Err != nil && ns != nil {
				ns.close()
			}
			fatalIf(res.Err)
			fmt.Printf("wall time: %v,  |G|_max = %.6f\n", res.Wall, res.G.MaxAbs())
			report(res.Stats, fmt.Sprintf("real, %dx%d grid, %s backend", prow, pcol, *backend))
			if store != nil {
				replayCachedBuilds(bs, scr, d, copt, store, res, *eriBuilds)
			}
			if rpc != nil {
				reportRPC(rpc)
			}
			if ns != nil {
				ns.close()
			}
			if *netVerify {
				ref := core.BuildSerial(bs, scr, d)
				diff := linalg.MaxAbsDiff(ref, res.G)
				status := "ok"
				if diff > 1e-9 {
					status = "MISMATCH"
				}
				fmt.Printf("serial oracle check: |G - serial| = %.2e  %s\n", diff, status)
				if diff > 1e-9 {
					fatalIf(fmt.Errorf("net-backed G diverged from the serial oracle"))
				}
			}
			if copt.Trace != nil {
				printTrace(copt.Trace)
			}
			if *metricsOut != "" {
				fatalIf(writeMetrics(*metricsOut, reg))
				fmt.Printf("metrics written to %s\n", *metricsOut)
			}
			if *httpAddr != "" && *httpWait {
				fmt.Println("serving debug endpoint; interrupt (Ctrl-C) to exit")
				ch := make(chan os.Signal, 1)
				signal.Notify(ch, os.Interrupt)
				<-ch
			}
		case "nwchem":
			res, err := nwchem.Build(bs, scr, d, nwchem.Options{Procs: prow * pcol, PrimTol: *primTol})
			fatalIf(err)
			fmt.Printf("wall time: %v,  |G|_max = %.6f\n", res.Wall, res.G.MaxAbs())
			report(res.Stats, fmt.Sprintf("real, %d processes", prow*pcol))
		default:
			fatalIf(fmt.Errorf("unknown engine %q", *engine))
		}
	default:
		fatalIf(fmt.Errorf("unknown mode %q", *mode))
	}
}

func report(st *dist.RunStats, label string) {
	fmt.Printf("Fock build statistics (%s):\n", label)
	fmt.Printf("  T_fock avg/max:      %.4f / %.4f s\n", st.TFockAvg(), st.TFockMax())
	fmt.Printf("  T_comp avg:          %.4f s\n", st.TCompAvg())
	fmt.Printf("  T_overhead avg:      %.4f s\n", st.TOverheadAvg())
	fmt.Printf("  load balance l:      %.4f\n", st.LoadBalance())
	fmt.Printf("  comm volume/process: %.2f MB in %.0f calls\n", st.VolumeAvgMB(), st.CallsAvg())
	fmt.Printf("  steals/process:      %.2f (from %.2f victims)\n", st.StealsAvg(), st.VictimsAvg())
	fmt.Printf("  queue ops/process:   %.1f\n", st.QueueOpsAvg())
}

// printTrace renders a real-mode trace: the timeline plus per-kind
// totals.
func printTrace(tr *dist.Trace) {
	fmt.Print(tr.Timeline(100, 24))
	tot := tr.KindTotals()
	fmt.Printf("  traced time: compute %.4fs, prefetch %.4fs, flush %.4fs, steal %.4fs\n",
		tot[byte(dist.SpanCompute)], tot[byte(dist.SpanPrefetch)],
		tot[byte(dist.SpanFlush)], tot[byte(dist.SpanSteal)])
}

// writeMetrics dumps the registry snapshot as indented JSON.
func writeMetrics(path string, reg *metrics.Registry) error {
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// replayCachedBuilds re-runs the build against the store populated by
// the first (recording) build and reports the replay speedup and
// hit rate per build. Every replayed G is checked against the recorded
// build's G at the chaos-oracle tolerance.
func replayCachedBuilds(bs *basis.Set, scr *screen.Screening, d *linalg.Matrix,
	copt core.Options, store *integrals.ERIStore, first core.Result, n int) {
	prev := store.Stats()
	fmt.Printf("stored-ERI cache: %d quartets recorded, %.1f MB resident",
		prev.QuartetsStored, float64(prev.BytesStored-prev.SpillBytes)/(1<<20))
	if prev.Spills > 0 {
		fmt.Printf(", %.1f MB spilled in %d blobs", float64(prev.SpillBytes)/(1<<20), prev.Spills)
	}
	if prev.Dropped > 0 {
		fmt.Printf(", %d tasks dropped over budget", prev.Dropped)
	}
	fmt.Println()
	for b := 2; b <= n; b++ {
		res := core.Build(bs, scr, d, copt)
		fatalIf(res.Err)
		cur := store.Stats()
		it := cur.Sub(prev)
		prev = cur
		diff := linalg.MaxAbsDiff(first.G, res.G)
		status := "ok"
		if diff > 1e-9 {
			status = "MISMATCH"
		}
		fmt.Printf("  replay build %d: wall %v (%.2fx vs record), hit rate %.1f%%",
			b, res.Wall, float64(first.Wall)/float64(res.Wall), 100*it.HitRate())
		if it.SpillFetches > 0 || it.SpillMisses > 0 {
			fmt.Printf(", %d spill fetches (%d misses)", it.SpillFetches, it.SpillMisses)
		}
		fmt.Printf(", |G-build1| = %.2e  %s\n", diff, status)
		if diff > 1e-9 {
			fatalIf(fmt.Errorf("replay build %d diverged from the recorded build", b))
		}
	}
}

// freshSessionRetries caps the builds fockbuild reruns under a fresh
// session after a build failed (the same default as the HF service's
// job retries).
const freshSessionRetries = 3

// shardSession is one session on the fockd shard servers: the D and F
// array clients and, with -eri-spill, the blob client.
type shardSession struct {
	addrs []string
	id    uint64
	inj   *fault.Injector
	rpc   *metrics.RPC

	d, f, blobs *netga.Client
}

// backend is the core.Options.Backend factory. The D and F clients are
// dialed by the first build and shared by every later build of the
// session: a fresh client restarts its Acc-token counter, and on the
// live session the servers' exactly-once dedup would discard the later
// builds' accumulates as replays of the first. Repeated-build RPC
// traffic is accounted to the first build's stats.
func (s *shardSession) backend(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
	if s.d == nil {
		assign, _ := netga.SplitProcs(grid.NumProcs(), len(s.addrs))
		cfg := netga.Config{Array: 0, Session: s.id, RPC: s.rpc, Fault: s.inj}
		d, err := netga.Dial(grid, stats, s.addrs, assign, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Array = 1
		f, err := netga.Dial(grid, stats, s.addrs, assign, cfg)
		if err != nil {
			d.Close()
			return nil, nil, nil, err
		}
		s.d, s.f = d, f
	}
	return s.d, s.f, nil, nil
}

// dialBlobs opens the session's blob client for the stored-ERI spill
// legs (driver-side: not accounted, not fault-injected).
func (s *shardSession) dialBlobs(grid *dist.Grid2D) (*netga.Client, error) {
	assign, _ := netga.SplitProcs(grid.NumProcs(), len(s.addrs))
	bc, err := netga.Dial(grid, nil, s.addrs, assign, netga.Config{Array: 0, Session: s.id, RPC: s.rpc})
	s.blobs = bc
	return bc, err
}

func (s *shardSession) clients() []*netga.Client {
	var out []*netga.Client
	for _, c := range []*netga.Client{s.d, s.f, s.blobs} {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// lost reports whether a shard restarted under the session and forgot it.
func (s *shardSession) lost() bool {
	for _, c := range s.clients() {
		if c.SessionLost() {
			return true
		}
	}
	return false
}

// close releases the session's arrays and blobs on every shard (best
// effort: a restarted shard has already forgotten them) and closes the
// clients.
func (s *shardSession) close() {
	cs := s.clients()
	if len(cs) > 0 {
		cs[0].Bye()
	}
	for _, c := range cs {
		c.Close()
	}
}

// reportRPC prints the transport-level counters of a net-backed build.
func reportRPC(rpc *metrics.RPC) {
	s := rpc.Snapshot()
	fmt.Printf("RPC transport statistics:\n")
	fmt.Printf("  calls:               %d (%d retries, %d failures)\n", s.Calls, s.Retries, s.Failures)
	fmt.Printf("  connections:         %d dials, %d reconnects\n", s.Dials, s.Reconnects)
	if s.Resets > 0 || s.DupSends > 0 || s.Partitioned > 0 {
		fmt.Printf("  injected faults:     %d resets, %d dup sends, %d partitioned\n",
			s.Resets, s.DupSends, s.Partitioned)
	}
	if s.DeadlineExceeded > 0 || s.PeerResets > 0 {
		fmt.Printf("  failure classes:     %d deadline exceeded, %d peer resets\n",
			s.DeadlineExceeded, s.PeerResets)
	}
	if s.LatencyNS.Count > 0 {
		fmt.Printf("  latency:             mean %.1fus, p95 %.1fus, max %.1fus\n",
			s.LatencyNS.Mean/1e3, float64(s.LatencyNS.P95)/1e3,
			float64(s.LatencyNS.Max)/1e3)
	}
}

func parseGrid(s string) (int, int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("grid must be RxC, got %q", s)
	}
	r, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, err
	}
	c, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return r, c, nil
}

// guessDensity returns a plausible symmetric density-like matrix (overlap-
// shaped) so real-mode builds exercise realistic sparsity.
func guessDensity(bs *basis.Set) *linalg.Matrix {
	d := linalg.Identity(bs.NumFuncs)
	return d.Scale(0.5)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fockbuild:", err)
		os.Exit(1)
	}
}

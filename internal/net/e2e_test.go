package netga_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
	"gtfock/internal/screen"
)

// netSetup mirrors the core test harness: a small alkane, screening, and
// a symmetric pseudo-density.
func netSetup(t *testing.T) (*basis.Set, *screen.Screening, *linalg.Matrix) {
	t.Helper()
	bs, err := basis.Build(chem.Alkane(2), "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	scr := screen.Compute(bs, 1e-11)
	d := linalg.NewMatrix(bs.NumFuncs, bs.NumFuncs)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < d.Rows; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * math.Exp(-0.1*float64(i-j))
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return bs, scr, d
}

// backendFactory is the shape of core.Options.Backend.
type backendFactory = func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error)

// netBackend brings up nservers loopback shard servers and returns a
// constructor of core.Options.Backend factories, each dialing the D and
// F clients of one session on them, plus an escape hatch to read the
// server stats after the build.
func netBackend(t *testing.T, nservers int, inj *fault.Injector, rpc *metrics.RPC) (
	sessionFactory func(session uint64) backendFactory,
	serverStats func() netga.MultiServerStats,
) {
	t.Helper()
	servers, addrs := startShards(t, nservers)
	sessionFactory = func(session uint64) backendFactory {
		return func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
			assign, _ := netga.SplitProcs(grid.NumProcs(), nservers)
			gaD, err := netga.Dial(grid, stats, addrs, assign, netga.Config{
				Array: 0, Session: session, RPC: rpc, Fault: inj,
			})
			if err != nil {
				return nil, nil, nil, err
			}
			gaF, err := netga.Dial(grid, stats, addrs, assign, netga.Config{
				Array: 1, Session: session, RPC: rpc, Fault: inj,
			})
			if err != nil {
				gaD.Close()
				return nil, nil, nil, err
			}
			cleanup := func() {
				gaD.Close()
				gaF.Close()
				// Servers stay up so the test can read their stats; closed
				// at test cleanup.
			}
			return gaD, gaF, cleanup, nil
		}
	}
	serverStats = func() (sum netga.MultiServerStats) {
		for _, s := range servers {
			st := s.Stats()
			sum.Requests += st.Requests
			sum.AccApplied += st.AccApplied
			sum.AccDups += st.AccDups
			sum.SessionsOpened += st.SessionsOpened
			sum.Rejects += st.Rejects
		}
		return sum
	}
	return sessionFactory, serverStats
}

// startShards starts n loopback shard servers, closed at test cleanup.
func startShards(t *testing.T, n int) ([]*netga.MultiServer, []string) {
	t.Helper()
	servers := make([]*netga.MultiServer, n)
	addrs := make([]string, n)
	for k := range servers {
		srv, err := netga.NewMultiServer(n, k, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("start server %d: %v", k, err)
		}
		t.Cleanup(srv.Close)
		servers[k], addrs[k] = srv, addr
	}
	return servers, addrs
}

func buildDeadline(t *testing.T, timeout time.Duration, f func() core.Result) core.Result {
	t.Helper()
	ch := make(chan core.Result, 1)
	go func() { ch <- f() }()
	select {
	case r := <-ch:
		return r
	case <-time.After(timeout):
		t.Fatalf("build did not complete within %v", timeout)
		panic("unreachable")
	}
}

// TestLoopbackBuildMatchesSerial is the fault-free baseline: a 2x2 build
// whose D and F arrays live in two loopback shard-server processes must
// match the serial oracle exactly as the in-process build does.
func TestLoopbackBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	rpc := &metrics.RPC{}
	reg := metrics.NewRegistry(4)
	newFactory, _ := netBackend(t, 2, nil, rpc)
	res := buildDeadline(t, 2*time.Minute, func() core.Result {
		return core.Build(bs, scr, d, core.Options{
			Prow: 2, Pcol: 2,
			Backend: newFactory(1),
			Metrics: reg,
		})
	})
	if res.Err != nil {
		t.Fatalf("build error: %v", res.Err)
	}
	if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
		t.Fatalf("|G - serial| = %g over TCP backend", diff)
	}
	ns := int64(bs.NumShells())
	if got := reg.Snapshot().TasksTotal; got != ns*ns {
		t.Fatalf("tasks_total = %d, want ns^2 = %d", got, ns*ns)
	}
	if rpc.Snapshot().Calls == 0 {
		t.Fatal("no RPCs recorded: build did not go over the wire")
	}
}

// chaosAttempts caps the whole-build attempts of one chaos mix: the
// first try plus as many fresh-session retries as fockbuild and the HF
// service allow (3).
const chaosAttempts = 4

// TestLoopbackChaosBuildMatchesSerial is the headline proof of the
// network transport: a multi-server loopback build under injected
// connection resets, duplicated deliveries, slow links and partition
// windows must complete, match BuildSerial to 1e-9, and count every task
// exactly once (tasks_total == ns^2 means zero double-applied
// accumulates). The client's retries and idempotency tokens absorb most
// faults inside a build; a build that still fails is retried whole under
// a fresh session, as its callers do, within chaosAttempts.
func TestLoopbackChaosBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	mixes := []struct {
		name string
		cfg  fault.Config
	}{
		{"reset-dup-slowlink", fault.Config{
			Seed:         77,
			NetResetProb: 0.15,
			NetDupProb:   0.2,
			NetDelayProb: 0.1,
			NetDelayFor:  500 * time.Microsecond,
		}},
		{"partition-degradation", fault.Config{
			Seed:                    78,
			NetResetProb:            0.05,
			NetPartitionProb:        0.08,
			NetPartitionFor:         120 * time.Millisecond,
			MaxConsecutiveNetFaults: 2,
		}},
	}
	for i, mix := range mixes {
		mix := mix
		session := uint64(100 * (i + 1))
		t.Run(mix.name, func(t *testing.T) {
			inj := fault.New(mix.cfg)
			rpc := &metrics.RPC{}
			newFactory, serverStats := netBackend(t, 2, inj, rpc)
			var res core.Result
			var reg *metrics.Registry
			attempt := 1
			for ; ; attempt++ {
				reg = metrics.NewRegistry(4)
				res = buildDeadline(t, 3*time.Minute, func() core.Result {
					return core.Build(bs, scr, d, core.Options{
						Prow: 2, Pcol: 2,
						Backend: newFactory(session),
						Metrics: reg,
					})
				})
				if res.Err == nil {
					break
				}
				if attempt >= chaosAttempts {
					t.Fatalf("attempt %d of %d: build error: %v", attempt, chaosAttempts, res.Err)
				}
				t.Logf("attempt %d failed: %v; retrying under session %d", attempt, res.Err, session+1)
				session++ // never reuse a failed build's session
			}
			if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
				t.Fatalf("|G - serial| = %g under %s", diff, mix.name)
			}
			if got := reg.Snapshot().TasksTotal; got != ns*ns {
				t.Fatalf("tasks_total = %d, want ns^2 = %d (lost or double-counted tasks)", got, ns*ns)
			}
			snap := rpc.Snapshot()
			sst := serverStats()
			if snap.Retries == 0 {
				t.Fatalf("chaos mix %s injected no retries: %+v", mix.name, snap)
			}
			t.Logf("%s: accepted on attempt %d; rpc=%+v server={applied:%d dups:%d}",
				mix.name, attempt, snap, sst.AccApplied, sst.AccDups)
		})
	}
}

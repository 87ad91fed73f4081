package netga_test

import (
	"sync"
	"testing"
	"time"

	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
)

// killCluster is the loopback harness for process-kill chaos: shard
// servers whose slots can be SIGKILLed (abrupt Close) and restarted,
// empty, on the same address mid-build.
type killCluster struct {
	t     *testing.T
	addrs []string

	mu      sync.Mutex
	servers []*netga.MultiServer // current incarnation per slot
	retired []*netga.MultiServer // killed incarnations (stats, cleanup)
}

func startKillCluster(t *testing.T, n int) *killCluster {
	kc := &killCluster{t: t}
	kc.servers, kc.addrs = startShards(t, n)
	t.Cleanup(func() {
		kc.mu.Lock()
		defer kc.mu.Unlock()
		for _, s := range kc.servers {
			s.Close()
		}
	})
	return kc
}

// ops reports the cumulative request count of slot k across incarnations
// (the kill trigger must keep advancing after a restart).
func (kc *killCluster) ops(k int) int64 {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	n := kc.servers[k].Stats().Requests
	for _, s := range kc.retired {
		if s.Addr() == kc.addrs[k] {
			n += s.Stats().Requests
		}
	}
	return n
}

func (kc *killCluster) kill(k int) {
	kc.mu.Lock()
	srv := kc.servers[k]
	kc.retired = append(kc.retired, srv)
	kc.mu.Unlock()
	srv.Kill()
}

// restart brings slot k back on its address with no sessions, as a
// restarted fockd process would (the OS may briefly hold the port).
func (kc *killCluster) restart(k int) {
	var err error
	for i := 0; i < 400; i++ {
		var srv *netga.MultiServer
		if srv, err = netga.NewMultiServer(len(kc.addrs), k, 0, 0); err != nil {
			break
		}
		if _, err = srv.Start(kc.addrs[k]); err == nil {
			kc.mu.Lock()
			kc.servers[k] = srv
			kc.mu.Unlock()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	kc.t.Errorf("restart slot %d on %s: %v", k, kc.addrs[k], err)
}

// TestLoopbackKillRestartBuildMatchesSerial is the process-kill chaos
// proof: shard servers are SIGKILLed mid-build on a seeded schedule and
// restarted empty on the same address. The build under the lost session
// fails, the driver retries under a fresh session, and the accepted
// build must match the serial oracle to 1e-9 and count every task
// exactly once — the fresh session's empty arrays and dedup table make
// double accumulation from a dead attempt impossible.
func TestLoopbackKillRestartBuildMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	kc := startKillCluster(t, 2)
	rpc := &metrics.RPC{}
	// Two kills per slot, triggered by served-op counts so they land
	// mid-build deterministically per seed (the loopback build is only a
	// few hundred RPCs long), restarted after 30ms.
	plan := fault.ServerKillPlan(42, 2, 4, 20, 60, 30*time.Millisecond)
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		fault.RunServerKills(plan, kc.ops, kc.kill, kc.restart, stop)
	}()

	session := uint64(300)
	var lost bool // the current attempt's session died with a shard
	factory := func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
		assign, _ := netga.SplitProcs(grid.NumProcs(), len(kc.addrs))
		cfg := netga.Config{Array: 0, Session: session, RPC: rpc}
		gaD, err := netga.Dial(grid, stats, kc.addrs, assign, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Array = 1
		gaF, err := netga.Dial(grid, stats, kc.addrs, assign, cfg)
		if err != nil {
			gaD.Close()
			return nil, nil, nil, err
		}
		return gaD, gaF, func() {
			lost = gaD.SessionLost() || gaF.SessionLost()
			gaD.Bye()
			gaD.Close()
			gaF.Close()
		}, nil
	}

	var res core.Result
	var reg *metrics.Registry
	lostAttempts := 0
	for attempt := 1; ; attempt++ {
		reg = metrics.NewRegistry(4)
		lost = false
		res = buildDeadline(t, 4*time.Minute, func() core.Result {
			return core.Build(bs, scr, d, core.Options{
				Prow: 2, Pcol: 2,
				Backend: factory,
				Metrics: reg,
			})
		})
		if res.Err == nil {
			break
		}
		if lost {
			lostAttempts++
		}
		// Every kill can cost at most one attempt.
		if attempt > len(plan) {
			t.Fatalf("attempt %d: build error: %v", attempt, res.Err)
		}
		t.Logf("attempt %d failed (session lost: %v): %v", attempt, lost, res.Err)
		session++
	}
	close(stop)
	chaos.Wait()
	if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
		t.Fatalf("|G - serial| = %g after kill/restart chaos", diff)
	}
	if got := reg.Snapshot().TasksTotal; got != ns*ns {
		t.Fatalf("tasks_total = %d, want ns^2 = %d (lost or double-counted tasks)", got, ns*ns)
	}
	kc.mu.Lock()
	kills := len(kc.retired)
	open := 0
	for _, s := range kc.servers {
		open += s.Stats().SessionsOpen
	}
	kc.mu.Unlock()
	if kills == 0 || lostAttempts == 0 {
		t.Fatalf("%d kills, %d attempts lost their session: the test proved nothing", kills, lostAttempts)
	}
	if open != 0 {
		t.Fatalf("%d sessions still resident after Bye", open)
	}
	t.Logf("kill-restart: %d kills, %d attempts lost their session, accepted session %d",
		kills, lostAttempts, session)
}

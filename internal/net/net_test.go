package netga

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

func TestProtoRoundTrip(t *testing.T) {
	req := request{
		Op: opAcc, Array: 1, Session: 7, ReqID: 42, Token: 99,
		Proc: 2, R0: 1, R1: 4, C0: 0, C1: 2, Alpha: -0.5,
		Msg:  `{"prow":1}`,
		Data: []float64{1.5, -2, 3.25, 0, 5, math.Pi},
	}
	var back request
	if err := decodeRequest(encodeRequest(nil, &req), &back); err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("request round trip: got %+v, want %+v", back, req)
	}
	resp := response{Status: statusErr, Dup: 1, ReqID: 42, Msg: "boom", Data: []float64{7, 8}}
	var rback response
	if err := decodeResponse(encodeResponse(nil, &resp), &rback); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !reflect.DeepEqual(resp, rback) {
		t.Fatalf("response round trip: got %+v, want %+v", rback, resp)
	}
	if err := decodeRequest([]byte{1, 2, 3}, &back); err == nil {
		t.Fatal("short request frame must not decode")
	}
}

// startCluster brings up nservers loopback shard servers and returns
// their addresses, the proc assignment of grid over them, and the
// servers (closed at test cleanup).
func startCluster(t *testing.T, grid *dist.Grid2D, nservers int) ([]string, []int, []*MultiServer) {
	t.Helper()
	assign, _ := SplitProcs(grid.NumProcs(), nservers)
	addrs, servers := startMultiFleet(t, nservers, 0, 0)
	return addrs, assign, servers
}

func TestClientServerRoundTrip(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 8, 8)
	addrs, assign, _ := startCluster(t, grid, 2)
	stats := dist.NewRunStats(4)
	c, err := Dial(grid, stats, addrs, assign, Config{Array: 0, Session: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	m := linalg.NewMatrix(8, 8)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	c.LoadMatrix(m)
	back := c.ToMatrix()
	if d := linalg.MaxAbsDiff(m, back); d != 0 {
		t.Fatalf("LoadMatrix/ToMatrix round trip differs by %g", d)
	}

	// A cross-owner GetRetry must reassemble patches from both servers.
	dst := make([]float64, 6*8)
	retries, err := c.GetRetry(context.Background(), 3, time.Millisecond, 0, 1, 7, 1, 7, dst, 8)
	if err != nil || retries != 0 {
		t.Fatalf("GetRetry: retries=%d err=%v", retries, err)
	}
	for r := 1; r < 7; r++ {
		for cc := 1; cc < 7; cc++ {
			if got, want := dst[(r-1)*8+(cc-1)], m.At(r, cc); got != want {
				t.Fatalf("Get (%d,%d) = %g, want %g", r, cc, got, want)
			}
		}
	}
	if stats.Per[0].Calls == 0 || stats.Per[0].Bytes == 0 {
		t.Fatal("GetRetry did not charge rank 0")
	}

	// A cross-owner AccFencedRetry must land on both servers exactly once.
	src := make([]float64, 6*8)
	for i := range src {
		src[i] = 2
	}
	if _, err := c.AccFencedRetry(context.Background(), time.Millisecond, 1, 1, 1, 7, 1, 7, src, 8, 0.5); err != nil {
		t.Fatalf("AccFencedRetry: %v", err)
	}
	back = c.ToMatrix()
	for r := 0; r < 8; r++ {
		for cc := 0; cc < 8; cc++ {
			want := m.At(r, cc)
			if r >= 1 && r < 7 && cc >= 1 && cc < 7 {
				want++
			}
			if got := back.At(r, cc); got != want {
				t.Fatalf("after Acc (%d,%d) = %g, want %g", r, cc, got, want)
			}
		}
	}
}

// A retried Acc with the same idempotency token must be applied exactly
// once: the second delivery is acknowledged as a dup, not re-applied.
func TestAccTokenDedup(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	addrs, assign, servers := startCluster(t, grid, 1)
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 1, Session: 5})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	req := request{
		Op: opAcc, Array: 1, Session: 5, Token: 1234, Proc: 0, Alpha: 1,
		R0: 0, R1: 4, C0: 0, C1: 4, Data: make([]float64, 16),
	}
	for i := range req.Data {
		req.Data[i] = 3
	}
	for i := 0; i < 3; i++ { // initial delivery + two "retries"
		req.ReqID = c.reqID.Add(1)
		resp, err := c.doRPC(0, c.pools[0], &req)
		if err != nil || resp.Status != statusOK {
			t.Fatalf("acc delivery %d: %v / %+v", i, err, resp)
		}
		if (i > 0) != (resp.Dup == 1) {
			t.Fatalf("delivery %d: dup=%d", i, resp.Dup)
		}
	}
	if st := servers[0].Stats(); st.AccApplied != 1 || st.AccDups != 2 {
		t.Fatalf("server stats: %+v, want 1 applied / 2 dups", st)
	}
	back := c.ToMatrix()
	for i, v := range back.Data {
		if v != 3 {
			t.Fatalf("element %d = %g, want 3 (exactly-once)", i, v)
		}
	}
}

// Concurrent ranks accumulating through injected resets, duplicated
// deliveries and slow links must still sum exactly once per Acc.
func TestChaosAccExactlyOnce(t *testing.T) {
	grid := dist.UniformGrid2D(2, 2, 12, 12)
	addrs, assign, servers := startCluster(t, grid, 2)
	inj := fault.New(fault.Config{
		Seed:         21,
		NetResetProb: 0.25,
		NetDupProb:   0.25,
		NetDelayProb: 0.1,
		NetDelayFor:  200 * time.Microsecond,
	})
	rpc := &metrics.RPC{}
	stats := dist.NewRunStats(4)
	c, err := Dial(grid, stats, addrs, assign, Config{Array: 1, Session: 2, RPC: rpc, Fault: inj})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const perRank = 30
	var wg sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			i, j := grid.Coords(rank)
			r0, r1 := grid.RowCuts[i], grid.RowCuts[i+1]
			c0, c1 := grid.ColCuts[j], grid.ColCuts[j+1]
			src := make([]float64, (r1-r0)*(c1-c0))
			for k := range src {
				src[k] = 1
			}
			for n := 0; n < perRank; n++ {
				if _, err := c.AccFencedRetry(context.Background(), time.Millisecond,
					rank, 1, r0, r1, c0, c1, src, c1-c0, 1); err != nil {
					t.Errorf("rank %d acc %d: %v", rank, n, err)
					return
				}
			}
		}(rank)
	}
	wg.Wait()

	back := c.ToMatrix()
	for i, v := range back.Data {
		if v != perRank {
			t.Fatalf("element %d = %g, want %d: Acc lost or double-applied", i, v, perRank)
		}
	}
	snap := rpc.Snapshot()
	if snap.Resets == 0 || snap.DupSends == 0 || snap.Retries == 0 || snap.Reconnects == 0 {
		t.Fatalf("chaos did not exercise the fault paths: %+v", snap)
	}
	dups := servers[0].Stats().AccDups + servers[1].Stats().AccDups
	if dups == 0 {
		t.Fatal("no server-side dedup hits despite injected dups/resets")
	}
	if snap.LatencyNS.Count == 0 {
		t.Fatal("no RPC latency observations recorded")
	}
}

// Inside a partition window RPCs fail fast without touching the wire;
// once the window closes (and the consecutive cap stops new windows) the
// op completes. A ctx deadline during an un-sent Acc aborts cleanly.
func TestPartitionWindowFailsFastThenHeals(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	addrs, assign, servers := startCluster(t, grid, 1)
	inj := fault.New(fault.Config{
		Seed:                    4,
		NetPartitionProb:        1,
		NetPartitionFor:         30 * time.Millisecond,
		MaxConsecutiveNetFaults: 2,
	})
	rpc := &metrics.RPC{}
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 0, Session: 3, RPC: rpc, Fault: inj})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Few attempts, short ctx: abandoned inside the first window.
	dst := make([]float64, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = c.GetRetry(ctx, 3, 5*time.Millisecond, 0, 0, 4, 0, 4, dst, 4)
	cancel()
	if err == nil {
		t.Fatal("GetRetry inside a hard partition must fail")
	}

	// An Acc that was never sent must abandon cleanly on ctx deadline:
	// nothing lands server-side.
	src := []float64{1, 1, 1, 1}
	ctx, cancel = context.WithTimeout(context.Background(), 15*time.Millisecond)
	_, err = c.AccFencedRetry(ctx, 5*time.Millisecond, 0, 1, 0, 1, 0, 4, src, 4, 1)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned Acc: err=%v, want deadline", err)
	}
	if n := servers[0].Stats().AccApplied; n != 0 {
		t.Fatalf("clean abandonment applied %d Accs", n)
	}

	// Generous retry budget: windows expire, the consecutive cap kicks
	// in, and the op heals.
	retries, err := c.GetRetry(context.Background(), 30, 5*time.Millisecond, 0, 0, 4, 0, 4, dst, 4)
	if err != nil {
		t.Fatalf("GetRetry after heal: %v", err)
	}
	if retries == 0 {
		t.Fatal("healed GetRetry should have recorded retries")
	}
	if rpc.Snapshot().Partitioned == 0 {
		t.Fatal("no partitioned RPCs counted")
	}
}

// A new session id starts from zeroed arrays, a released session is
// rejected per request, and a geometry mismatch is rejected at Hello.
func TestSessionResetAndGeometryCheck(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	addrs, assign, servers := startCluster(t, grid, 1)
	c1, err := Dial(grid, nil, addrs, assign, Config{Array: 0, Session: 10})
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	m := linalg.NewMatrix(4, 4)
	for i := range m.Data {
		m.Data[i] = 9
	}
	c1.LoadMatrix(m)

	// New session: its own arrays, all zero.
	c2, err := Dial(grid, nil, addrs, assign, Config{Array: 0, Session: 11})
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer c2.Close()
	back := c2.ToMatrix()
	for i, v := range back.Data {
		if v != 0 {
			t.Fatalf("element %d = %g in a fresh session, want 0", i, v)
		}
	}
	if st := servers[0].Stats(); st.SessionsOpened != 2 {
		t.Fatalf("sessions opened = %d, want 2", st.SessionsOpened)
	}

	// A released session is rejected per request, and the client notes
	// the loss.
	if err := c1.Bye(); err != nil {
		t.Fatalf("bye: %v", err)
	}
	if _, err := c1.ToMatrixErr(); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("released session read: %v, want unknown session", err)
	}
	if !c1.SessionLost() || c2.SessionLost() {
		t.Fatalf("SessionLost: released=%v live=%v, want true/false", c1.SessionLost(), c2.SessionLost())
	}
	c1.Close()

	// Geometry mismatch against a live session is rejected at Dial time.
	wrong := dist.UniformGrid2D(1, 1, 5, 5)
	if _, err := Dial(wrong, nil, addrs, []int{0}, Config{Array: 0, Session: 11}); err == nil {
		t.Fatal("geometry mismatch must fail Dial")
	}
}

// Requests for blocks a server does not host are rejected, catching
// routing bugs instead of silently serving zeros.
func TestUnhostedProcRejected(t *testing.T) {
	grid := dist.UniformGrid2D(2, 1, 4, 4)
	srv, err := NewMultiServer(2, 0, 0, 0) // shard 0 of 2: hosts proc 0 only
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Misroute proc 1's block to this server.
	c, err := Dial(grid, nil, []string{addr}, []int{0, 0}, Config{Array: 0, Session: 6})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	dst := make([]float64, 8)
	_, err = c.GetRetry(context.Background(), 2, time.Millisecond, 0, 2, 4, 0, 4, dst, 4)
	if err == nil || !strings.Contains(err.Error(), "not hosted") {
		t.Fatalf("Get of an unhosted block: %v, want a not-hosted rejection", err)
	}
}

// rawAcc sends one Acc with an explicit idempotency token to cell (0,0).
func rawAcc(t *testing.T, c *Client, token uint64, val float64) *response {
	t.Helper()
	req := request{
		Op: opAcc, Array: c.cfg.Array, Session: c.cfg.Session, Token: token,
		Alpha: 1, R0: 0, R1: 1, C0: 0, C1: 1, Data: []float64{val},
	}
	req.ReqID = c.reqID.Add(1)
	resp, err := c.doRPC(-1, c.pools[0], &req)
	if err != nil {
		t.Fatalf("raw acc: %v", err)
	}
	if resp.Status != statusOK {
		t.Fatalf("raw acc rejected: %s", resp.Msg)
	}
	return resp
}

// TestDedupEvictionAtCheckpointOnly is the bounded-dedup-table proof:
// tokens are never evicted mid-epoch, survive one full checkpoint
// generation (so any retry of an op that completed before the checkpoint
// still dedups — no duplicate Acc can land), and are dropped after two.
func TestDedupEvictionAtCheckpointOnly(t *testing.T) {
	grid := dist.UniformGrid2D(1, 1, 4, 4)
	addrs, assign, _ := startCluster(t, grid, 1)
	c, err := Dial(grid, nil, addrs, assign, Config{Array: 1, Session: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp := rawAcc(t, c, 555, 3); resp.Dup != 0 {
		t.Fatal("first delivery deduplicated")
	}
	for i := uint64(0); i < 50; i++ {
		rawAcc(t, c, 1000+i, 1)
	}
	if resp := rawAcc(t, c, 555, 3); resp.Dup != 1 {
		t.Fatal("retry deduplicated no longer mid-epoch (evicted without a checkpoint)")
	}

	// One checkpoint: 555 moves to the previous generation but is still
	// held — the legal worst-case retry window for an op that completed
	// just before the checkpoint.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if resp := rawAcc(t, c, 555, 3); resp.Dup != 1 {
		t.Fatal("duplicate Acc landed one generation after completion")
	}
	// Exactly-once held throughout: the cell accumulated 3 exactly once.
	if got := c.ToMatrix().At(0, 0); got != 3+50 {
		t.Fatalf("cell (0,0) = %g, want %g", got, 3.0+50)
	}
	// The post-checkpoint retry re-marked 555 into the current generation;
	// two more rotations age it out, so the table stays bounded and the
	// same token applies afresh.
	for i := 0; i < 2; i++ {
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if resp := rawAcc(t, c, 555, 3); resp.Dup != 0 {
		t.Fatal("token still held after two full checkpoint generations")
	}
	if got := c.ToMatrix().At(0, 0); got != 3+50+3 {
		t.Fatalf("cell (0,0) = %g after eviction, want %g", got, 3.0+50+3)
	}
}

package netga

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"

	"gtfock/internal/dist"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

func TestLayoutRoundTrip(t *testing.T) {
	g := dist.UniformGrid2D(2, 3, 17, 23)
	msg := layoutMsg(g)
	got, err := parseLayout(msg, 17, 23)
	if err != nil {
		t.Fatal(err)
	}
	if got.Prow != 2 || got.Pcol != 3 || got.Rows != 17 || got.Cols != 23 {
		t.Fatalf("round-trip grid %dx%d over %dx%d", got.Prow, got.Pcol, got.Rows, got.Cols)
	}
	for i := range g.RowCuts {
		if got.RowCuts[i] != g.RowCuts[i] {
			t.Fatalf("row cuts differ: %v vs %v", got.RowCuts, g.RowCuts)
		}
	}

	for _, bad := range []struct {
		msg        string
		rows, cols int
	}{
		{"", 17, 23},
		{"not json", 17, 23},
		{msg, 18, 23}, // cuts disagree with geometry
		{`{"prow":2,"pcol":2,"row_cuts":[0,9]}`, 17, 23},                    // wrong cut count
		{`{"prow":1,"pcol":1,"row_cuts":[5,17],"col_cuts":[0,23]}`, 17, 23}, // not from zero
		{`{"prow":1,"pcol":1,"row_cuts":[0,0],"col_cuts":[0,0]}`, 0, 0},     // empty matrix
		// A matrix this large would overflow the byte charge before the
		// memory budget could refuse it.
		{layoutMsg(dist.UniformGrid2D(1, 1, 1<<31-1, 1<<31-1)), 1<<31 - 1, 1<<31 - 1},
	} {
		if _, err := parseLayout(bad.msg, bad.rows, bad.cols); err == nil {
			t.Fatalf("parseLayout(%q, %d, %d) accepted", bad.msg, bad.rows, bad.cols)
		}
	}
}

// startMultiFleet starts n multi-session shards and returns their
// addresses plus a kill-and-restart handle per shard.
func startMultiFleet(t *testing.T, n, maxSessions int, memBudget int64) ([]string, []*MultiServer) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*MultiServer, n)
	for i := range servers {
		ms, err := NewMultiServer(n, i, maxSessions, memBudget)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := ms.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ms.Close)
		addrs[i], servers[i] = addr, ms
	}
	return addrs, servers
}

func dialSession(t *testing.T, grid *dist.Grid2D, addrs []string, session uint64, array uint8) *Client {
	t.Helper()
	c, err := dialSessionErr(grid, addrs, session, array)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func dialSessionErr(grid *dist.Grid2D, addrs []string, session uint64, array uint8) (*Client, error) {
	assign, _ := SplitProcs(grid.NumProcs(), len(addrs))
	return Dial(grid, dist.NewRunStats(grid.NumProcs()), addrs, assign,
		Config{Array: array, Session: session, OpTimeout: 500 * time.Millisecond})
}

// Two concurrent sessions with different geometries stay fully
// isolated: puts and accumulates in one are invisible to the other.
func TestMultiServerSessionIsolation(t *testing.T) {
	addrs, _ := startMultiFleet(t, 2, 0, 0)

	gA := dist.UniformGrid2D(2, 2, 8, 8)
	gB := dist.UniformGrid2D(1, 2, 5, 5)
	cA := dialSession(t, gA, addrs, 101, 0)
	cB := dialSession(t, gB, addrs, 102, 0)

	mA := linalg.NewMatrix(8, 8)
	for i := range mA.Data {
		mA.Data[i] = float64(i)
	}
	cA.LoadMatrix(mA)
	mB := linalg.NewMatrix(5, 5)
	for i := range mB.Data {
		mB.Data[i] = -float64(i)
	}
	cB.LoadMatrix(mB)

	if d := linalg.MaxAbsDiff(cA.ToMatrix(), mA); d != 0 {
		t.Fatalf("session A readback off by %g", d)
	}
	if d := linalg.MaxAbsDiff(cB.ToMatrix(), mB); d != 0 {
		t.Fatalf("session B readback off by %g", d)
	}

	// Accumulate with idempotency tokens in A; B unchanged.
	src := []float64{1, 1, 1, 1}
	if _, err := cA.AccFencedRetry(context.Background(), time.Millisecond, 0, 0, 0, 2, 0, 2, src, 2, 2.0); err != nil {
		t.Fatal(err)
	}
	got := cA.ToMatrix()
	if got.Data[0] != mA.Data[0]+2 || got.Data[1] != mA.Data[1]+2 {
		t.Fatalf("acc not applied: %v", got.Data[:2])
	}
	if d := linalg.MaxAbsDiff(cB.ToMatrix(), mB); d != 0 {
		t.Fatalf("session B perturbed by session A's acc (off by %g)", d)
	}
}

// The D and F clients of one job share a session; their token spaces
// are disjoint (array id is baked into the token), so dedup state can
// be session-scoped.
func TestMultiServerSharedSessionTwoArrays(t *testing.T) {
	addrs, servers := startMultiFleet(t, 1, 0, 0)
	g := dist.UniformGrid2D(1, 1, 4, 4)
	cD := dialSession(t, g, addrs, 7, 0)
	cF := dialSession(t, g, addrs, 7, 1)

	src := []float64{1}
	for i := 0; i < 3; i++ {
		if _, err := cD.AccFencedRetry(context.Background(), time.Millisecond, 0, 0, 0, 1, 0, 1, src, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := cF.AccFencedRetry(context.Background(), time.Millisecond, 0, 0, 0, 1, 0, 1, src, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if v := cD.ToMatrix().Data[0]; v != 3 {
		t.Fatalf("array D = %g, want 3", v)
	}
	if v := cF.ToMatrix().Data[0]; v != 3 {
		t.Fatalf("array F = %g, want 3", v)
	}
	if st := servers[0].Stats(); st.AccDups != 0 {
		t.Fatalf("distinct tokens counted as dups: %+v", st)
	}
	if st := servers[0].Stats(); st.SessionsOpen != 1 {
		t.Fatalf("two arrays opened %d sessions, want 1 shared", st.SessionsOpen)
	}
}

// Admission at the shard: the session table cap and the memory budget
// both reject new Hellos with an explicit error, and Bye frees the
// capacity for the next job.
func TestMultiServerAdmissionAndBye(t *testing.T) {
	g := dist.UniformGrid2D(1, 1, 4, 4)
	need := sessionBytes(g)

	addrs, servers := startMultiFleet(t, 1, 1, 0)
	c1 := dialSession(t, g, addrs, 1, 0)
	if _, err := dialSessionErr(g, addrs, 2, 0); err == nil || !strings.Contains(err.Error(), "session table full") {
		t.Fatalf("over-cap hello: %v, want session table full", err)
	}
	if st := servers[0].Stats(); st.SessionRejects == 0 {
		t.Fatal("session reject not counted")
	}
	if err := c1.Bye(); err != nil {
		t.Fatal(err)
	}
	c2, err := dialSessionErr(g, addrs, 3, 0)
	if err != nil {
		t.Fatalf("post-Bye hello: %v", err)
	}
	c2.Close()

	// Memory budget: room for exactly one 4x4 session.
	addrs2, servers2 := startMultiFleet(t, 1, 0, need+need/2)
	c3 := dialSession(t, g, addrs2, 1, 0)
	if _, err := dialSessionErr(g, addrs2, 2, 0); err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("over-budget hello: %v, want memory budget error", err)
	}
	_ = c3
	if st := servers2[0].Stats(); st.MemUsed != need {
		t.Fatalf("mem accounting %d, want %d", st.MemUsed, need)
	}
}

// fockd's default memory budget refuses a Hello for the largest grid the
// wire admits (2^20 functions per side) with an error status and
// allocates nothing, while an ordinary session still fits.
func TestMultiServerDefaultBudgetRefusesHugeHello(t *testing.T) {
	addrs, servers := startMultiFleet(t, 1, 0, DefaultMemBudgetMB<<20)
	huge := dist.UniformGrid2D(1, 1, 1<<20, 1<<20)
	if _, err := dialSessionErr(huge, addrs, 1, 0); err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("huge hello: %v, want a memory budget refusal", err)
	}
	st := servers[0].Stats()
	if st.MemUsed != 0 || st.SessionsOpen != 0 || st.SessionRejects != 1 {
		t.Fatalf("after the refusal: %d bytes used, %d sessions open, %d rejects; want 0, 0, 1",
			st.MemUsed, st.SessionsOpen, st.SessionRejects)
	}
	c := dialSession(t, dist.UniformGrid2D(1, 1, 64, 64), addrs, 2, 0)
	c.Close()
}

// A killed-and-restarted multi-session shard forgets its sessions:
// in-flight data ops fail deterministically (never silently rebind to
// empty arrays), which is what converts a shard crash into a clean
// job-level retry under a fresh session.
func TestMultiServerKillForgetsSessions(t *testing.T) {
	g := dist.UniformGrid2D(1, 1, 4, 4)
	ms, err := NewMultiServer(1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ms.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialSession(t, g, []string{addr}, 9, 0)
	c.LoadMatrix(linalg.NewMatrix(4, 4))

	ms.Kill()
	ms2, err := NewMultiServer(1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()

	dst := make([]float64, 16)
	_, err = c.GetRetry(context.Background(), 3, time.Millisecond, 0, 0, 4, 0, 4, dst, 4)
	if err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("get against restarted shard: %v, want unknown session", err)
	}
	if _, err := c.AccFencedRetry(context.Background(), time.Millisecond, 0, 0, 0, 1, 0, 1, []float64{1}, 1, 1); err == nil {
		t.Fatal("acc against restarted shard succeeded; must fail deterministically")
	}

	// A fresh session id on the restarted shard works immediately.
	c2 := dialSession(t, g, []string{addr}, 10, 0)
	m := linalg.NewMatrix(4, 4)
	m.Data[5] = 42
	c2.LoadMatrix(m)
	if d := linalg.MaxAbsDiff(c2.ToMatrix(), m); d != 0 {
		t.Fatalf("fresh session after restart off by %g", d)
	}
}

// Checkpoint rotates the per-session dedup generations: a token is
// still deduped one generation later and evicted after two (see
// TestDedupEvictionAtCheckpointOnly for the eviction itself).
func TestMultiServerCheckpointRotation(t *testing.T) {
	addrs, servers := startMultiFleet(t, 1, 0, 0)
	g := dist.UniformGrid2D(1, 1, 2, 2)
	c := dialSession(t, g, addrs, 5, 0)
	c.LoadMatrix(linalg.NewMatrix(2, 2))

	if _, err := c.AccFencedRetry(context.Background(), time.Millisecond, 0, 0, 0, 1, 0, 1, []float64{1}, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := servers[0].Stats()
	if st.AccApplied != 1 {
		t.Fatalf("applied %d accs, want 1", st.AccApplied)
	}
}

// Satellite: deadline-exceeded vs connection-reset RPC failures land in
// separate counters, so an overload report can tell slow shards from
// dying ones.
func TestClassifyFailureCounters(t *testing.T) {
	rpc := &metrics.RPC{}
	classifyFailure(rpc, &timeoutErr{})
	classifyFailure(rpc, fmt.Errorf("wrapped: %w", syscall.ECONNRESET))
	classifyFailure(rpc, io.EOF)
	classifyFailure(rpc, errInjectedReset)
	classifyFailure(rpc, errors.New("unrelated"))
	s := rpc.Snapshot()
	if s.DeadlineExceeded != 1 {
		t.Fatalf("deadline-exceeded = %d, want 1", s.DeadlineExceeded)
	}
	if s.PeerResets != 3 {
		t.Fatalf("peer-resets = %d, want 3", s.PeerResets)
	}
}

type timeoutErr struct{}

func (*timeoutErr) Error() string   { return "i/o timeout" }
func (*timeoutErr) Timeout() bool   { return true }
func (*timeoutErr) Temporary() bool { return true }

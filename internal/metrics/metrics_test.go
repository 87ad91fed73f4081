package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 5, 8, 100, 1000} {
		h.Observe(v)
	}
	if h.N != 8 {
		t.Fatalf("N = %d, want 8", h.N)
	}
	if h.Sum != 1119 {
		t.Fatalf("Sum = %d, want 1119", h.Sum)
	}
	if h.Max != 1000 {
		t.Fatalf("Max = %d, want 1000", h.Max)
	}
	// 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 5 -> 3; 8 -> 4;
	// 100 -> 7; 1000 -> 10.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 1, 4: 1, 7: 1, 10: 1}
	for b, c := range h.Counts {
		if c != want[b] {
			t.Fatalf("bucket %d = %d, want %d", b, c, want[b])
		}
	}
	s := snapshotCounts(h.Counts, h.N, h.Sum, h.Max)
	// 4th of 8 observations sits in bucket 2 ([2,4)): p50 ~ 2*sqrt2/... =
	// geometric midpoint of [2,4) ~ 2.83 -> 2.
	if s.P50 != 2 {
		t.Fatalf("P50 = %d, want 2", s.P50)
	}
	if s.P99 < 512 || s.P99 > 1024 {
		t.Fatalf("P99 = %d, want within bucket [512,1024)", s.P99)
	}
	if s.Mean != 1119.0/8 {
		t.Fatalf("Mean = %v", s.Mean)
	}
}

func TestHistEmptySnapshotIsDefined(t *testing.T) {
	var h histAtomic
	s := h.snapshot()
	if s.Count != 0 || s.Mean != 0 || s.P50 != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

// empty reports whether the sample holds no observations at all.
func (s *Sample) empty() bool { return *s == Sample{} }

func TestRegistryMerge(t *testing.T) {
	r := NewRegistry(2)
	var s Sample
	s.Tasks.Observe(100)
	s.Tasks.Observe(200)
	s.Steals.Observe(5000)
	s.GetCalls, s.GetBytes = 3, 4096
	s.AccCalls, s.AccBytes = 2, 2048
	s.GetRetries, s.AccRetries = 1, 2
	r.Merge(0, &s)

	snap := r.Snapshot()
	if snap.TasksTotal != 2 {
		t.Fatalf("TasksTotal = %d, want 2", snap.TasksTotal)
	}
	if snap.StealsTotal != 1 {
		t.Fatalf("StealsTotal = %d, want 1", snap.StealsTotal)
	}
	if snap.BytesTotal != 4096+2048 {
		t.Fatalf("BytesTotal = %d", snap.BytesTotal)
	}
	w := snap.Workers[0]
	if w.TaskNS.Sum != 300 || w.GetRetries != 1 || w.AccRetries != 2 || w.Commits != 1 {
		t.Fatalf("worker 0 snapshot wrong: %+v", w)
	}
	if snap.Workers[1].Commits != 0 {
		t.Fatal("worker 1 should be untouched")
	}
}

// The ERI dispatch split must merge per rank, total across ranks, and
// produce the general-path fraction; a sample holding only dispatch
// counters must not count as empty (it would be silently droppable).
func TestRegistryQuartetDispatchSplit(t *testing.T) {
	r := NewRegistry(2)
	a := Sample{QuartetsFastSP: 60, QuartetsFastGen: 30, QuartetsGeneral: 0}
	if a.empty() {
		t.Fatal("sample with only dispatch counters reported empty")
	}
	b := Sample{QuartetsFastSP: 0, QuartetsFastGen: 5, QuartetsGeneral: 5}
	r.Merge(0, &a)
	r.Merge(1, &b)
	snap := r.Snapshot()
	if snap.QuartetsFastSP != 60 || snap.QuartetsFastGen != 35 || snap.QuartetsGeneral != 5 {
		t.Fatalf("dispatch totals wrong: %+v", snap)
	}
	if got, want := snap.QuartetsGeneralFrac, 0.05; got != want {
		t.Fatalf("QuartetsGeneralFrac = %v, want %v", got, want)
	}
	if w := snap.Workers[1]; w.QuartetsFastGen != 5 || w.QuartetsGeneral != 5 {
		t.Fatalf("worker 1 dispatch split wrong: %+v", w)
	}
}

func TestRegistryNilIsSafe(t *testing.T) {
	var r *Registry
	var s Sample
	s.Tasks.Observe(1)
	r.Merge(0, &s) // must not panic
	if r.P() != 0 {
		t.Fatal("nil registry P != 0")
	}
	if snap := r.Snapshot(); len(snap.Workers) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	s.Tasks.Observe(1)
	s.GetCalls = 5
	if s.empty() {
		t.Fatal("sample with observations reported empty")
	}
	s.Reset()
	if !s.empty() {
		t.Fatal("Reset did not empty the sample")
	}
}

// Concurrent merges from many "workers" with snapshots racing them — the
// live-expvar read path. Run under -race in CI.
func TestRegistryConcurrentMergeSnapshot(t *testing.T) {
	const workers, episodes = 8, 50
	r := NewRegistry(workers)
	var wg sync.WaitGroup
	for rank := 0; rank < workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				var s Sample
				s.Tasks.Observe(int64(rank*1000 + e))
				s.GetBytes = 8
				r.Merge(rank, &s)
			}
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := r.Snapshot()
	if snap.TasksTotal != workers*episodes {
		t.Fatalf("TasksTotal = %d, want %d", snap.TasksTotal, workers*episodes)
	}
	if snap.BytesTotal != workers*episodes*8 {
		t.Fatalf("BytesTotal = %d", snap.BytesTotal)
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry(1)
	var s Sample
	s.Tasks.Observe(1500)
	r.Merge(0, &s)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.TasksTotal != 1 || back.Workers[0].TaskNS.Max != 1500 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, ok := back.Workers[0].TaskNS.Buckets["2048"]; !ok {
		t.Fatalf("1500 should land in bucket 2048: %v", back.Workers[0].TaskNS.Buckets)
	}
}

func TestRPCCounters(t *testing.T) {
	var c RPC
	for i := 0; i < 4; i++ {
		c.ObserveCall(int64(1000 * (i + 1)))
	}
	c.AddRetry()
	c.AddRetry()
	c.AddFailure()
	c.AddDial()
	c.AddReconnect()
	c.AddReset()
	c.AddDupSend()
	c.AddPartitioned()
	snap := c.Snapshot()
	if snap.Calls != 4 || snap.LatencyNS.Count != 4 || snap.LatencyNS.Max != 4000 {
		t.Fatalf("calls/latency wrong: %+v", snap)
	}
	if snap.Retries != 2 || snap.Failures != 1 || snap.Dials != 1 ||
		snap.Reconnects != 1 || snap.Resets != 1 || snap.DupSends != 1 || snap.Partitioned != 1 {
		t.Fatalf("counter snapshot wrong: %+v", snap)
	}
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RPCSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Calls != 4 || back.Retries != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// Nil-receiver calls must be safe: the client runs without metrics.
func TestRPCNilSafe(t *testing.T) {
	var c *RPC
	c.ObserveCall(1)
	c.AddRetry()
	c.AddFailure()
	c.AddDial()
	c.AddReconnect()
	c.AddReset()
	c.AddDupSend()
	c.AddPartitioned()
	if snap := c.Snapshot(); snap.Calls != 0 {
		t.Fatalf("nil snapshot not zero: %+v", snap)
	}
}

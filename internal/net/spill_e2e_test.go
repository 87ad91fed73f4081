package netga_test

import (
	"testing"
	"time"

	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	netga "gtfock/internal/net"
)

// The spill leg of the stored-ERI cache over the real transport: with a
// resident budget far below the working set, the recording build parks
// value batches on the shard servers as blobs, and the replay build
// fetches them back — matching the serial oracle to the same tolerance
// as every other net-backed build. Servers persist across both builds
// (per-build array clients close; blobs are session-scoped, not
// client-scoped).
func TestSpillE2EReplayMatchesSerial(t *testing.T) {
	bs, scr, d := netSetup(t)
	ref := core.BuildSerial(bs, scr, d)
	const session = 31
	grid := core.Grid(bs, 2, 2)
	assign, _ := netga.SplitProcs(grid.NumProcs(), 2)
	servers, addrs := startShards(t, 2)
	// One persistent pair of array clients across both builds: a fresh
	// client restarts its Acc-token counter, and on an already-installed
	// session the servers' exactly-once dedup would discard the second
	// build's accumulates as replays of the first.
	gaD, err := netga.Dial(grid, dist.NewRunStats(grid.NumProcs()), addrs, assign,
		netga.Config{Array: 0, Session: session})
	if err != nil {
		t.Fatalf("dial D: %v", err)
	}
	defer gaD.Close()
	gaF, err := netga.Dial(grid, dist.NewRunStats(grid.NumProcs()), addrs, assign,
		netga.Config{Array: 1, Session: session})
	if err != nil {
		t.Fatalf("dial F: %v", err)
	}
	defer gaF.Close()
	factory := func(g *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
		return gaD, gaF, nil, nil
	}

	// Dedicated blob client for the spill legs, same session as the
	// builds so the blobs live alongside the arrays.
	bc, err := netga.Dial(grid, dist.NewRunStats(grid.NumProcs()), addrs, assign,
		netga.Config{Array: 0, Session: session})
	if err != nil {
		t.Fatalf("dial blob client: %v", err)
	}
	defer bc.Close()

	// 4 KiB budget: a handful of tasks stay resident, the rest spill.
	store := integrals.NewERIStore(bs.NumShells(), 4096, bc, session, nil)
	opt := core.Options{
		Prow: 2, Pcol: 2,
		Backend:      factory,
		ERIStore:     store,
		LeaseTTL:     500 * time.Millisecond,
		MonitorEvery: 20 * time.Millisecond,
	}
	for build := 1; build <= 2; build++ {
		res := buildDeadline(t, 2*time.Minute, func() core.Result {
			return core.Build(bs, scr, d, opt)
		})
		if res.Err != nil {
			t.Fatalf("build %d: %v", build, res.Err)
		}
		if diff := linalg.MaxAbsDiff(ref, res.G); diff > 1e-9 {
			t.Fatalf("build %d: |G - serial| = %g", build, diff)
		}
	}
	st := store.Stats()
	if st.Spills == 0 || st.SpillFetches == 0 {
		t.Fatalf("spill path not exercised: %+v", st)
	}
	if st.SpillMisses != 0 || st.Dropped != 0 {
		t.Fatalf("spill legs lost: %+v", st)
	}
	if st.TaskHits == 0 || st.TaskMisses == 0 {
		t.Fatalf("record/replay pattern missing: %+v", st)
	}
	// Every spilled byte is resident on the servers, charged on top of
	// the session's D and F arrays.
	var blobBytes int64
	for _, s := range servers {
		blobBytes += s.Stats().MemUsed - int64(2*8*grid.Rows*grid.Cols)
	}
	if blobBytes != st.SpillBytes {
		t.Fatalf("servers hold %d blob bytes, store spilled %d", blobBytes, st.SpillBytes)
	}
}

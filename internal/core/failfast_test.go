package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/metrics"
)

var errLinkDown = errors.New("link down")

// flakyBackend is an external backend whose error-returning ops fail
// for one rank (bad; -1 for none), as a transport that lost that rank's
// peer past its retry budget would. calls counts those ops per rank.
type flakyBackend struct {
	*dist.GlobalArray
	bad   int
	calls []atomic.Int64
}

func newFlaky(grid *dist.Grid2D, stats *dist.RunStats, bad int) *flakyBackend {
	return &flakyBackend{GlobalArray: dist.NewGlobalArray(grid, stats), bad: bad,
		calls: make([]atomic.Int64, grid.NumProcs())}
}

func (b *flakyBackend) GetRetry(ctx context.Context, attempts int, backoff time.Duration, proc, r0, r1, c0, c1 int, dst []float64, ld int) (int, error) {
	b.calls[proc].Add(1)
	if proc == b.bad {
		return 0, errLinkDown
	}
	return b.GlobalArray.GetRetry(ctx, attempts, backoff, proc, r0, r1, c0, c1, dst, ld)
}

func (b *flakyBackend) AccFencedRetry(ctx context.Context, backoff time.Duration, proc int, epoch int64, r0, r1, c0, c1 int, src []float64, ld int, alpha float64) (int, error) {
	b.calls[proc].Add(1)
	if proc == b.bad {
		return 0, errLinkDown
	}
	return b.GlobalArray.AccFencedRetry(ctx, backoff, proc, epoch, r0, r1, c0, c1, src, ld, alpha)
}

// A build fails fast: the first operation that fails past the backend's
// retry budget ends the build with Result.Err carrying the cause. No
// task runs twice, the failing rank issues its failing op once (no
// second pass), and no other rank takes its work over.
func TestBuildFailsFast(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ns := int64(bs.NumShells())
	const bad = 1
	for _, tc := range []struct {
		name   string
		failOn string // "D": prefetch Get fails; "F": flush Acc fails
	}{{"get", "D"}, {"acc", "F"}} {
		t.Run(tc.name, func(t *testing.T) {
			var failing *flakyBackend
			factory := func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
				gd := newFlaky(grid, dist.NewRunStats(grid.NumProcs()), -1)
				gf := newFlaky(grid, stats, -1)
				failing = map[string]*flakyBackend{"D": gd, "F": gf}[tc.failOn]
				failing.bad = bad
				return gd, gf, nil, nil
			}
			reg := metrics.NewRegistry(4)
			res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2, Backend: factory, Metrics: reg})
			if !errors.Is(res.Err, errLinkDown) {
				t.Fatalf("Result.Err = %v, want the backend's cause", res.Err)
			}
			if res.G != nil {
				t.Fatal("failed build returned a G")
			}
			if got := failing.calls[bad].Load(); got != 1 {
				t.Fatalf("failing rank issued its failing op %d times, want 1 (no second pass)", got)
			}
			var ran int64
			for _, p := range res.Stats.Per {
				ran += p.TasksRun
			}
			if ran > ns*ns {
				t.Fatalf("%d task executions for %d tasks: some task ran twice", ran, ns*ns)
			}
			if tc.failOn == "D" && (res.Stats.Per[bad].TasksRun != 0 || ran == ns*ns) {
				t.Fatalf("failing rank ran %d tasks, %d of %d ran in all: its work was taken over",
					res.Stats.Per[bad].TasksRun, ran, ns*ns)
			}
			// The failed rank's sample is never merged.
			if c := reg.Snapshot().Workers[bad].Commits; c != 0 {
				t.Fatalf("failed rank merged %d samples", c)
			}
		})
	}
}

func TestQueueRemainingExcludesConsumedFrontRow(t *testing.T) {
	q := NewQueue(TaskBlock{R0: 0, R1: 2, C0: 0, C1: 3})
	want := []int{6, 5, 4, 3, 2, 1, 0}
	if got := q.Remaining(); got != want[0] {
		t.Fatalf("fresh queue Remaining = %d, want %d", got, want[0])
	}
	for i := 1; i < len(want); i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
		if got := q.Remaining(); got != want[i] {
			t.Fatalf("after %d pops Remaining = %d, want %d", i, got, want[i])
		}
	}
}

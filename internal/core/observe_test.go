package core

import (
	"strings"
	"testing"
	"time"

	"gtfock/internal/chem"
	"gtfock/internal/dist"
	"gtfock/internal/fault"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

// A traced, metered fault-free build must produce the same G and a
// registry that accounts for every task exactly once: the static
// partition covers all ns x ns (M,N) pairs.
func TestObservedBuildMatchesSerialAndCountsTasks(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	tr := &dist.Trace{}
	reg := metrics.NewRegistry(4)
	res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2, Trace: tr, Metrics: reg})
	if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-10 {
		t.Fatalf("observed build diverged from serial: %g", err)
	}

	snap := reg.Snapshot()
	if snap.TasksTotal != ns*ns {
		t.Fatalf("TasksTotal = %d, want %d (= ns^2)", snap.TasksTotal, ns*ns)
	}
	if snap.DiscardedSamples != 0 || snap.DroppedObs != 0 {
		t.Fatalf("fault-free run discarded samples: %+v", snap)
	}
	if snap.BytesTotal == 0 {
		t.Fatal("no Get/Acc traffic recorded")
	}
	for _, w := range snap.Workers {
		if w.Commits == 0 {
			t.Fatalf("rank %d never committed a sample", w.Rank)
		}
		if w.GetCalls == 0 || w.AccCalls == 0 {
			t.Fatalf("rank %d has no one-sided call counts: %+v", w.Rank, w)
		}
	}

	tot := tr.KindTotals()
	if tot[byte(dist.SpanCompute)] <= 0 {
		t.Fatalf("no compute time traced: %v", tot)
	}
	if tot[byte(dist.SpanFlush)] <= 0 || tot[byte(dist.SpanPrefetch)] <= 0 {
		t.Fatalf("flush/prefetch spans missing: %v", tot)
	}
	if n, _ := tr.DiscardedTotal(); n != 0 {
		t.Fatalf("fault-free run has %d discarded spans", n)
	}
	if out := tr.Timeline(60, 4); !strings.Contains(out, "c") {
		t.Fatalf("timeline has no compute cells:\n%s", out)
	}
	// Trace-declared makespan cannot exceed the measured wall time.
	if ms := tr.Makespan(); ms > res.Wall.Seconds()+0.05 {
		t.Fatalf("trace makespan %v exceeds wall %v", ms, res.Wall)
	}
}

// A metered build on a d-bearing basis must surface the ERI dispatch
// split: every quartet served by a generated kernel (s/p and
// d-bearing both counted), none by the general path.
func TestObservedBuildReportsDispatchSplit(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Methane(), "cc-pvdz")
	reg := metrics.NewRegistry(4)
	res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2, Metrics: reg})
	ref := BuildSerial(bs, scr, d)
	if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-10 {
		t.Fatalf("cc-pVDZ build diverged from serial: %g", err)
	}
	snap := reg.Snapshot()
	if snap.QuartetsFastSP == 0 || snap.QuartetsFastGen == 0 {
		t.Fatalf("dispatch split not recorded: %+v", snap)
	}
	if snap.QuartetsGeneral != 0 || snap.QuartetsGeneralFrac != 0 {
		t.Fatalf("cc-pVDZ quartets leaked to the general path: %+v", snap)
	}
}

// Satellite (d): chaos runs with tracing and metrics attached. Recovered
// G must still match the serial oracle; fenced incarnations' spans must
// be marked discarded rather than silently counted; and the metric
// registry must hold exactly ns^2 committed task executions — work done
// by fenced workers is dropped (DiscardedSamples) and re-executed, never
// double-counted.
func TestChaosTracedRecoveryExactlyOnceMetrics(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	ref := BuildSerial(bs, scr, d)
	ns := int64(bs.NumShells())

	mix := fault.Config{
		CrashBeforeFlush: 0.4,
		CrashAfterFlush:  0.1,
		StallProb:        0.03,
		StallFor:         50 * time.Millisecond,
		DropProb:         0.15,
	}
	var fencedRuns, discardedSpans, discardedSamples int64
	for seed := int64(0); seed < 6; seed++ {
		mix.Seed = 7000 + seed
		tr := &dist.Trace{}
		reg := metrics.NewRegistry(4)
		res := buildDeadline(t, 60*time.Second, func() Result {
			return Build(bs, scr, d, Options{
				Prow: 2, Pcol: 2,
				Fault:        fault.New(mix),
				LeaseTTL:     15 * time.Millisecond,
				MonitorEvery: 3 * time.Millisecond,
				Trace:        tr,
				Metrics:      reg,
			})
		})
		if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
			t.Fatalf("seed %d: |G - serial| = %g", mix.Seed, err)
		}
		snap := reg.Snapshot()
		if snap.TasksTotal != ns*ns {
			t.Fatalf("seed %d: committed TasksTotal = %d, want exactly %d (%d samples discarded)",
				mix.Seed, snap.TasksTotal, ns*ns, snap.DiscardedSamples)
		}
		rec := &res.Stats.Recovery
		nDisc, sDisc := tr.DiscardedTotal()
		if rec.WorkersFenced > 0 {
			fencedRuns++
			if snap.DiscardedSamples == 0 && nDisc == 0 {
				t.Fatalf("seed %d: %d workers fenced but nothing discarded in trace or metrics",
					mix.Seed, rec.WorkersFenced)
			}
		}
		if nDisc > 0 && sDisc <= 0 {
			t.Fatalf("seed %d: %d discarded spans with no duration", mix.Seed, nDisc)
		}
		discardedSpans += int64(nDisc)
		discardedSamples += snap.DiscardedSamples
	}
	if fencedRuns == 0 {
		t.Fatal("chaos mix never fenced a worker; the discard path was not exercised")
	}
	if discardedSpans == 0 {
		t.Fatal("no trace spans were ever discarded across the sweep")
	}
	if discardedSamples == 0 {
		t.Fatal("no metric samples were ever discarded across the sweep")
	}
	t.Logf("traced chaos sweep: %d fenced runs, %d discarded spans, %d discarded samples",
		fencedRuns, discardedSpans, discardedSamples)
}

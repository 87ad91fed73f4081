package core

import (
	"strings"
	"testing"

	"gtfock/internal/chem"
	"gtfock/internal/dist"
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

package core

import (
	"testing"

	"gtfock/internal/chem"
	"gtfock/internal/integrals"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
)

// A store-enabled build sequence — build 1 records, builds 2..N replay —
// must match the serial oracle on every build, with every task replayed
// from the store after the recording pass. Covered for s/p shells and a
// d-shell basis.
func TestStoreReplayMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name, bname string
		mol         func() *chem.Molecule
	}{
		{"alkane-sto3g", "sto-3g", func() *chem.Molecule { return chem.Alkane(2) }},
		{"h2-ccpvdz", "cc-pvdz", func() *chem.Molecule { return chem.Hydrogen2(0.9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs, scr, d := buildSetup(t, tc.mol(), tc.bname)
			ref := BuildSerial(bs, scr, d)
			ns := bs.NumShells()
			store := integrals.NewERIStore(ns, 0, nil, 1, nil)
			for build := 1; build <= 3; build++ {
				reg := metrics.NewRegistry(4)
				res := Build(bs, scr, d, Options{Prow: 2, Pcol: 2, ERIStore: store, Metrics: reg})
				if res.Err != nil {
					t.Fatalf("build %d: %v", build, res.Err)
				}
				if err := linalg.MaxAbsDiff(ref, res.G); err > 1e-9 {
					t.Fatalf("build %d: |G - serial| = %g", build, err)
				}
				// Recorded and replayed tasks alike are counted once.
				if got := reg.Snapshot().TasksTotal; got != int64(ns*ns) {
					t.Fatalf("build %d: tasks_total = %d, want ns^2 = %d", build, got, ns*ns)
				}
			}
			// One miss per symmetry-surviving task on build 1, then every
			// task hits on builds 2 and 3.
			survivors := 0
			for m := 0; m < ns; m++ {
				for n := 0; n < ns; n++ {
					if SymmetryCheck(m, n) {
						survivors++
					}
				}
			}
			st := store.Stats()
			if st.TaskMisses != int64(survivors) || st.TaskHits != 2*int64(survivors) {
				t.Fatalf("hits/misses = %d/%d, want %d/%d", st.TaskHits, st.TaskMisses,
					2*survivors, survivors)
			}
			if st.QuartetsStored == 0 || st.QuartetsReplayed != 2*st.QuartetsStored {
				t.Fatalf("stored %d quartets, replayed %d", st.QuartetsStored, st.QuartetsReplayed)
			}
		})
	}
}

// The replay path must apply the density screen identically to the
// record path: with density bounds installed, a replayed build and a
// freshly recorded build (both apply-time screened) produce the same G.
func TestStoreReplayDensityScreenConsistent(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	pt := scr.PairTable(0)
	pt.UpdateDensity(d.Data, d.Cols)
	ns := bs.NumShells()

	// Recorded then replayed, single process so accumulation order is
	// deterministic and the comparison can be exact.
	store := integrals.NewERIStore(ns, 0, nil, 1, nil)
	opt := Options{Prow: 1, Pcol: 1, PairTable: pt, DensityScreen: true, ERIStore: store}
	rec := Build(bs, scr, d, opt)
	rep := Build(bs, scr, d, opt)
	if rec.Err != nil || rep.Err != nil {
		t.Fatalf("build errors: %v / %v", rec.Err, rep.Err)
	}
	if err := linalg.MaxAbsDiff(rec.G, rep.G); err != 0 {
		t.Fatalf("replayed screened G differs from recorded: %g", err)
	}
	// And both stay within screening tolerance of the oracle.
	ref := BuildSerial(bs, scr, d)
	if err := linalg.MaxAbsDiff(ref, rep.G); err > 1e-7 {
		t.Fatalf("screened replay |G - serial| = %g", err)
	}
	if st := store.Stats(); st.TaskHits == 0 {
		t.Fatalf("no replay hits: %+v", st)
	}
}

// A store sized for a different geometry must be rejected up front, not
// silently produce wrong task keys.
func TestStoreSizeMismatchRejected(t *testing.T) {
	bs, scr, d := buildSetup(t, chem.Alkane(2), "sto-3g")
	store := integrals.NewERIStore(bs.NumShells()+1, 0, nil, 1, nil)
	res := Build(bs, scr, d, Options{Prow: 1, Pcol: 1, ERIStore: store})
	if res.Err == nil {
		t.Fatal("mismatched store accepted")
	}
}

package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"gtfock/internal/basis"
	"gtfock/internal/chem"
	"gtfock/internal/core"
	"gtfock/internal/dist"
	"gtfock/internal/linalg"
	"gtfock/internal/metrics"
	"gtfock/internal/scf"
	"gtfock/internal/screen"
)

var regen = flag.Bool("regen", false, "recompute every reference energy with the serial oracle and rewrite refs.json")

func testConfig(t *testing.T) config {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 1, seconds: time.Second, traced: true, dir: t.TempDir(), refs: refs}
}

// refCases are every system a workload solves.
var refCases = [][2]string{
	{"H2", "sto-3g"}, {"CH4", "sto-3g"}, {"alkane:2", "sto-3g"},
	{"alkane:8", "sto-3g"}, {"alkane:3", "cc-pvdz"},
}

// TestReferences recomputes the small systems' references with the
// serial oracle (all of them with -regen, which rewrites refs.json).
func TestReferences(t *testing.T) {
	cfg := testConfig(t)
	out := map[string]float64{}
	for _, c := range refCases {
		if !*regen && c[0] != "H2" && c[0] != "CH4" && c[0] != "alkane:2" {
			continue
		}
		mol, err := chem.ParseSpec(c[0])
		if err != nil {
			t.Fatal(err)
		}
		res, err := scf.RunHF(mol, scf.Options{BasisName: c[1], Engine: scf.EngineSerial, ConvTol: convTol})
		if err != nil || !res.Converged {
			t.Fatalf("%s/%s: serial oracle failed: %v", c[0], c[1], err)
		}
		out[refKey(c[0], c[1])] = res.Energy
		if got, ok := cfg.refs[refKey(c[0], c[1])]; !*regen && (!ok || math.Abs(got-res.Energy) > 1e-10) {
			t.Errorf("%s/%s: refs.json has %.12f, serial oracle gives %.12f", c[0], c[1], got, res.Energy)
		}
	}
	if *regen {
		b, err := json.MarshalIndent(map[string]any{"conv_tol": convTol, "energies": out}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("refs.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIterationPhasesSumToGap checks the SCF accounting of a traced
// solve submitted, as scf-replay-net submits it, to the job server and
// run over loopback shards with the cache on: each iteration's Fock,
// density and checkpoint time fit inside its OnIteration gap, the build
// interval timed at core.Build's boundary agrees with Iteration.FockTime,
// set-up plus the iterations account for the RunHF wall, and the job's
// phases tile its latency around that wall.
func TestIterationPhasesSumToGap(t *testing.T) {
	cfg := testConfig(t)
	c := scfCase{name: "test", mol: "alkane:2", basis: "sto-3g", net: true}
	env, closeFn, err := setupSCF(c, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	tr := newTracer()
	out, jo := env.op(tr, 1)
	if out.err != nil {
		t.Fatal(out.err)
	}
	o := out.obs
	if len(o.builds) != o.iters || o.iters < 3 {
		t.Fatalf("%d builds for %d iterations", len(o.builds), o.iters)
	}
	const slack = time.Millisecond
	var accounted time.Duration
	for k, b := range o.builds {
		if d := b.end.Sub(b.start) - b.fock; d > slack || d < -slack {
			t.Errorf("iteration %d: core.Build interval %v, FockTime %v", k+1, b.end.Sub(b.start), b.fock)
		}
		if k == 0 {
			accounted += b.end.Sub(b.start.Add(-b.density))
			continue
		}
		other := b.gap - b.fock - b.density
		if other < o.ckpt[k] {
			t.Errorf("iteration %d: gap %v < fock %v + density %v + checkpoint %v", k+1, b.gap, b.fock, b.density, o.ckpt[k])
		}
		accounted += b.gap
	}
	// The rest of the wall is set-up, iteration 1's energy and checkpoint,
	// and the final orbitals: small against the iterations.
	if o.setup < 0 || accounted+o.setup > o.run {
		t.Fatalf("set-up %v + iterations %v exceed the RunHF wall %v", o.setup, accounted, o.run)
	}
	if rest := o.run - accounted - o.setup; rest > o.run/5 {
		t.Errorf("%v of the %v RunHF wall is outside set-up and iterations", rest, o.run)
	}
	submit, queue, run, delivery, ok := phases(jo)
	if !ok {
		t.Fatal("incomplete job events")
	}
	if d := submit + queue + run + delivery - o.wall; d > slack || d < -slack {
		t.Errorf("job phases sum to %v, latency %v", submit+queue+run+delivery, o.wall)
	}
	if o.run > run+slack || o.wall < o.run {
		t.Errorf("RunHF wall %v outside the run phase %v / latency %v", o.run, run, o.wall)
	}
}

// TestJobPhasesSumToLatency checks the service accounting: submit, queue
// wait, run and delivery tile each job's latency, and the job's
// Runner.Run calls fit inside its run phase.
func TestJobPhasesSumToLatency(t *testing.T) {
	cfg := testConfig(t)
	s, closeFn, err := startService(cfg, 1, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	specs := genSpecs(3, 12)
	var mu sync.Mutex
	var jobs []*jobObs
	var wg sync.WaitGroup
	for w := 0; w < serviceSubmitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += serviceSubmitters {
				jo := s.submitWait(specs[i])
				mu.Lock()
				jobs = append(jobs, jo)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	closeFn()
	for _, jo := range jobs {
		if jo.err != nil {
			t.Fatal(jo.err)
		}
		submit, queue, run, delivery, ok := phases(jo)
		if !ok {
			t.Fatalf("job %s: incomplete events", jo.id)
		}
		for _, d := range []time.Duration{submit, queue, run, delivery} {
			if d < 0 {
				t.Errorf("job %s: negative phase in %v %v %v %v", jo.id, submit, queue, run, delivery)
			}
		}
		lat := jo.t2.Sub(jo.t0)
		if d := submit + queue + run + delivery - lat; d > time.Millisecond || d < -time.Millisecond {
			t.Errorf("job %s: phases sum to %v, latency %v", jo.id, submit+queue+run+delivery, lat)
		}
		var inRunner time.Duration
		for _, r := range jo.runs {
			inRunner += r.end.Sub(r.start)
		}
		if len(jo.runs) == 0 || inRunner > run+time.Millisecond {
			t.Errorf("job %s: %d runner calls take %v of a %v run phase", jo.id, len(jo.runs), inRunner, run)
		}
	}
}

// TestTimedBackendBuildMatchesSerial checks that the timing wrapper
// changes nothing a build computes.
func TestTimedBackendBuildMatchesSerial(t *testing.T) {
	bs, err := basis.Build(chem.Alkane(2), "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	scr := screen.Compute(bs, screen.DefaultTau)
	n := bs.NumFuncs
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := 0.1 / float64(1+i+j)
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	tr := newTracer()
	reg := metrics.NewRegistry(prow * pcol)
	inProc := func(grid *dist.Grid2D, stats *dist.RunStats) (dist.Backend, dist.Backend, func(), error) {
		return dist.NewGlobalArray(grid, dist.NewRunStats(grid.NumProcs())), dist.NewGlobalArray(grid, stats), nil, nil
	}
	ended := false
	r := core.Build(bs, scr, d, core.Options{Prow: prow, Pcol: pcol, Metrics: reg,
		Backend: timeBackends(inProc, tr, 1, 0, func() { ended = true })})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if diff := linalg.MaxAbsDiff(r.G, core.BuildSerial(bs, scr, d)); diff > 1e-9 {
		t.Errorf("|G - serial| = %g", diff)
	}
	ns := int64(bs.NumShells())
	if got := reg.Snapshot().TasksTotal; got != ns*ns {
		t.Errorf("tasks = %d, want ns² = %d", got, ns*ns)
	}
	var ops int
	var bytes int64
	for _, name := range backendOps {
		for _, s := range tr.named(name, nil) {
			ops++
			bytes += s.Bytes
		}
	}
	if ops == 0 || bytes == 0 || !ended {
		t.Errorf("wrapper recorded %d ops, %d bytes, end seen %v", ops, bytes, ended)
	}
}

// TestSpecsFollowSeed checks the service traffic is a function of the
// seed and follows the 1:2:1 mix.
func TestSpecsFollowSeed(t *testing.T) {
	a, b, c := genSpecs(5, 4000), genSpecs(5, 4000), genSpecs(6, 4000)
	count := map[string]int{}
	differ := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs for the same seed", i)
		}
		differ = differ || a[i] != c[i]
		count[a[i].Molecule]++
	}
	if !differ {
		t.Error("seeds 5 and 6 give the same specs")
	}
	for _, m := range serviceMix {
		if want := 1000 * m.weight; math.Abs(float64(count[m.mol]-want)) > 0.1*float64(want) {
			t.Errorf("%s: %d of 4000 specs, want about %d", m.mol, count[m.mol], want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

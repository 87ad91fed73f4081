// Command perfbench is the repository's layered benchmark. One run
// executes one workload for a fixed time and prints, as the last line of
// standard output, one JSON object with the correctness verdict, the
// operation counts and the metrics:
//
//	go run . --workload scf-direct --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the metrics are the end-to-end set, measured with no
// instrumentation beyond wall clocks. With --trace 1 the run alternates
// untraced and traced operations and reports the per-layer set, taken
// from spans the benchmark records around calls into each module's
// public API and from the modules' own sinks (dist.Trace,
// metrics.Registry, metrics.RPC, metrics.Cache, metrics.Serve).
//
// Every operation is checked: each solve or job must converge to within
// 1e-9 Hartree of the serial-oracle reference in refs.json, and traced
// builds must run exactly ns² tasks (and, when replaying stored
// integrals, hit the store on every task). Any failure makes the run
// exit nonzero after printing its result.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// energyTol is the largest accepted distance from the reference energy.
const energyTol = 1e-9

// convTol is every workload's SCF energy convergence threshold: the
// stopping rule ΔE < tol pins the energy only to about tol/10, so 1e-10
// keeps the 1e-9 reference check from failing by chance.
const convTol = 1e-10

type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics a trace-0 run prints; their bounds live in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"scf_s", "s", "lower"},
	{"scf_iter_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_latency_p50_ms", "ms", "lower"},
	{"job_latency_p90_ms", "ms", "lower"},
	{"ops_ok_frac", "frac", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the metrics a trace-1 run prints, by module. A metric a
// workload does not exercise reads 0 (no serve layer in the SCF
// workloads, no stored integrals without the cache).
var perLayer = []metricDef{
	{"integrals.quartets", "count", "lower"},
	{"integrals.general_frac", "frac", "lower"},
	{"integrals.compute_ms", "ms", "lower"},
	{"integrals.ns_per_quartet", "ns", "lower"},
	{"integrals.eri_ns.ss_ss", "ns", "lower"},
	{"integrals.eri_ns.pp_pp", "ns", "lower"},
	{"integrals.eri_ns.ds_ss", "ns", "lower"},
	{"integrals.eri_ns.pd_ps", "ns", "lower"},
	{"integrals.eri_ns.dd_dd", "ns", "lower"},
	{"integrals.batch_ns", "ns", "lower"},
	{"integrals.allocs_per_op", "count", "lower"},
	{"integrals.store_hit_rate", "frac", "higher"},
	{"integrals.store_mb", "MB", "lower"},
	{"integrals.replayed_quartets", "count", "higher"},
	{"screen.setup_ms", "ms", "lower"},
	{"screen.kept_frac", "frac", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"core.tasks", "count", "higher"},
	{"core.load_balance", "ratio", "lower"},
	{"core.steals", "count", "lower"},
	{"core.steal_ms", "ms", "lower"},
	{"core.idle_ms", "ms", "lower"},
	{"core.prefetch_ms", "ms", "lower"},
	{"core.flush_ms", "ms", "lower"},
	{"dist.calls_per_proc", "count", "lower"},
	{"dist.mb_per_proc", "MB", "lower"},
	{"net.rpc_calls", "count", "lower"},
	{"net.rpc_mb", "MB", "lower"},
	{"net.rpc_us_p50", "us", "lower"},
	{"net.rpc_us_p90", "us", "lower"},
	{"net.wait_frac", "frac", "lower"},
	{"net.retries", "count", "lower"},
	{"net.dials", "count", "lower"},
	{"net.session_checkpoint_ms", "ms", "lower"},
	{"scf.iterations", "count", "lower"},
	{"scf.density_ms", "ms", "lower"},
	{"scf.other_ms", "ms", "lower"},
	{"scf.setup_ms", "ms", "lower"},
	{"serve.submit_us_p50", "us", "lower"},
	{"serve.submit_us_p90", "us", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p90", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.run_ms_p90", "ms", "lower"},
	{"serve.parks", "per_job", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"share.integrals", "frac", "lower"},
	{"share.core", "frac", "lower"},
	{"share.net", "frac", "lower"},
	{"share.scf", "frac", "lower"},
	{"share.serve", "frac", "lower"},
	{"ops_failed_frac", "frac", "lower"},
	{"trace_overhead_frac", "frac", "lower"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // private scratch directory, removed after the run
	refs    map[string]float64
}

// report accumulates one run's operation outcomes and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// op counts one attempted operation; a non-nil err marks it failed and
// is reported on standard error.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// fail marks an already counted operation failed, for a check made after
// the operation was counted.
func (r *report) fail(err error) {
	r.failed++
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
}

// checkEnergy is the per-operation correctness rule.
func checkEnergy(what string, converged bool, e, ref float64) error {
	if !converged {
		return fmt.Errorf("%s: not converged", what)
	}
	if d := math.Abs(e - ref); !(d <= energyTol) {
		return fmt.Errorf("%s: energy %.12f is %.3g from the reference %.12f", what, e, d, ref)
	}
	return nil
}

//go:embed refs.json
var refsJSON []byte

// loadRefs parses the serial-oracle reference energies, keyed
// "molecule/basis".
func loadRefs() (map[string]float64, error) {
	var f struct {
		ConvTol  float64            `json:"conv_tol"`
		Energies map[string]float64 `json:"energies"`
	}
	if err := json.Unmarshal(refsJSON, &f); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if f.ConvTol != convTol {
		return nil, fmt.Errorf("refs.json was made at conv_tol %g, workloads use %g", f.ConvTol, convTol)
	}
	return f.Energies, nil
}

func refKey(mol, basis string) string { return mol + "/" + basis }

func ref(refs map[string]float64, mol, basis string) (float64, error) {
	e, ok := refs[refKey(mol, basis)]
	if !ok {
		return 0, fmt.Errorf("refs.json has no reference for %s", refKey(mol, basis))
	}
	return e, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// setups is how many times a run brings its workload up.
const setups = 5

// setupRepeated brings a workload up n times, tearing all but the last
// instance down, and returns the last one with the median set-up time in
// seconds: one set-up is too short and too noisy to compare alone.
func setupRepeated[T any](n int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var zero T
	times := make([]float64, 0, n)
	for i := 0; ; i++ {
		t0 := time.Now()
		env, closeFn, err := setup()
		if err != nil {
			return zero, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return env, closeFn, median(times), nil
		}
		closeFn()
	}
}

var workloads = map[string]func(config) (*report, error){
	"scf-direct":     runSCFDirect,
	"scf-replay-net": runSCFReplayNet,
	"service-closed": runServiceClosed,
}

func main() {
	workload := flag.String("workload", "", "scf-direct, scf-replay-net or service-closed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "measurement time; operations start until it has passed")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".", "directory for checkpoints and the trace file")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: --workload %q --seconds %d --trace %d\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fatal(err)
	}
	refs, err := loadRefs()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, dir: dir, refs: refs}
	rep, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		rep.set("ops_failed_frac", frac(float64(rep.failed), float64(rep.attempted)))
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			fatal(err)
		}
		rep.set("peak_rss_mb", rss)
		rep.set("ops_ok_frac", 1-frac(float64(rep.failed), float64(rep.attempted)))
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("%s: metric %s not measured (%v)", *workload, d.Name, v))
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if rep.attempted < 1 {
		fatal(fmt.Errorf("%s: no operation attempted", *workload))
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg config, workload string) string {
	return filepath.Join(filepath.Dir(cfg.dir), "trace-"+workload+".json")
}

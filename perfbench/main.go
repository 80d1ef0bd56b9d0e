// Command perfbench is the repository's benchmark of record. It drives the
// NASH load-balancing system in-process through its public entry points —
// the serving gateway and backends, the class-aggregated solver, the fleet
// wire codec, the dense solver and the paper's simulator — on one of four
// workloads, checks every output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics and the tracing overhead).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload gw_forward --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit and the number of samples
// behind it (1 for a single measurement or a count).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// report is what a workload or one of its phases hands back: operation
// counts, the end-to-end metrics of its timed phase, per-layer metrics
// (a traced phase's, or an untraced phase's latency tail), and the
// correctness problems found. Any problem fails the workload.
type report struct {
	attempted, failed int
	e2e               []metric
	layer             []metric
	problems          []string
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// phases runs the timed phase: once for the full length, or in trace mode
// once untraced and once traced for half the length each, so the traced
// run can report each end-to-end metric's tracing overhead as traced minus
// untraced. It returns the reports of the phases run.
func phases(cfg config, run func(seconds float64, tr *tracer) (*report, error)) (untraced, traced *report, tr *tracer, err error) {
	if !cfg.trace {
		untraced, err = run(cfg.seconds, newTracer(false))
		return untraced, nil, nil, err
	}
	if untraced, err = run(cfg.seconds/2, newTracer(false)); err != nil {
		return nil, nil, nil, err
	}
	tr = newTracer(true)
	traced, err = run(cfg.seconds/2, tr)
	return untraced, traced, tr, err
}

// finish assembles a traced run's per-layer metrics: the traced phase's,
// the untraced phase's latency tail, the workload's extras, and each
// timed-phase metric's tracing overhead (traced minus untraced). It then
// writes the spans out.
func finish(cfg config, rep, untraced, traced *report, tr *tracer, extra ...metric) error {
	rep.layer = append(append(traced.layer, untraced.layer...), extra...)
	for i, m := range traced.e2e {
		rep.layer = append(rep.layer, metric{"trace.overhead." + m.name, m.unit, m.value - untraced.e2e[i].value, m.samples})
	}
	name, err := tr.write(cfg.workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans %s (%d)\n", name, len(tr.spans))
	return nil
}

// merge folds a phase report's counts and problems into the run's report.
func (r *report) merge(p *report) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

// config is the run's command line, shared by every workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	procs    int
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"gw_forward":    runGwForward,
	"gw_population": runGwPopulation,
	"solve_planet":  runSolvePlanet,
	"sim_table1":    runSimTable1,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: gw_forward, gw_population, solve_planet or sim_table1")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	// The generator, gateway and backends share the machine: one process,
	// GOMAXPROCS equal to the visible CPUs.
	cfg.procs = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.procs)
	printMetadata(cfg)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	os.Exit(emit(cfg, rep))
}

// emit prints the human-readable metric lines and the final JSON line, and
// returns the exit code: 0 only when every correctness check passed.
func emit(cfg config, rep *report) int {
	list, problems := complete(endToEnd, rep.e2e, false)
	if cfg.trace {
		list, problems = complete(perLayer, rep.layer, true)
	}
	rep.problems = append(rep.problems, problems...)
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]json.RawMessage{}}

	for _, p := range rep.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", rep.attempted, rep.failed)
	if out.Correct {
		for _, m := range list {
			fmt.Printf("metric %-36s %16.6g %-6s samples=%d\n", m.name, m.value, m.unit, m.samples)
			raw, err := json.Marshal(struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{m.value, m.unit})
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: metric %s: %v\n", m.name, err)
				return 1
			}
			out.Metrics[m.name] = raw
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printMetadata records where and how the run was made.
func printMetadata(cfg config) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// With fewer than 1/(1-q) samples it is the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(q*float64(len(xs))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// ms returns the q-quantile of xs, in seconds, as milliseconds.
func ms(xs []float64, q float64) float64 { return quantile(append([]float64(nil), xs...), q) * 1e3 }

// setupBudget is how long repeatSetup keeps repeating a quick set-up: the
// median of many repetitions of a millisecond set-up is steady where a few
// are not.
const setupBudget = 500 * time.Millisecond

// repeatSetup runs setup at least n times, and on until setupBudget has
// passed (at most 1000 times), and returns the state of the last
// repetition, the median wall time in seconds and the repetition count.
// Every other repetition is torn down at once.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, int, error) {
	var last T
	var times []float64
	begin := time.Now()
	for len(times) < n || (time.Since(begin) < setupBudget && len(times) < 1000) {
		if len(times) > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), len(times), nil
}

// tailMetrics reports a phase's latency tail: whole-phase nearest-rank
// percentiles of lat, in seconds. They are per-layer metrics, measured in
// the untraced half of a traced run: on a small shared machine their
// run-to-run spread is wider than any bound an end-to-end metric may have.
func tailMetrics(lat []float64) []metric {
	n := len(lat)
	return []metric{
		{"bench.latency_p99_ms", "ms", quantile(lat, 0.99) * 1e3, n},
		{"bench.latency_p999_ms", "ms", quantile(lat, 0.999) * 1e3, n},
	}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Command perfbench is the repository benchmark: it drives the
// custom-fit toolchain from outside, through its public functions, on
// two workloads (explore, serve-jobs), checks every output, and prints
// end-to-end metrics (or, with --trace 1, per-layer metrics) as one
// JSON object on the last line of standard output. See README.md.
//
//	perfbench --workload explore --seed 1 --seconds 30 --trace 0
//	perfbench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"customfit/internal/bench"
	"customfit/internal/machine"
)

// processStart approximates process start for setup_s.
var processStart = time.Now()

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec names one reported metric. InJSON marks the per-layer
// metrics that go on the last line of a traced run: every count and
// ratio, and the times that are measured on both workloads (a time
// that is structurally zero on one workload is reported in the table
// and the report file only).
type metricSpec struct {
	Name, Unit string
	InJSON     bool
}

var endToEnd = []metricSpec{
	{"setup_s", "s", true},
	{"throughput_per_s", "1/s", true},
	{"latency_p50_ms", "ms", true},
	{"latency_p95_ms", "ms", true},
	{"geomean_speedup", "x", true},
	{"fail_share", "ratio", true},
	{"peak_rss_mb", "MB", true},
}

var perLayer = []metricSpec{
	{"cc.calls", "count", true},
	{"cc.busy_ms", "ms", true},
	{"opt.calls", "count", true},
	{"opt.busy_ms", "ms", true},
	{"opt.instrs_out", "count", true},
	{"ir.interp_ms", "ms", true},
	{"ddg.skeleton_ms", "ms", true},
	{"sched.partition_ms", "ms", true},
	{"sched.schedule_ms", "ms", true},
	{"sched.spill_ms", "ms", true},
	{"sched.cold_compile_ms", "ms", true},
	{"sched.cold_compiles", "count", true},
	{"sched.spill_rounds", "count", true},
	{"sched.delta_compile_ms", "ms", false},
	{"sched.delta_fallback_share", "ratio", true},
	{"sched.delta_block_hit_ratio", "ratio", true},
	{"sched.nofit", "count", true},
	{"regalloc.calls", "count", true},
	{"regalloc.busy_ms", "ms", true},
	{"vliw.bundles", "count", true},
	{"sim.runs", "count", true},
	{"sim.busy_ms", "ms", false},
	{"sim.cycles_per_s", "1/s", false},
	{"bench.golden_ms", "ms", false},
	{"dse.evals", "count", true},
	{"dse.compile_runs", "count", true},
	{"dse.evaluate_ms", "ms", false},
	{"dse.memo_hit_ratio", "ratio", true},
	{"evcache.open_ms", "ms", false},
	{"evcache.get_us", "us", false},
	{"evcache.put_us", "us", false},
	{"evcache.flush_ms", "ms", false},
	{"evcache.hit_ratio", "ratio", true},
	{"serve.submit_ms", "ms", false},
	{"serve.overhead_ms", "ms", false},
	{"serve.rejected", "count", true},
	{"serve.polls_per_job", "ratio", true},
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int64
	// mismatches lists every failed output check; any makes the run
	// incorrect.
	mismatches []string
	endToEnd   map[string]float64
	// samples is the sample count behind each percentile metric.
	samples map[string]int
	// Traced runs only.
	perLayer map[string]float64
	layers   []layerRow
	notes    []string
	traces   []string
}

func (o *outcome) mismatch(format string, args ...any) {
	if len(o.mismatches) < 1000 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outdir   string
	// sample and benches replace the explore workload's machines and
	// benchmarks when set (tests run a small session this way).
	sample  []machine.Arch
	benches []*bench.Benchmark
}

// report is the per-run file written under --outdir: the result with
// its environment stamp and everything the last line leaves out.
type report struct {
	Env       envStamp           `json:"env"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Result    result             `json:"result"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Samples   map[string]int     `json:"samples"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Layers    []layerRow         `json:"layers,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Mismatch  []string           `json:"mismatches,omitempty"`
	TraceJSON []string           `json:"trace_files,omitempty"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: explore or serve-jobs")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outdir, "outdir", filepath.Join(".bench_build", "perfbench-runs"), "directory for reports, traces and cache dirs")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var out *outcome
	var err error
	switch o.workload {
	case "explore":
		out, err = runExplore(o)
	case "serve-jobs":
		out, err = runServeJobs(o)
	default:
		err = fmt.Errorf("unknown workload %q (want explore or serve-jobs)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(finish(o, out))
}

// finish prints the human-readable lines, writes the report file and
// prints the result as the last line. It returns the exit code.
func finish(o options, out *outcome) int {
	env := currentEnv()
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, m := range endToEnd {
		line := fmt.Sprintf("  %-18s %14.6g %s", m.Name, out.endToEnd[m.Name], m.Unit)
		if n, ok := out.samples[m.Name]; ok {
			line += fmt.Sprintf("   (n=%d)", n)
		}
		fmt.Println(line)
	}
	res := result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		printLayers(out)
		for _, m := range perLayer {
			if m.InJSON {
				res.Metrics[m.Name] = metric{out.perLayer[m.Name], m.Unit}
			}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metric{out.endToEnd[m.Name], m.Unit}
		}
	}
	rep := report{
		Env: env, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Result: res, EndToEnd: out.endToEnd, Samples: out.samples, PerLayer: out.perLayer,
		Layers: out.layers, Notes: out.notes, Mismatch: out.mismatches, TraceJSON: out.traces,
	}
	if o.trace {
		printOverhead(o, rep)
	}
	if err := writeJSON(reportPath(o.outdir, o.workload, o.seed, o.trace), rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	for i, m := range out.mismatches {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... %d more mismatches\n", len(out.mismatches)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "MISMATCH:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func reportPath(dir, workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// printOverhead shows the tracing overhead: the traced run's end-to-end
// numbers against the untraced run of the same workload and seed, when
// that run's report is in the output directory.
func printOverhead(o options, traced report) {
	path := reportPath(o.outdir, o.workload, o.seed, false)
	plain, err := readReport(path)
	if err != nil {
		fmt.Printf("tracing overhead: no untraced report at %s (run --trace 0 with this seed first)\n", path)
		return
	}
	if d := traced.Env.diff(plain.Env); len(d) > 0 {
		fmt.Printf("tracing overhead: untraced report has another environment (%v)\n", d)
		return
	}
	fmt.Println("tracing overhead (traced vs untraced, same seed):")
	for _, m := range endToEnd {
		a, b := traced.EndToEnd[m.Name], plain.EndToEnd[m.Name]
		fmt.Printf("  %-18s %14.6g vs %14.6g %s  (%+.1f%%)\n", m.Name, a, b, m.Unit, 100*ratio(a-b, b))
	}
}

// compareMain compares two report files metric by metric. It refuses
// (exit 2) when their environment stamps differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b report
		if b, err = readReport(args[1]); err == nil {
			return compareReports(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

func compareReports(a, b report) int {
	if d := a.Env.diff(b.Env); len(d) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare result sets from different environments: %v\n", d)
		return 2
	}
	if a.Workload != b.Workload {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare workload %s with %s\n", a.Workload, b.Workload)
		return 2
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: seed %d vs seed %d\n", a.Workload, a.Seed, b.Seed)
	for _, n := range names {
		x, y := a.Result.Metrics[n], b.Result.Metrics[n]
		fmt.Printf("  %-30s %14.6g %14.6g %-6s (%+.1f%%)\n", n, x.Value, y.Value, x.Unit, 100*ratio(y.Value-x.Value, x.Value))
	}
	return 0
}

// timedSetup runs setup setupRepeats times and returns the last
// result with the median duration. The first repetition is timed from
// process start; release frees every earlier repetition's result.
func timedSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var ds []float64
	var last T
	start := processStart
	for i := 0; i < setupRepeats; i++ {
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
		if i > 0 {
			release(last)
		}
		last = v
		runtime.GC()
		start = time.Now()
	}
	return last, median(ds), nil
}

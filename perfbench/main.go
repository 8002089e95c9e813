// Command perfbench is the repository's end-to-end benchmark: it runs
// one workload of the batch study or the live titanrouter → titand
// stack in-process, from a seed, checks every output against the batch
// pipeline, and prints its metrics. See README.md for the workloads and
// the metric map; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// buildDir, relative to the checkout root, holds the binary, the build
// cache, each run's scratch state and the traced run's spans.
const buildDir = ".bench_build"

// A metric is a name with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports in an untraced
// run; on each workload each one is one of the named metrics of the
// workload table (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_mean_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"cpu_ns_per_unit", "ns"},
	{"peak_rss_mb", "MB"},
}

// named are the workload-specific end-to-end metrics printed in the
// table; a workload reports the ones that apply to it.
var named = []metricDef{
	{"setup_s", "s"},
	{"study_s", "s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p99_ms", "ms"},
	{"ingest_max_lines_per_s", "lines/s"},
	{"ingest_cpu_ns_per_line", "ns"},
	{"query_point_p50_ms", "ms"},
	{"query_point_p99_ms", "ms"},
	{"query_scan_p50_ms", "ms"},
	{"alerts_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"error_frac", "ratio"},
}

// perLayer are the traced run's metrics; a layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"sim.run_s", "s"},
	{"console.encode_ns_per_line", "ns"},
	{"console.parse_ns_per_line", "ns"},
	{"console.fast_hit_ratio", "ratio"},
	{"dataset.write_s", "s"},
	{"dataset.load_s", "s"},
	{"core.report_s", "s"},
	{"core.observations_s", "s"},
	{"core.observations_passed", "count"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.ingest_p99_ms", "ms"},
	{"serve.read_p50_ms", "ms"},
	{"serve.queue_depth_max", "batches"},
	{"serve.batches_shed", "count"},
	{"serve.events_applied", "count"},
	{"serve.journal_appends", "count"},
	{"serve.journal_syncs", "count"},
	{"serve.compactions", "count"},
	{"serve.events_sealed", "count"},
	{"serve.heap_inuse_mb", "MB"},
	{"serve.quiesce_ms", "ms"},
	{"store.seal_ns_per_event", "ns"},
	{"store.bytes_per_event", "B"},
	{"router.ingest_self_p50_ms", "ms"},
	{"router.ingest_self_p99_ms", "ms"},
	{"router.read_self_p50_ms", "ms"},
	{"router.sub_batches", "count"},
	{"router.deliver_retries", "count"},
	{"titanql.point_ms", "ms"},
	{"titanql.scan_ms", "ms"},
	{"alert.replay_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.stage_self_share", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// options are one run's inputs.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory for datasets and replica state
	// months overrides the workload's history length (0: its default);
	// the smoke tests shrink it.
	months int
}

// outcome is what a workload measured and checked.
type outcome struct {
	e2e       map[string]float64 // endToEnd values (untraced run)
	named     map[string]float64 // named values that apply
	layers    map[string]float64 // perLayer values (traced run)
	attempted int64
	failed    int64
	problems  []string
	spans     []span
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, named: map[string]float64{}, layers: map[string]float64{}}
}

// fail books one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkErr books one attempted operation, failed when err is non-nil.
func (o *outcome) checkErr(err error) {
	o.attempted++
	if err != nil {
		o.fail("%v", err)
	}
}

// A workload runs once per process; README.md says what each stresses.
type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"batch-study", runBatch},
	{"live-ingest", runIngest},
	{"live-query", runQuery},
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	if spec := os.Getenv(generatorEnv); spec != "" {
		if err := runGenerator(spec); err != nil {
			fatal(err)
		}
		return
	}
	name := flag.String("workload", "", "workload: batch-study, live-ingest or live-query")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured duration of one run in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload batch-study|live-ingest|live-query --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, work: work}
	fmt.Printf("context %s\n", contextStamp(o, w.name))
	out, err := w.run(o)
	if err != nil {
		os.RemoveAll(work)
		fatal(err)
	}
	if o.trace && len(out.spans) > 0 {
		if err := writeSpans(filepath.Join(buildDir, "spans-"+w.name+".json"), out.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing work dir:", err)
	}
	res := finish(w.name, o, out)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// finish prints the tables and assembles the result line.
func finish(name string, o options, out *outcome) result {
	if out.attempted < 1 {
		out.attempted = 1
		out.fail("workload attempted nothing")
	}
	out.named["error_frac"] = float64(out.failed) / float64(out.attempted)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	fmt.Printf("end-to-end (%s, seed %d):\n", name, o.seed)
	for _, m := range named {
		if v, ok := out.named[m.name]; ok {
			fmt.Printf("  %-24s %16.6g %s\n", m.name, v, m.unit)
		} else {
			fmt.Printf("  %-24s %16s %s\n", m.name, "n/a", m.unit)
		}
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultMetric{}}
	defs, vals := endToEnd, out.e2e
	if o.trace {
		defs, vals = perLayer, out.layers
		fmt.Printf("per-layer (%s, seed %d):\n", name, o.seed)
		for _, m := range perLayer {
			fmt.Printf("  %-28s %16.6g %s\n", m.name, out.layers[m.name], m.unit)
		}
		if len(out.spans) > 0 {
			fmt.Print(layerTable(out.spans))
		}
	}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok && !o.trace {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", m.name)
		}
		res.Metrics[m.name] = resultMetric{Value: v, Unit: m.unit}
	}
	return res
}

// contextStamp records what produced a result: revision, cores,
// GOMAXPROCS, Go version and the run's arguments.
func contextStamp(o options, name string) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			rev += "+dirty"
		}
	}
	stamp := map[string]string{
		"revision":   rev,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"seed":       strconv.FormatInt(o.seed, 10),
		"seconds":    strconv.Itoa(int(o.seconds / time.Second)),
		"trace":      strconv.FormatBool(o.trace),
		"workload":   name,
	}
	b, _ := json.Marshal(stamp) // a map[string]string always marshals
	return string(b)
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

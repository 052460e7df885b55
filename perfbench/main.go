// Command perfbench is Smart's end-to-end and per-layer benchmark. It runs
// one named in-situ workload for a fixed time, checks the program's outputs
// against independent reference computations, and prints one JSON result
// line. See README.md for the workloads, metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	workDir  string
	sz       sizes
}

// opCount is one kind of operation a workload attempts (steps, jobs, ...).
type opCount struct {
	name              string
	attempted, failed int64
}

// result is what a workload run reports.
type result struct {
	ops   []opCount
	e2e   map[string]float64
	layer map[string]float64
	knobs []string
	notes []string
	spans *spanLog
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (r *result) op(name string, attempted, failed int64) {
	r.ops = append(r.ops, opCount{name, attempted, failed})
}

func (r *result) knob(format string, args ...any) {
	r.knobs = append(r.knobs, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. An "op" is one simulation step with its
// analytics on the in-situ workloads and one job on smartd-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload leaves idle reports 0.
var perLayer = []metricDef{
	{"sim.step_ms", "ms"},
	{"insitu.feed_ms", "ms"},
	{"ringbuf.producer_blocked_ms", "ms"},
	{"ringbuf.consumer_wait_ms", "ms"},
	{"core.reduction_ms", "ms"},
	{"core.split_max_over_mean", "x"},
	{"core.steals", "count"},
	{"core.keys_touched", "count"},
	{"core.chunks", "count"},
	{"core.local_combine_ms", "ms"},
	{"core.convert_ms", "ms"},
	{"core.post_combine_ms", "ms"},
	{"core.global_combine_ms", "ms"},
	{"core.gc_bytes", "B"},
	{"mpi.collective_ms", "ms"},
	{"mpi.messages", "count"},
	{"mpi.wire_raw_mb", "MB"},
	{"mpi.wire_encoded_mb", "MB"},
	{"codec.ratio", "x"},
	{"core.checkpoint_write_ms", "ms"},
	{"core.checkpoint_read_ms", "ms"},
	{"core.checkpoint_mb", "MB"},
	{"core.max_live_redobjs", "count"},
	{"core.emitted_early", "count"},
	{"stream.window_ms", "ms"},
	{"stream.windows_fired", "count"},
	{"stream.windows_per_s", "1/s"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.delivery_ms", "ms"},
	{"serve.admission_rejects", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"baseline.analytics_ms", "ms"},
}

// workloads are the benchmark's fixed workloads; BENCHMARK.json and
// README.md record why each was chosen.
type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"heat3d-timeshare", runTimeshare},
	{"heat3d-tcp-2rank", runTCP},
	{"lulesh-spaceshare-window", runSpaceShare},
	{"smartd-mixed", runSmartd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation and returns the exit code: 0 on a
// correct run, 1 when a correctness check failed, 2 on a usage or set-up
// error (no result line is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 10, "length of the measured region in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its JSONL and Chrome traces to")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "work"), "scratch directory for checkpoints")
	tiny := fs.Bool("tiny", false, "use smoke-test input sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, sz: fullSizes}
	if *tiny {
		cfg.sz = tinySizes
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: work dir: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, wl.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: work dir: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl.name, cfg.seed, cfg.seconds, *trace)
	fmt.Fprintf(stdout, "# host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)

	res, err := wl.run(cfg)
	var cerr *checkError
	correct := !errors.As(err, &cerr)
	if res == nil || (err != nil && correct) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stdout, "# %v\n", err)
	}
	for _, k := range res.knobs {
		fmt.Fprintf(stdout, "# knob %s\n", k)
	}
	var attempted, failed int64
	for _, o := range res.ops {
		fmt.Fprintf(stdout, "# ops %s attempted=%d failed=%d\n", o.name, o.attempted, o.failed)
		attempted += o.attempted
		failed += o.failed
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if cfg.trace && res.spans != nil {
		if err := writeTraces(cfg, wl.name, res.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing traces: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "# trace %d spans written to %s (%d more not kept)\n", len(res.spans.spans), cfg.traceDir, res.spans.dropped)
	}

	defs, values := endToEnd, res.e2e
	if cfg.trace {
		defs, values = perLayer, res.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// deadline ends a measured region: loops check passed between whole
// rounds, and start is where the region's clock began.
type deadline struct {
	start time.Time
	d     time.Duration
}

func newDeadline(seconds float64) deadline {
	return deadline{start: time.Now(), d: time.Duration(seconds * float64(time.Second))}
}

func (d deadline) passed() bool { return time.Since(d.start) >= d.d }

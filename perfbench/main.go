// Command perfbench is the repository's benchmark: one command that runs a
// named workload for a fixed time, checks every output it produces, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// of a separately traced run) as one JSON object on its last line.
//
//	bash perfbench/run.sh --workload cold-exact --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	cold-exact   Runner.Study, no cache, exact fidelity (the rampsim cold path)
//	cold-phase   the same grid at phase fidelity with 5x the instructions
//	serve-warm   in-process rampd, closed loop of warm /v1/study and /v1/mttf
//	sweep-spill  batch sweeps over a disk-spilling stage cache
//
// The benchmark only calls the program's existing public functions and
// observation hooks; timings of layers the program does not expose are
// taken around the calls the benchmark makes (see baseline.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order. An op is
// one study (cold-*), one HTTP request (serve-warm) or one batch sweep
// (sweep-spill); latency_p50_ms is windowedP50 of the ops' latencies.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics of a traced run, in print order. Every
// workload reports all of them; a layer the workload does not reach
// reads 0.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"workload.skip_s", "s"},
	{"workload.ns_per_instr", "ns"},
	{"workload.instrs", "count"},
	{"microarch.run_s", "s"},
	{"microarch.ns_per_instr", "ns"},
	{"microarch.instrs", "count"},
	{"microarch.ipc", "ratio"},
	{"microarch.l1d_miss_rate", "ratio"},
	{"microarch.mispredict_rate", "ratio"},
	{"trace.detail_fraction", "ratio"},
	{"phase.compress_s", "s"},
	{"thermal.run_s", "s"},
	{"thermal.calls", "count"},
	{"thermal.intervals", "count"},
	{"fit.run_s", "s"},
	{"fit.cells", "count"},
	{"fit.intervals", "count"},
	{"sim.self_s", "s"},
	{"keys.study_s", "s"},
	{"keys.stage_s", "s"},
	{"keys.calls", "count"},
	{"store.get_s", "s"},
	{"store.put_s", "s"},
	{"store.mem_hits", "count"},
	{"store.disk_hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.spills", "count"},
	{"store.evictions", "count"},
	{"store.disk_failures", "count"},
	{"store.hit_ratio", "ratio"},
	{"sched.tasks", "count"},
	{"sched.busy_s", "s"},
	{"sched.idle_s", "s"},
	{"sched.queue_wait_p50_ms", "ms"},
	{"jobs.submitted", "count"},
	{"jobs.deduped", "count"},
	{"jobs.dedup_ratio", "ratio"},
	{"jobs.failed", "count"},
	{"jobs.retried", "count"},
	{"jobs.queue_wait_s", "s"},
	{"server.self_s", "s"},
	{"server.result_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.shed", "count"},
	{"client.transport_s", "s"},
	{"report.build_s", "s"},
	{"report.encode_s", "s"},
	{"report.bytes", "bytes"},
	{"obs.ledger_appended", "count"},
	{"obs.ledger_dropped", "count"},
	{"ops.cache_hit_ratio", "ratio"},
	{"accuracy.ipc_err_pct", "%"},
	{"accuracy.fit_rise_err_pts", "pct-points"},
	{"layers.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics holds per-layer values by name.
type layerMetrics map[string]float64

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workers int    // CPUs the workload may use (GOMAXPROCS)
	scratch string // directory for the run's files, removed at exit
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	failures          []string
	setups            []time.Duration
	lats              []float64 // seconds per completed op
	win               []int     // the latencyWindow each op ended in
	window            time.Duration
	layers            layerMetrics
	notes             []string
}

// fail records one failed op or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// op records one completed op that ran from t0 for lat, in a measurement
// that started at start.
func (o *outcome) op(start, t0 time.Time, lat time.Duration) {
	o.lats = append(o.lats, lat.Seconds())
	o.win = append(o.win, int(t0.Add(lat).Sub(start)/latencyWindow))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run builds its fixture; setup_s is the
// median and the last fixture is the one measured.
const setupReps = 3

// setUp builds a fixture setupReps times, timing each build and releasing
// each fixture but the last. Memory is returned to the system between
// builds so every build, and the measurement after the last, starts from
// the same heap.
func setUp[F any](out *outcome, build func(rep int) (F, error), release func(F)) (F, error) {
	var f F
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			release(f)
		}
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if f, err = build(rep); err != nil {
			return f, err
		}
		out.setups = append(out.setups, time.Since(start))
	}
	debug.FreeOSMemory()
	return f, nil
}

var workloads = map[string]func(context.Context, options, *outcome) error{
	"cold-exact":  func(ctx context.Context, o options, out *outcome) error { return runCold(ctx, o, out, false) },
	"cold-phase":  func(ctx context.Context, o options, out *outcome) error { return runCold(ctx, o, out, true) },
	"serve-warm":  runServe,
	"sweep-spill": runSweep,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 0, "input seed (0 keeps the built-in profile seeds)")
	secs := flag.Float64("seconds", 10, "measurement time")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	o := options{seed: *seed, seconds: *secs, trace: *traced == 1,
		workers: runtime.GOMAXPROCS(0), scratch: dir}
	out := &outcome{layers: layerMetrics{}}
	if err := w(context.Background(), o, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed")
		return 2
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  workers %d  trace %v\n", *name, *seed, o.workers, o.trace)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{out.layers[m.name], m.unit}
		}
		printLayers(out.layers)
	} else {
		for name, v := range endToEndMetrics(out) {
			res.Metrics[name] = v
		}
		printEndToEnd(res.Metrics, out)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
			res.Correct = false
		}
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

// endToEndMetrics computes the end-to-end metrics of an untraced run.
func endToEndMetrics(out *outcome) map[string]metricValue {
	return map[string]metricValue{
		"setup_s":        {median(seconds(out.setups)), "s"},
		"latency_p50_ms": {windowedP50(out.lats, out.win) * 1e3, "ms"},
		"peak_rss_mb":    {peakRSSMiB(), "MiB"},
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printEndToEnd(m map[string]metricValue, out *outcome) {
	for _, d := range endToEnd {
		fmt.Printf("  %-16s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
	n := len(out.lats)
	fmt.Printf("  %-16s %14.4f ms (plain median of %d ops)\n", "latency_median", median(out.lats)*1e3, n)
	if pct, v, ok := tail(out.lats); ok {
		fmt.Printf("  %-16s %14.4f ms (p%g of %d ops)\n", "latency_tail", v*1e3, pct, n)
	} else {
		fmt.Printf("  %-16s %14s    (%d ops: too few for a tail percentile)\n", "latency_tail", "-", n)
	}
	fmt.Printf("  %-16s %14.4f 1/s (%d ops in %.3f s)\n", "ops_per_s", float64(n)/out.window.Seconds(), n, out.window.Seconds())
}

func printLayers(m layerMetrics) {
	names := make([]string, 0, len(perLayer))
	units := map[string]string{}
	for _, d := range perLayer {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %16.6f %s\n", n, m[n], units[n])
	}
}

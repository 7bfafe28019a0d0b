// Command perfbench is the LACeS benchmark of record. It runs one of three
// workloads for a fixed time, checks every output against computations made
// apart from the program, and prints one JSON result line:
//
//	census-paper-day  one cold IPv4 day-0 census on a paper-scale world
//	archive-ingest    append a synthetic census chain, index and reopen it
//	serve-dashboard   drive the API handler with the dashboard request mix
//
// With -trace 1 it instead times the calls into each layer from its own
// code, writes those spans as a Chrome trace_event file (Perfetto loads
// it) and prints the per-layer metrics. See README.md for the metrics, the
// inputs and the reference figures.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload archive-ingest --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/laces-project/laces/internal/netsim"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlCensus = "census-paper-day"
	wlIngest = "archive-ingest"
	wlServe  = "serve-dashboard"
)

// The metrics of the result line, as BENCHMARK.json lists them. Every
// workload reports every end-to-end metric, each for its own operation:
// a census day, an ingest round, a served request. A traced run reports
// every per-layer metric; a layer the workload never calls reads 0.
var (
	endToEnd = []metricName{
		{"setup_s", "s"},
		{"op_s", "s"},
		{"op_cpu_s", "s"},
		{"op_alloc_mb", "MB"},
		{"peak_rss_mb", "MB"},
		{"output_mb", "MB"},
	}
	perLayer = []metricName{
		{"hitlist.for_day_s", "s"},
		{"netsim.derive_universe_s", "s"},
		{"netsim.target_derivations", "count"},
		{"netsim.derivations_per_target", "ratio"},
		{"manycast.stage_s", "s"},
		{"manycast.probes", "count"},
		{"manycast.probes_per_s", "1/s"},
		{"gcdmeas.stage_s", "s"},
		{"gcdmeas.probes", "count"},
		{"core.rest_s", "s"},
		{"runtime.cpu_per_wall", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"core.delta_s", "s"},
		{"core.encode_s", "s"},
		{"archive.append_s", "s"},
		{"archive.stored_mb", "MB"},
		{"query.build_s", "s"},
		{"query.index_mb", "MB"},
		{"api.day_p50_ms", "ms"},
		{"api.day_p99_ms", "ms"},
		{"api.timeline_p50_ms", "ms"},
		{"api.timeline_p99_ms", "ms"},
		{"api.events_p50_ms", "ms"},
		{"api.events_p99_ms", "ms"},
		{"api.stability_p50_ms", "ms"},
		{"api.stability_p99_ms", "ms"},
		{"api.aggregates_p50_ms", "ms"},
		{"api.aggregates_p99_ms", "ms"},
		{"api.not_modified", "count"},
		{"archive.decode_ms", "ms"},
		{"archive.decodes", "count"},
		{"archive.lru_hits", "count"},
		{"core.encode_ms", "ms"},
		{"query.timeline_us", "us"},
		{"query.events_ms", "ms"},
		{"serve_p50_ms", "ms"},
		{"serve_p99_ms", "ms"},
		{"load.lag_p99_ms", "ms"},
		{"trace.coverage", "share"},
		{"trace.overhead", "share"},
	}
)

type metricName struct{ name, unit string }

// setupRepeats is how many times the census and serving workloads set
// up; setup_s is the median, so one slow set-up does not move it.
// archive-ingest's set-up, generating the chain, takes some 60 ms, so a
// scheduling hiccup is a large share of one; it sets up chainSetups
// times.
const (
	setupRepeats = 3
	chainSetups  = 15
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	budget  time.Duration // how long the run measures
	trace   bool
	work    string // scratch directory for archives, removed at exit
	traceTo string // Chrome trace_event output of a traced run
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates what a workload run attempted, what failed, what
// its correctness checks found and the metrics it measured.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// set records a metric.
func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness failure when err is non-nil.
func (o *outcome) check(what string, err error) {
	if err != nil {
		o.problems = append(o.problems, what+": "+err.Error())
	}
}

// op counts one attempted operation, and a failure when err is non-nil.
func (o *outcome) op(what string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", what, err)
	}
}

func main() {
	workload := flag.String("workload", "", "census-paper-day | archive-ingest | serve-dashboard")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	traceOut := flag.String("trace-out", "", "Chrome trace output of a traced run (default <work>/../trace-<workload>-<seed>.json)")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	rc := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		traceTo: *traceOut,
	}
	if rc.traceTo == "" {
		rc.traceTo = filepath.Join(filepath.Dir(*work), fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), *workload+"-")
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	rc.work = dir
	res, err := run(*workload, rc)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// run dispatches one workload and folds its outcome into the result line.
func run(workload string, rc runConfig) (*result, error) {
	var (
		o   *outcome
		err error
	)
	switch workload {
	case wlCensus:
		o, err = runCensus(rc, netsim.PaperScaleConfig())
	case wlIngest:
		o, err = runIngest(rc, benchChain)
	case wlServe:
		o, err = runServe(rc, benchChain, benchServe)
	default:
		return nil, fmt.Errorf("unknown workload %q (census-paper-day, archive-ingest, serve-dashboard)", workload)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if o.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	metrics, err := o.line(rc.trace)
	if err != nil {
		return nil, err
	}
	return &result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, nil
}

// line returns the metrics of the result line: every end-to-end metric,
// or with trace every per-layer one, the layers the workload did not call
// at 0. A metric the workload did not measure, or measured in another
// unit, is an error.
func (o *outcome) line(trace bool) (map[string]metric, error) {
	want := endToEnd
	if trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := o.metrics[m.name]
		switch {
		case !ok && trace:
			got = metric{Value: 0, Unit: m.unit}
		case !ok:
			return nil, fmt.Errorf("metric %s not measured", m.name)
		case got.Unit != m.unit:
			return nil, fmt.Errorf("metric %s measured in %s, want %s", m.name, got.Unit, m.unit)
		}
		out[m.name] = got
	}
	for name := range o.metrics {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the manifest", name)
		}
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

// usage is one measured interval: wall time, process CPU time and bytes
// allocated by the Go heap.
type usage struct {
	wall, cpu time.Duration
	alloc     uint64
	gcs       uint32
	gcPause   time.Duration
}

// add sums two intervals' costs.
func (u usage) add(v usage) usage {
	return usage{
		wall:    u.wall + v.wall,
		cpu:     u.cpu + v.cpu,
		alloc:   u.alloc + v.alloc,
		gcs:     u.gcs + v.gcs,
		gcPause: u.gcPause + v.gcPause,
	}
}

// measure runs fn and reports what it cost. It collects garbage first so
// the previous step's garbage is not charged to fn.
func measure(fn func() error) (usage, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	return usage{
		wall:    wall,
		cpu:     cpu,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		gcs:     after.NumGC - before.NumGC,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setOp records the end-to-end metrics of one workload operation: the
// medians of its wall time, CPU time and MB allocated, the process's peak
// RSS and the MB the operation produced.
func (o *outcome) setOp(setups, walls, cpus, allocs []float64, outputMB float64) {
	o.set("setup_s", "s", median(setups))
	o.set("op_s", "s", median(walls))
	o.set("op_cpu_s", "s", median(cpus))
	o.set("op_alloc_mb", "MB", median(allocs))
	o.set("peak_rss_mb", "MB", peakRSSMB())
	o.set("output_mb", "MB", outputMB)
}

// setRuntime records the runtime's per-layer figures over a measured
// interval.
func (o *outcome) setRuntime(u usage) {
	o.set("runtime.cpu_per_wall", "ratio", u.cpu.Seconds()/u.wall.Seconds())
	o.set("runtime.gc_cycles", "count", float64(u.gcs))
	o.set("runtime.gc_pause_ms", "ms", ms(u.gcPause))
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples); xs need not be sorted and is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1e6

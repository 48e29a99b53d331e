// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload in a fresh process, checks
// the program's outputs, and prints one JSON result line:
//
//	perfbench --workload tera-threads --seed 1 --seconds 5 --trace 0
//	perfbench steady --workload router-mix --runs 10
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics and the run writes a span file. See
// README.md for the workloads, the metrics and how to read the span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names (a test keeps the two in step).
type metricDef struct{ name, unit string }

// e2eMetrics are measured with tracing off, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"alloc_mb", "MB"}, {"allocs_m", "millions"},
	{"rss_mb", "MB"}, {"req_per_s", "req/s"},
}

// layerMetrics are measured in the traced run, on every workload.
var layerMetrics = []metricDef{
	{"sim.sleep_ns", "ns"}, {"sim.sleep_allocs", "allocs"}, {"sim.wake_ns", "ns"}, {"sim.wake_allocs", "allocs"},
	{"sim.spawn_ns", "ns"}, {"sim.spawn_allocs", "allocs"}, {"sim.procs1k_ns", "ns"},
	{"psq.serve_ns", "ns"}, {"psq.serve_allocs", "allocs"}, {"psq.contended_ns", "ns"},
	{"cache.burst_ns", "ns"}, {"cache.access_ns", "ns"},
	{"cells.tera_s", "s"}, {"cells.smp_s", "s"}, {"mta.ns_per_spawn", "ns"}, {"smp.ns_per_memref", "ns"},
	{"cells.executed", "count"}, {"cells.reused", "count"},
	{"gen_s", "s"}, {"experiments.self_s", "s"},
	{"run.key_us", "us"}, {"run.hit_us", "us"}, {"run.store_load_us", "us"}, {"run.store_save_us", "us"},
	{"run.exec_ms", "ms"},
	{"serve.self_ms", "ms"}, {"serve.resp_kb", "KiB"},
	{"serve.executions", "count"}, {"serve.cache_hits", "count"}, {"serve.store_hits", "count"},
	{"router.self_ms", "ms"}, {"client.transport_ms", "ms"},
	{"hit_p50_ms", "ms"}, {"store_p50_ms", "ms"}, {"miss_p50_ms", "ms"}, {"p99_ms", "ms"},
	{"trace.run_s", "s"}, {"trace.req_per_s", "req/s"}, {"trace.span_cost_pct", "%"},
}

// workloads lists the workload names in the order README.md documents
// them.
var workloads = []string{"tera-threads", "smp-cache", "router-mix"}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	failures          []string // one line per failed operation
	checks            []string // one line per failed output check
	e2e               map[string]float64
	setups            int           // set-ups made, for per-set-up layer figures
	measured          time.Duration // total wall time of the measured rounds
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed (only router-mix's inputs depend on it)")
	seconds := fs.Float64("seconds", 10, "minimum measured time; whole rounds run until it is reached")
	trace := fs.Int("trace", 0, "1: report per-layer metrics and write a span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !known(*workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	var rec *recorder
	if *trace == 1 {
		rec = newRecorder()
	}
	out, layers, err := measure(*workload, *seed, *seconds, rec, workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res := result{Correct: len(out.checks) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, p := range append(out.failures, out.checks...) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *workload, p)
	}
	defs, values := e2eMetrics, out.e2e
	if rec != nil {
		defs, values = layerMetrics, layers.values
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := rec.write(path, *workload, *seed, layers.detail); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: span file %s\n", path)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// layerReport is the traced run's per-layer metrics plus the per-cell and
// per-workload detail written to the span file.
type layerReport struct {
	values map[string]float64
	detail map[string]float64
}

// measure runs the workload (traced when rec is non-nil) and, in a traced
// run, the layer probes and the per-layer breakdown.
func measure(workload string, seed int64, seconds float64, rec *recorder, workDir string) (*outcome, layerReport, error) {
	lr := layerReport{values: map[string]float64{}, detail: map[string]float64{}}
	if workload == "router-mix" {
		out, rounds, err := runMix(seed, seconds, rec, workDir)
		if err != nil || rec == nil {
			return out, lr, err
		}
		spans := rec.snapshot()
		traceLayers(lr, out, len(spans))
		genLayers(lr, spans, out.setups)
		mixLayers(lr, spans, rounds)
		mixCells(lr, rounds)
		// The experiments layer is not on this workload's path: measure it
		// with a small table regeneration.
		if err := experimentsProbe(lr); err != nil {
			return nil, lr, fmt.Errorf("experiments probe: %w", err)
		}
		return out, lr, probes(lr, workDir)
	}
	out, rounds, err := runTables(workload, seconds, rec)
	if err != nil || rec == nil {
		return out, lr, err
	}
	spans := rec.snapshot()
	traceLayers(lr, out, len(spans))
	genLayers(lr, spans, out.setups)
	tableLayers(lr, spans, rounds)
	// The serving layers are not on this workload's path: measure them
	// with the router-mix loop itself, at its minimum length.
	probeRec := newRecorder()
	probe, mixRounds, err := runMix(seed, 0, probeRec, workDir)
	if err != nil {
		return nil, lr, fmt.Errorf("serving probe: %w", err)
	}
	// A failed or refused probe request fails the run, as it would fail a
	// router-mix run.
	out.attempted += probe.attempted
	out.failed += probe.failed
	out.failures = append(out.failures, probe.failures...)
	out.checks = append(out.checks, probe.checks...)
	mixLayers(lr, probeRec.snapshot(), mixRounds)
	return out, lr, probes(lr, workDir)
}

// probes runs the direct layer probes.
func probes(lr layerReport, workDir string) error {
	simProbes(lr.values)
	psqProbes(lr.values)
	cacheProbes(lr.values)
	return runProbes(lr.values, workDir)
}

// traceLayers reports the traced run's own end-to-end figures (the
// tracing overhead is their difference from untraced runs' medians; see
// steady --trace) and an estimate of the share of the measured time that
// recording the spans costs: the spans recorded times the cost of one
// span in a microbenchmark. The estimate is not a measurement.
func traceLayers(lr layerReport, out *outcome, spans int) {
	lr.values["trace.run_s"] = out.e2e["run_s"]
	lr.values["trace.req_per_s"] = out.e2e["req_per_s"]
	lr.values["trace.span_cost_pct"] = 100 * float64(spans) * spanCostNs() / float64(out.measured.Nanoseconds())
}

package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/experiments"
	"repro/internal/run"
)

// tableWorkload is a set of paper tables regenerated through
// experiments.RunEach (jobs=1) on a fresh run.Runner, at fixed scales.
type tableWorkload struct {
	ids    []string
	scales map[string]float64
}

// The table workloads. Their inputs are fixed by the tables they
// regenerate; the seed does not change them. Scales are fractions of the
// paper-scale workloads, chosen so one regeneration takes ~10 s on a 2-CPU
// host while every table keeps all its cells.
var tableWorkloads = map[string]tableWorkload{
	"tera-threads": {
		ids: []string{"table5", "table6", "table11", "ablation-streams", "ablation-network",
			"projection-scaling", "pt-streams", "ht-streams"},
		scales: map[string]float64{
			experiments.TA: 0.05, experiments.TM: 0.05, experiments.PT: 0.04, experiments.HT: 0.1,
		},
	},
	"smp-cache": {
		ids:    []string{"table2", "table3", "table4", "table8", "table9", "table10", "ablation-blocking"},
		scales: map[string]float64{experiments.TA: 0.1, experiments.TM: 0.05},
	},
}

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// cell is one Executor.Run call an experiment made.
type cell struct {
	exp      string // the experiment that made the call
	rec      run.Record
	executed bool // false: answered from the Runner's record cache
}

// cellExec is the run.Executor the experiments run through: it forwards
// to a Runner, keeps every call's Record and records the call as a cell
// span under the current experiment span.
type cellExec struct {
	runner *run.Runner
	rec    *recorder
	exp    string // the experiment running now
	parent ref

	mu    sync.Mutex
	cells []cell
}

func (e *cellExec) Run(ctx context.Context, spec run.Spec) (run.Record, error) {
	s := e.rec.start(kindCell, "cell", e.parent)
	before := e.runner.Executions()
	r, err := e.runner.Run(ctx, spec)
	executed := e.runner.Executions() > before
	e.rec.end(s, "key", r.Key, "executed", strconv.FormatBool(executed))
	if err == nil {
		e.mu.Lock()
		e.cells = append(e.cells, cell{exp: e.exp, rec: r, executed: executed})
		e.mu.Unlock()
	}
	return r, err
}

// setUpTables builds a fresh Runner with every scenario suite the tables
// need generated and warmed, and reports how long that took.
func setUpTables(tw tableWorkload, rec *recorder) (*run.Runner, time.Duration, error) {
	settle()
	runner := run.NewRunner(1)
	t0 := time.Now()
	for _, w := range sortedKeys(tw.scales) {
		s := rec.start(kindWarm, w, ref{})
		_, err := runner.Warm(w, tw.scales[w])
		rec.end(s)
		if err != nil {
			return nil, 0, fmt.Errorf("warm %s: %w", w, err)
		}
	}
	return runner, time.Since(t0), nil
}

// tableRound is the measurement of one regeneration of the tables.
type tableRound struct {
	wall  time.Duration
	use   usage
	cells []cell
	errs  map[string]error // by experiment
}

// regenerate runs every experiment of the workload once through a timing
// Executor over runner. Each experiment is one operation; one that errors
// is a failed operation.
func regenerate(tw tableWorkload, runner *run.Runner, rec *recorder) tableRound {
	exec := &cellExec{runner: runner, rec: rec}
	cfg := experiments.Config{Scales: tw.scales, Executor: exec}
	errs := map[string]error{}
	settle()
	u0 := readUsage()
	t0 := time.Now()
	for _, id := range tw.ids {
		exec.exp, exec.parent = id, rec.start(kindExperiment, id, ref{})
		out := experiments.RunEach([]string{id}, cfg, 1, nil)
		rec.end(exec.parent)
		if out[0].Err != nil {
			errs[id] = out[0].Err
		}
	}
	wall := time.Since(t0)
	return tableRound{wall: wall, use: readUsage().sub(u0), cells: exec.cells, errs: errs}
}

// runTables measures a table workload: set-up repeated setupReps times,
// then whole regenerations until at least `seconds` of measurement, then
// the output checks (untimed).
func runTables(name string, seconds float64, rec *recorder) (*outcome, []tableRound, error) {
	tw := tableWorkloads[name]
	var setups []float64
	var runner *run.Runner
	setUp := func() error {
		r, d, err := setUpTables(tw, rec)
		runner = r
		setups = append(setups, d.Seconds())
		return err
	}
	for i := 0; i < setupReps; i++ {
		if err := setUp(); err != nil {
			return nil, nil, err
		}
	}
	var rounds []tableRound
	var walls []float64
	var use usage
	var measured time.Duration
	var calls []int
	var rss float64
	for len(rounds) == 0 || measured.Seconds() < seconds {
		if len(rounds) > 0 {
			if err := setUp(); err != nil {
				return nil, nil, err
			}
		}
		rd := regenerate(tw, runner, rec)
		rounds = append(rounds, rd)
		walls = append(walls, rd.wall.Seconds())
		use = use.add(rd.use)
		measured += rd.wall
		calls = append(calls, len(rd.cells))
		if len(rounds) == 1 {
			rss = peakRSSMB()
		}
	}
	out := &outcome{measured: measured, setups: len(setups),
		e2e: endToEnd(setups, walls, use, calls, rss)}
	for _, rd := range rounds {
		out.attempted += len(tw.ids)
		out.failed += len(rd.errs)
		for _, id := range sortedKeys(rd.errs) {
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", id, rd.errs[id]))
		}
	}
	// A cell that fails its check fails its experiment's operation.
	last := rounds[len(rounds)-1]
	var bad map[string]bool
	out.checks, bad = checkCells(runner, last.cells)
	for id := range bad {
		if last.errs[id] == nil {
			out.failed++
		}
	}
	return out, rounds, nil
}

// --- Output checks ----------------------------------------------------------

// terrain is the one workload whose variants run charge-only (no output,
// checksum 0) unless validated.
const terrain = experiments.TM

// referenceSpec is the check's independent computation of a cell's
// output: the sequential style on the AlphaStation model, validated, at the
// cell's scale, keeping only the params the sequential style declares
// (the rest — workers, chunks, threads — describe the parallelization and
// cannot change the output).
func referenceSpec(r run.Record) (run.Spec, error) {
	w, err := suite.Lookup(r.Spec.Workload)
	if err != nil {
		return run.Spec{}, err
	}
	seq, err := w.Variant(string(suite.Sequential))
	if err != nil {
		return run.Spec{}, err
	}
	var p suite.Params
	for k, v := range r.Spec.Params {
		if _, ok := seq.Defaults[k]; ok && k != suite.ValidateParam {
			if p == nil {
				p = suite.Params{}
			}
			p[k] = v
		}
	}
	return run.Spec{Workload: r.Spec.Workload, Variant: seq.Name, Platform: "alpha", Procs: 1,
		Scale: r.Spec.Scale, Params: p, Validate: true}, nil
}

// references computes (once per distinct reference) the checksum each
// cell must carry, executing without the Record cache.
type references struct {
	runner *run.Runner
	sums   map[string]run.Checksum
}

func (rf *references) checksum(r run.Record) (run.Checksum, error) {
	spec, err := referenceSpec(r)
	if err != nil {
		return 0, err
	}
	key := spec.Key()
	if c, ok := rf.sums[key]; ok {
		return c, nil
	}
	ref, err := rf.runner.Execute(context.Background(), spec)
	if err != nil {
		return 0, fmt.Errorf("reference %s: %w", key, err)
	}
	if ref.Checksum == 0 {
		return 0, fmt.Errorf("reference %s: no checksum", key)
	}
	rf.sums[key] = ref.Checksum
	return ref.Checksum, nil
}

// terrainSample picks the charge-only Terrain cells to re-execute
// validated: per variant, the executed cell with the fewest operations
// (ties by key), so the sample is deterministic and cheap.
func terrainSample(cells []cell) []cell {
	best := map[string]cell{}
	for _, c := range cells {
		r := c.rec
		if !c.executed || r.Spec.Workload != terrain || r.Spec.Validate {
			continue
		}
		b, ok := best[r.Spec.Variant]
		if !ok || r.Stats.Ops < b.rec.Stats.Ops || (r.Stats.Ops == b.rec.Stats.Ops && r.Key < b.rec.Key) {
			best[r.Spec.Variant] = c
		}
	}
	var out []cell
	for _, v := range sortedKeys(best) {
		out = append(out, best[v])
	}
	return out
}

// checkCells verifies the measured cells against computations made apart
// from the timed path, after it: every non-terrain cell's checksum equals
// the sequential reference; a validated re-execution of each sampled
// charge-only Terrain cell gives bit-identical model time and counters and
// the reference checksum. It returns one line per violation and the
// experiments whose cells failed.
func checkCells(runner *run.Runner, cells []cell) ([]string, map[string]bool) {
	rf := &references{runner: runner, sums: map[string]run.Checksum{}}
	var problems []string
	bad := map[string]bool{}
	fail := func(c cell, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s: %s: ", c.exp, c.rec.Key)+fmt.Sprintf(format, args...))
		bad[c.exp] = true
	}
	for _, c := range cells {
		if c.rec.Spec.Workload == terrain && !c.rec.Spec.Validate {
			continue
		}
		if msg := checkChecksum(rf, c.rec); msg != "" {
			fail(c, "%s", msg)
		}
	}
	for _, c := range terrainSample(cells) {
		v := c.rec.Spec
		v.Validate = true
		got, err := runner.Execute(context.Background(), v)
		if err != nil {
			fail(c, "validated re-execution: %v", err)
			continue
		}
		if math.Float64bits(got.ModelSeconds) != math.Float64bits(c.rec.ModelSeconds) {
			fail(c, "validated model time %v != charge-only %v", got.ModelSeconds, c.rec.ModelSeconds)
		}
		if !reflect.DeepEqual(got.Stats, c.rec.Stats) {
			fail(c, "validated stats differ from charge-only")
		}
		if msg := checkChecksum(rf, got); msg != "" {
			fail(c, "validated re-execution: %s", msg)
		}
	}
	return problems, bad
}

// checkChecksum compares one record's checksum with its reference.
func checkChecksum(rf *references, r run.Record) string {
	want, err := rf.checksum(r)
	if err != nil {
		return err.Error()
	}
	if r.Checksum != want {
		return fmt.Sprintf("checksum %016x, sequential reference %016x", uint64(r.Checksum), uint64(want))
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"text/tabwriter"
)

// benchmarkPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const benchmarkPath = "BENCHMARK.json"

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain checks a workload the way a change to it is judged: it makes
// --sets sets of --runs runs, each run a fresh process with its own seed,
// and prints each end-to-end metric's median, quartiles and spread
// (interquartile range over median) per set against the metric's bound.
// It exits 1 when a run fails, a spread exceeds its bound, a later set's
// median is worse than the first set's by more than the bound, or the
// share of failed operations differs between runs. Spreads of a third of
// the bound or more are marked: they leave little room for a real change
// to show. With --trace it also makes --runs traced runs and reports the
// tracing overhead on run_s and req_per_s.
func steadyMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of fresh-process runs per set")
	sets := fs.Int("sets", 2, "number of sets of runs whose medians must agree")
	seed0 := fs.Int64("seed", 1, "seed of the first run; each further run takes the next seed")
	traceToo := fs.Bool("trace", false, "also make traced runs and report the tracing overhead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !known(*workload) || *runs < 1 || *sets < 1 {
		fmt.Fprintf(os.Stderr, "perfbench steady: need --workload (%s), --runs >= 1 and --sets >= 1\n", strings.Join(workloads, ", "))
		return 2
	}
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %s: %v\n", benchmarkPath, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}
	seed := *seed0
	collect := func(trace int) ([]result, bool) {
		var out []result
		for i := 0; i < *runs; i++ {
			res, err := runOnce(self, *workload, seed, bench.RunSeconds, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: %v\n", seed, err)
				return nil, false
			}
			out = append(out, res)
			seed++
		}
		return out, true
	}
	var all [][]result
	for s := 0; s < *sets; s++ {
		results, ok := collect(0)
		if !ok {
			return 1
		}
		all = append(all, results)
	}

	steady := true
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tset\tmedian\tq1\tq3\tspread\tbound\tvs set 1\t\n")
	for _, m := range bench.EndToEnd {
		first := median(values(all[0], m.Name))
		for s, results := range all {
			vals := values(results, m.Name)
			q1, q3 := quartiles(vals)
			med := median(vals)
			spread := (q3 - q1) / med
			worse := (med - first) / first
			if m.Better == "higher" {
				worse = -worse
			}
			var verdict []string
			if spread > m.Bound {
				verdict = append(verdict, "spread above the bound")
				steady = false
			} else if spread >= m.Bound/3 {
				verdict = append(verdict, "spread above a third of the bound")
			}
			if worse > m.Bound {
				verdict = append(verdict, "median worse than set 1 by more than the bound")
				steady = false
			}
			fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\t%+.4f\t  %s\n",
				m.Name, s+1, med, q1, q3, spread, m.Bound, worse, strings.Join(verdict, "; "))
		}
	}
	tw.Flush()
	var flat []result
	for s, results := range all {
		flat = append(flat, results...)
		for _, m := range bench.EndToEnd {
			fmt.Fprintf(stdout, "set %d %s by run:", s+1, m.Name)
			for _, v := range values(results, m.Name) {
				fmt.Fprintf(stdout, " %.4g", v)
			}
			fmt.Fprintln(stdout)
		}
	}
	shares := map[string]bool{}
	for _, r := range flat {
		shares[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = true
	}
	fmt.Fprintf(stdout, "runs %d, failed/attempted per run: %s\n", len(flat), strings.Join(sortedKeys(shares), " "))
	if !sameShare(flat) {
		steady = false
	}
	if *traceToo {
		traced, ok := collect(1)
		if !ok {
			return 1
		}
		for _, pair := range [][2]string{{"run_s", "trace.run_s"}, {"req_per_s", "trace.req_per_s"}} {
			plain, tr := median(values(flat, pair[0])), median(values(traced, pair[1]))
			fmt.Fprintf(stdout, "tracing overhead on %s: %.6g untraced, %.6g traced (%+.2f%%)\n",
				pair[0], plain, tr, 100*(tr-plain)/plain)
		}
	}
	if !steady {
		return 1
	}
	return 0
}

// runOnce runs the benchmark binary once and parses its last output line.
func runOnce(self, workload string, seed int64, seconds, trace int) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("parsing the result line: %w", err)
	}
	return res, nil
}

func values(results []result, name string) []float64 {
	var out []float64
	for _, r := range results {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// sameShare reports whether every run failed the same share of its
// attempted operations (exactly, as a fraction).
func sameShare(results []result) bool {
	for _, r := range results[1:] {
		if r.Failed*results[0].Attempted != results[0].Failed*r.Attempted {
			return false
		}
	}
	return true
}

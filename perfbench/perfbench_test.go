package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/run"
)

func TestTailPerMille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 500}, {39, 500}, {40, 750}, {99, 750}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule's point: a reported tail always has ten samples beyond it.
	for n := 40; n <= 20000; n++ {
		if pm := tailPerMille(n); n*(1000-pm) < 10*1000 {
			t.Fatalf("n=%d: per-mille %d leaves fewer than ten samples beyond", n, pm)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.0, 7.75}, 2.375, 8.375},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	// Covered: [10,40) and [90,100) = 40.
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
}

func planKeys(t *testing.T, seed int64) [][]string {
	t.Helper()
	space, err := mixSpace()
	if err != nil {
		t.Fatal(err)
	}
	p, err := planRound(space, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, reqs := range p.clients {
		for _, r := range reqs {
			keys := []string{r.temp}
			for _, s := range r.specs {
				keys = append(keys, s.Key())
			}
			out = append(out, keys)
		}
	}
	return out
}

func TestMixScheduleFollowsSeed(t *testing.T) {
	a, b := planKeys(t, 7), planKeys(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different router-mix schedules")
	}
	if reflect.DeepEqual(a, planKeys(t, 8)) {
		t.Fatal("another seed gave the same router-mix schedule")
	}
}

func TestMixRoundMakeUp(t *testing.T) {
	space, err := mixSpace()
	if err != nil {
		t.Fatal(err)
	}
	p, err := planRound(space, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	temp := map[string]string{}
	claim := func(s run.Spec, tp string) {
		if prev, ok := temp[s.Key()]; ok && (prev != tp || tp != tempHit) {
			t.Errorf("%s drawn as %s and as %s", s.Key(), prev, tp)
		}
		temp[s.Key()] = tp
	}
	for _, s := range p.hits {
		claim(s, tempHit)
	}
	counts := map[string]int{}
	specs := map[string]int{}
	sizes := map[int]int{}
	streamed := 0
	for _, reqs := range p.clients {
		for _, r := range reqs {
			counts[r.temp]++
			specs[r.temp] += len(r.specs)
			sizes[len(r.specs)]++
			if r.stream {
				streamed++
			}
			if r.temp != tempHit {
				for _, s := range r.specs {
					claim(s, r.temp)
				}
			}
		}
	}
	// c3iload's default weights: 0.75 hit, 0.20 store, 0.05 miss by
	// request; batch sizes 1=6,4=3,8=1 (2.6 Specs a request); half streamed.
	want := map[string]int{tempHit: 150, tempStore: 40, tempMiss: 10}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("requests per temperature %v, want %v", counts, want)
	}
	if want := map[string]int{tempHit: 390, tempStore: 104, tempMiss: 26}; !reflect.DeepEqual(specs, want) {
		t.Errorf("Specs per temperature %v, want %v", specs, want)
	}
	if streamed != 100 || sizes[1] != 120 || sizes[4] != 60 || sizes[8] != 20 {
		t.Errorf("%d streamed requests, batch sizes %v; want 100 streamed and 1=120,4=60,8=20", streamed, sizes)
	}
	if len(p.clients[0]) != len(p.clients[1]) {
		t.Errorf("clients get %d and %d requests", len(p.clients[0]), len(p.clients[1]))
	}
}

func TestCheckersRejectFlippedChecksum(t *testing.T) {
	runner := run.NewRunner(1)
	spec := run.Spec{Workload: "hypothesis-testing", Variant: "coarse", Platform: "exemplar", Procs: 4, Scale: 0.05}
	rec, err := runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	flipped := rec
	flipped.Checksum ^= 1

	// The table check: against the sequential AlphaStation reference.
	if p, bad := checkCells(runner, []cell{{exp: "x", rec: rec, executed: true}}); len(p) != 0 || len(bad) != 0 {
		t.Fatalf("a correct cell failed the check: %v", p)
	}
	if p, bad := checkCells(runner, []cell{{exp: "x", rec: flipped, executed: true}}); len(p) != 1 || !bad["x"] {
		t.Fatalf("a flipped checksum gave problems %v for experiments %v, want one for x", p, bad)
	}

	// The router-mix check: against a separate local execution.
	local, err := run.NewRunner(1).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameRecord(&rec, local); msg != "" {
		t.Fatalf("a correct record failed the check: %s", msg)
	}
	if msg := sameRecord(&flipped, local); msg == "" {
		t.Fatal("a flipped checksum passed the check")
	}
}

func TestBenchmarkFileListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloads)
	}
	same := func(what string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", what, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", what, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eMetrics)
	same("per_layer", b.PerLayer, layerMetrics)
}

func TestMixRoundTracesEveryTier(t *testing.T) {
	spec := func(procs int) run.Spec {
		s, err := run.Spec{Workload: "hypothesis-testing", Variant: "sequential", Platform: "exemplar",
			Procs: procs, Scale: 0.05, Validate: true}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hit, stored, miss := spec(1), spec(2), spec(4)
	var p mixPlan
	p.hits, p.store, p.misses = []run.Spec{hit}, []run.Spec{stored}, []run.Spec{miss}
	p.clients[0] = []mixRequest{
		{temp: tempHit, specs: []run.Spec{hit, hit}},
		{temp: tempStore, stream: true, specs: []run.Spec{stored}},
		{temp: tempMiss, specs: []run.Spec{miss}},
	}
	p.clients[1] = []mixRequest{{temp: tempHit, stream: true, specs: []run.Spec{hit}}}
	rec := newRecorder()
	rd, err := runMixRound(p, t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rd.results {
		if r.err != nil {
			t.Fatalf("%s request failed: %v", r.req.temp, r.err)
		}
	}
	if rd.executions != 1 || rd.storeHits != 1 || rd.cacheHits != 3 {
		t.Errorf("executions/store hits/cache hits = %d/%d/%d, want 1/1/3", rd.executions, rd.storeHits, rd.cacheHits)
	}
	if problems, bad, err := checkMix(run.NewRunner(1), rd); err != nil || len(problems) != 0 || bad != 0 {
		t.Errorf("checks: %v %v (%d bad requests)", err, problems, bad)
	}
	spans := rec.snapshot()
	kids := children(spans)
	clients := 0
	for _, c := range spans {
		if c.Kind != kindClient {
			continue
		}
		clients++
		routers := kids[c.ID]
		if len(routers) != 1 || routers[0].Kind != kindRouter {
			t.Fatalf("client span %d has children %+v, want one router span", c.ID, routers)
		}
		shards := kids[routers[0].ID]
		if len(shards) != 1 || shards[0].Kind != kindShard || shards[0].Trace != c.ID {
			t.Fatalf("router span %d has children %+v, want one shard span in trace %d", routers[0].ID, shards, c.ID)
		}
	}
	if clients != 4 {
		t.Errorf("%d client spans, want 4", clients)
	}
}

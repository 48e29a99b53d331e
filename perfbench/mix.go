package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/run"
	"repro/internal/serve"
)

// The router-mix closed loop: mixClients clients, each sending its next
// batch only when the previous reply has arrived, to a router over
// mixShards in-process shards sharing one DiskStore.
const (
	mixClients  = 2
	mixShards   = 2
	mixMaxBatch = 8
	// mixMinRounds rounds give p99 a real tail: 1000 requests, so ten
	// samples lie beyond it.
	mixMinRounds = 5
	// mixHitPool is how many distinct Specs the hit requests repeat.
	mixHitPool = 24
)

// The traffic weights are the defaults of cmd/c3iload, the repository's
// load generator: batch sizes 1=6,4=3,8=1, half the requests streamed, and
// 0.75 of them exact repeats (c3iload's "cached", router-mix's hit).
// c3iload has no store temperature; its other quarter (warm 0.20, cold
// 0.05) is split here as store 0.20 and miss 0.05, so executions stay a
// small part of the loop. A cycle is one request of every batch-size
// slot; a round sends each temperature's cycles, so every round has the
// same requests and Specs.
var (
	mixBatchWeights = []struct{ size, weight int }{{1, 6}, {4, 3}, {8, 1}}
	mixTempCycles   = []struct {
		temp   string
		cycles int
	}{{tempHit, 15}, {tempStore, 4}, {tempMiss, 1}}
)

// mixCycleSpecs is the number of Specs one cycle of batch sizes sends.
func mixCycleSpecs() int {
	n := 0
	for _, b := range mixBatchWeights {
		n += b.size * b.weight
	}
	return n
}

// mixTempSpecs is the number of Specs a round sends at temperature temp.
func mixTempSpecs(temp string) int {
	for _, t := range mixTempCycles {
		if t.temp == temp {
			return t.cycles * mixCycleSpecs()
		}
	}
	return 0
}

// Request temperatures.
const (
	tempHit   = "hit"   // repeats a Spec already answered (record cache)
	tempStore = "store" // a Spec saved to the store during set-up
	tempMiss  = "miss"  // a fresh Spec: a shard executes it, then saves it
)

// mixScales are the scenario scales the mix's Specs use; shards warm them
// during set-up.
var mixScales = map[string][]float64{
	"hypothesis-testing":    {0.05, 0.1},
	"plot-track-assignment": {0.04},
}

// mixSpace enumerates the candidate Specs, in a fixed order: cheap grid
// points — Hypothesis Testing at scales 0.05 and 0.1 in every style and
// Plot-Track Assignment at scale 0.04 in the sequential style (1–30 ms of
// engine time each; Plot-Track's parallel styles cost 5–15× more) — on
// every platform at several processor counts. Every Spec validates, so
// every Record carries a checksum.
func mixSpace() ([]run.Spec, error) {
	type config struct {
		platform string
		procs    int
	}
	configs := []config{{"alpha", 1}, {"ppro", 1}, {"ppro", 2}, {"ppro", 4},
		{"exemplar", 1}, {"exemplar", 2}, {"exemplar", 4}, {"exemplar", 8}, {"exemplar", 16},
		{"tera", 1}, {"tera", 2}}
	styles := map[string][]string{
		"hypothesis-testing":    {"sequential", "coarse", "fine"},
		"plot-track-assignment": {"sequential"},
	}
	var out []run.Spec
	for _, w := range sortedKeys(mixScales) {
		wl, err := suite.Lookup(w)
		if err != nil {
			return nil, err
		}
		for _, scale := range mixScales[w] {
			for _, v := range styles[w] {
				for _, c := range configs {
					restrict := map[string][]float64{"scale": {scale}}
					if _, err := wl.Grid.Axis("net"); err == nil && c.platform != "tera" {
						restrict["net"] = []float64{0} // network overrides are Tera-only
					}
					pts, err := run.GridSpecs(w, v, c.platform, c.procs, restrict)
					if err != nil {
						return nil, err
					}
					for _, p := range pts {
						out = append(out, p.Spec)
					}
				}
			}
		}
	}
	return out, nil
}

// mixRequest is one batch a client sends.
type mixRequest struct {
	stream bool
	temp   string
	specs  []run.Spec
}

// mixPlan is one round's inputs: the Specs set-up answers (hits) and saves
// (store), and each client's requests in send order.
type mixPlan struct {
	hits, store []run.Spec
	misses      []run.Spec
	clients     [mixClients][]mixRequest
}

// planRound draws round `round` of the schedule from the seed. The
// candidate space is cut into one block of neighbouring Specs (same
// workload, scale, style and platform, mostly) per miss Spec; from each
// block the round takes, at random, one miss Spec, the same share of the
// store Specs and one hit candidate, so every round has the same make-up
// of work while the seed picks the grid points and processor counts. The
// hit pool is mixHitPool of the candidates; hit requests repeat its Specs
// at random. Batch sizes, temperatures and endpoints are fixed multisets
// (slots of each temperature and batch size go to /v1/run and
// /v1/run/stream alternately), shuffled into each client's order.
func planRound(space []run.Spec, seed int64, round int) (mixPlan, error) {
	blocks := mixTempSpecs(tempMiss)
	storePer := mixTempSpecs(tempStore) / blocks
	if len(space) < blocks*(storePer+2) || blocks < mixHitPool {
		return mixPlan{}, fmt.Errorf("router-mix: %d candidate Specs, need %d", len(space), blocks*(storePer+2))
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	var p mixPlan
	var cands []run.Spec
	for b := 0; b < blocks; b++ {
		lo, hi := b*len(space)/blocks, (b+1)*len(space)/blocks
		pick := rng.Perm(hi - lo)
		p.misses = append(p.misses, space[lo+pick[0]])
		cands = append(cands, space[lo+pick[1]])
		for _, i := range pick[2 : 2+storePer] {
			p.store = append(p.store, space[lo+i])
		}
	}
	shuffle := func(xs []run.Spec) { rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) }
	shuffle(p.misses)
	shuffle(p.store)
	shuffle(cands)
	p.hits = cands[:mixHitPool]

	type slot struct {
		temp   string
		size   int
		stream bool
	}
	var slots []slot
	for _, t := range mixTempCycles {
		for _, b := range mixBatchWeights {
			for k := 0; k < t.cycles*b.weight; k++ {
				slots = append(slots, slot{t.temp, b.size, len(slots)%2 == 1})
			}
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	next := map[string]int{}
	for i, sl := range slots {
		req := mixRequest{stream: sl.stream, temp: sl.temp}
		switch sl.temp {
		case tempHit:
			for j := 0; j < sl.size; j++ {
				req.specs = append(req.specs, p.hits[rng.Intn(len(p.hits))])
			}
		case tempStore:
			req.specs = p.store[next[tempStore] : next[tempStore]+sl.size]
		case tempMiss:
			req.specs = p.misses[next[tempMiss] : next[tempMiss]+sl.size]
		}
		next[sl.temp] += sl.size
		p.clients[i%mixClients] = append(p.clients[i%mixClients], req)
	}
	return p, nil
}

// mixResult is one answered (or failed) request.
type mixResult struct {
	req     mixRequest
	latency time.Duration
	recs    []*run.Record
	err     error
}

// shardNode is one in-process serving shard.
type shardNode struct {
	runner *run.Runner
	server *serve.Server
	http   *httptest.Server
}

// mixRound is the measurement of one round.
type mixRound struct {
	setup   time.Duration
	wall    time.Duration
	use     usage
	results []mixResult
	// Shard counter deltas over the measured phase.
	executions, cacheHits, storeHits int64
	plan                             mixPlan
}

// counter sums one run_* counter over every shard and mix workload.
func counter(shards []*shardNode, name string) int64 {
	var n int64
	for _, sh := range shards {
		for _, w := range sortedKeys(mixScales) {
			n += sh.runner.Metrics().Counter(name, obs.Labels{"workload": w}).Value()
		}
	}
	return n
}

// runMixRound sets up fresh shards, router and store under dir (timed as
// set-up), seeds the store and answers the hit pool once, then drives the
// closed loop and tears everything down.
func runMixRound(plan mixPlan, dir string, rec *recorder) (mixRound, error) {
	ctx := context.Background()
	out := mixRound{plan: plan}
	t0 := time.Now()
	store, err := run.NewDiskStore(dir)
	if err != nil {
		return out, err
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 2 * mixClients * mixMaxBatch
	defer transport.CloseIdleConnections()
	httpClient := &http.Client{Transport: propagate{next: transport}}
	var shards []*shardNode
	defer func() {
		for _, sh := range shards {
			sh.http.Close()
			sh.server.Close()
		}
	}()
	var shardCfg []router.Shard
	for i := 0; i < mixShards; i++ {
		r := run.NewRunner(2)
		r.SetStore(store)
		for _, w := range sortedKeys(mixScales) {
			for _, scale := range mixScales[w] {
				s := rec.start(kindWarm, w, ref{})
				_, err := r.Warm(w, scale)
				rec.end(s)
				if err != nil {
					return out, fmt.Errorf("warm %s: %w", w, err)
				}
			}
		}
		// Admission sized for the load: every client's largest batch can
		// land on one shard's workload pool without a 429.
		srv := serve.New(r, serve.Options{WorkersPerWorkload: 2, QueueDepth: mixClients * mixMaxBatch, Store: store})
		sh := &shardNode{runner: r, server: srv, http: httptest.NewServer(traced(rec, kindShard, srv))}
		shards = append(shards, sh)
		shardCfg = append(shardCfg, router.Shard{URL: sh.http.URL})
	}
	rt, err := router.New(router.Options{Shards: shardCfg, HTTP: httpClient})
	if err != nil {
		return out, err
	}
	defer rt.Close()
	front := httptest.NewServer(traced(rec, kindRouter, rt))
	defer front.Close()
	client := &serve.Client{Addr: front.URL, HTTP: httpClient, Retries: -1}

	seeder := run.NewRunner(2)
	seeder.SetStore(store)
	if _, err := seeder.RunAll(ctx, plan.store); err != nil {
		return out, fmt.Errorf("seeding the store: %w", err)
	}
	for i := 0; i < len(plan.hits); i += mixMaxBatch {
		if _, err := client.RunAll(ctx, plan.hits[i:min(i+mixMaxBatch, len(plan.hits))]); err != nil {
			return out, fmt.Errorf("answering the hit pool: %w", err)
		}
	}
	out.setup = time.Since(t0)

	exec0 := counter(shards, run.MetricExecutions)
	cache0 := counter(shards, run.MetricCacheHits)
	store0 := counter(shards, run.MetricStoreHits)
	settle()
	u0 := readUsage()
	t1 := time.Now()
	var wg sync.WaitGroup
	results := make([][]mixResult, mixClients)
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, req := range plan.clients[c] {
				results[c] = append(results[c], send(ctx, client, req, rec))
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(t1)
	out.use = readUsage().sub(u0)
	out.executions = counter(shards, run.MetricExecutions) - exec0
	out.cacheHits = counter(shards, run.MetricCacheHits) - cache0
	out.storeHits = counter(shards, run.MetricStoreHits) - store0
	for _, rs := range results {
		out.results = append(out.results, rs...)
	}
	return out, nil
}

// send makes one request through the client and times it from send to
// the last byte of the reply.
func send(ctx context.Context, client *serve.Client, req mixRequest, rec *recorder) mixResult {
	path := serve.RunPath
	if req.stream {
		path = serve.StreamPath
	}
	s := rec.start(kindClient, path, ref{})
	ctx = withSpan(ctx, s)
	res := mixResult{req: req, recs: make([]*run.Record, len(req.specs))}
	t0 := time.Now()
	if req.stream {
		res.err = client.RunStream(ctx, req.specs, func(ev serve.StreamEvent) {
			if ev.Error != "" {
				res.err = errors.Join(res.err, fmt.Errorf("spec %d: %s", ev.Index, ev.Error))
			}
			res.recs[ev.Index] = ev.Record
		})
	} else {
		var br serve.BatchResponse
		br, res.err = client.RunBatch(ctx, req.specs)
		if res.err == nil {
			for i, e := range br.Errors {
				if e != "" {
					res.err = errors.Join(res.err, fmt.Errorf("spec %d: %s", i, e))
				}
			}
			res.recs = br.Records
		}
	}
	res.latency = time.Since(t0)
	rec.end(s, "temp", req.temp, "specs", strconv.Itoa(len(req.specs)))
	return res
}

// runMix measures the router-mix workload: whole rounds until at least
// `seconds` of measurement and mixMinRounds rounds. Each round is checked
// right after its measured phase (untimed) and then keeps only its misses'
// Records, so a run's memory does not grow with the number of rounds it
// fits into `seconds`.
func runMix(seed int64, seconds float64, rec *recorder, workDir string) (*outcome, []mixRound, error) {
	space, err := mixSpace()
	if err != nil {
		return nil, nil, err
	}
	out := &outcome{}
	local := run.NewRunner(2) // the reference; its cache spans rounds
	var rounds []mixRound
	var setups, walls []float64
	var requests []int
	var use usage
	var rss float64
	for len(rounds) < mixMinRounds || out.measured.Seconds() < seconds {
		plan, err := planRound(space, seed, len(rounds))
		if err != nil {
			return nil, nil, err
		}
		dir := filepath.Join(workDir, fmt.Sprintf("store-%d", len(rounds)))
		rd, err := runMixRound(plan, dir, rec)
		os.RemoveAll(dir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, rd.setup.Seconds())
		walls = append(walls, rd.wall.Seconds())
		requests = append(requests, len(rd.results))
		use = use.add(rd.use)
		out.measured += rd.wall
		out.attempted += len(rd.results)
		for _, r := range rd.results {
			if r.err != nil {
				out.failed++
				out.failures = append(out.failures, fmt.Sprintf("%s request: %v", r.req.temp, r.err))
			}
		}
		// A request whose Records fail the check is a failed operation.
		problems, bad, err := checkMix(local, rd)
		if err != nil {
			return nil, nil, err
		}
		out.checks = append(out.checks, problems...)
		out.failed += bad
		for i := range rd.results {
			if rd.results[i].req.temp != tempMiss {
				rd.results[i].recs = nil
			}
		}
		rounds = append(rounds, rd)
		if len(rounds) == mixMinRounds {
			rss = peakRSSMB()
		}
	}
	out.setups = len(rounds)
	out.e2e = endToEnd(setups, walls, use, requests, rss)
	return out, rounds, nil
}

// checkMix verifies every Record a round answered against the local
// run.Runner executing the same Spec (equal in everything but
// HostElapsed), and that the shards executed exactly the round's distinct
// miss Specs and answered exactly its distinct store Specs from the store.
func checkMix(local *run.Runner, rd mixRound) (problems []string, badRequests int, err error) {
	if want := int64(distinct(rd.plan.misses)); rd.executions != want {
		problems = append(problems, fmt.Sprintf("shards executed %d Specs, want the %d distinct misses", rd.executions, want))
	}
	if want := int64(distinct(rd.plan.store)); rd.storeHits != want {
		problems = append(problems, fmt.Sprintf("shards answered %d Specs from the store, want the %d distinct store Specs", rd.storeHits, want))
	}
	seen := map[string]bool{}
	var specs []run.Spec
	for _, r := range rd.results {
		for _, s := range r.req.specs {
			if k := s.Key(); !seen[k] {
				seen[k] = true
				specs = append(specs, s)
			}
		}
	}
	recs, err := local.RunAll(context.Background(), specs)
	if err != nil {
		return nil, 0, fmt.Errorf("local reference execution: %w", err)
	}
	want := map[string]run.Record{}
	for _, r := range recs {
		want[r.Key] = r
	}
	for _, r := range rd.results {
		if r.err != nil {
			continue
		}
		bad := false
		for i, s := range r.req.specs {
			if msg := sameRecord(r.recs[i], want[s.Key()]); msg != "" {
				problems = append(problems, fmt.Sprintf("%s: %s", s.Key(), msg))
				bad = true
			}
		}
		if bad {
			badRequests++
		}
	}
	return problems, badRequests, nil
}

// sameRecord compares a served Record with the local one, ignoring the
// host clock.
func sameRecord(got *run.Record, want run.Record) string {
	if got == nil {
		return "no record served"
	}
	g := *got
	g.HostElapsed, want.HostElapsed = 0, 0
	if !reflect.DeepEqual(g, want) {
		return fmt.Sprintf("served record differs from local execution (checksum %016x vs %016x)",
			uint64(g.Checksum), uint64(want.Checksum))
	}
	return ""
}

func distinct(specs []run.Spec) int {
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.Key()] = true
	}
	return len(seen)
}

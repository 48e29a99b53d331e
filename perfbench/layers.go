package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/run"
)

// genLayers reports scenario generation: the warm spans' total per set-up
// (gen_s) and, in the span file's detail, per workload.
func genLayers(lr layerReport, spans []Span, setups int) {
	var total time.Duration
	for _, s := range spans {
		if s.Kind == kindWarm {
			total += s.dur()
			lr.detail["gen."+s.Name+"_s"] += s.dur().Seconds() / float64(setups)
		}
	}
	lr.values["gen_s"] = total.Seconds() / float64(setups)
}

// tableLayers reports the engine per cell and the experiments' own time
// (experiment spans minus their cell spans), per regeneration.
func tableLayers(lr layerReport, spans []Span, rounds []tableRound) {
	lr.values["experiments.self_s"] = experimentSelf(spans).Seconds() / float64(len(rounds))
	var executed []run.Record
	reused := 0
	for _, rd := range rounds {
		for _, c := range rd.cells {
			if c.executed {
				executed = append(executed, c.rec)
			} else {
				reused++
			}
		}
	}
	cellLayers(lr, executed, reused, len(rounds))
}

// cellLayers reports engine cost from executed Records' host time: per
// platform class, per simulated spawn on the MTA, per memory reference on
// the SMPs, and (in the detail) per workload, variant and platform.
func cellLayers(lr layerReport, executed []run.Record, reused, rounds int) {
	var teraNs, smpNs float64
	var spawns, memRefs int64
	for _, r := range executed {
		ns := float64(r.HostElapsed.Nanoseconds())
		if r.Spec.Platform == "tera" {
			teraNs += ns
			spawns += r.Stats.Spawns
		} else {
			smpNs += ns
			memRefs += r.Stats.MemRefs
		}
		name := fmt.Sprintf("cells.%s.%s.%s_s", r.Spec.Workload, r.Spec.Variant, r.Spec.Platform)
		lr.detail[name] += ns / 1e9 / float64(rounds)
	}
	lr.values["cells.tera_s"] = teraNs / 1e9 / float64(rounds)
	lr.values["cells.smp_s"] = smpNs / 1e9 / float64(rounds)
	lr.values["mta.ns_per_spawn"] = teraNs / float64(max(spawns, 1))
	lr.values["smp.ns_per_memref"] = smpNs / float64(max(memRefs, 1))
	lr.values["cells.executed"] = float64(len(executed)) / float64(rounds)
	lr.values["cells.reused"] = float64(reused) / float64(rounds)
}

// mixCells reports router-mix's engine cost from the Records the shards
// executed (the misses) and its reuse from the shards' counters.
func mixCells(lr layerReport, rounds []mixRound) {
	var executed []run.Record
	var reused int64
	for _, rd := range rounds {
		reused += rd.cacheHits + rd.storeHits
		for _, r := range rd.results {
			if r.err != nil || r.req.temp != tempMiss {
				continue
			}
			for _, rec := range r.recs {
				executed = append(executed, *rec)
			}
		}
	}
	cellLayers(lr, executed, int(reused), len(rounds))
}

// mixLayers reports the serving tiers from the router-mix spans and
// results: latency by temperature and its tail; per request, the router's
// own time (router span minus its shard spans), the client transport
// (client span minus router span), the shards' time on requests that
// executed nothing (the serving tier's own cost), and the response size;
// the shards' execution, cache-hit and store-hit counts per round; and the
// mean engine time of a miss.
func mixLayers(lr layerReport, spans []Span, rounds []mixRound) {
	byTemp := map[string][]float64{}
	var all []float64
	var execNs float64
	var execs int
	var executions, cacheHits, storeHits int64
	for _, rd := range rounds {
		executions += rd.executions
		cacheHits += rd.cacheHits
		storeHits += rd.storeHits
		for _, r := range rd.results {
			if r.err != nil {
				continue
			}
			byTemp[r.req.temp] = append(byTemp[r.req.temp], ms(r.latency))
			all = append(all, ms(r.latency))
			if r.req.temp == tempMiss {
				for _, rec := range r.recs {
					execNs += float64(rec.HostElapsed.Nanoseconds())
					execs++
				}
			}
		}
	}
	n := float64(len(rounds))
	lr.values["hit_p50_ms"] = median(byTemp[tempHit])
	lr.values["store_p50_ms"] = median(byTemp[tempStore])
	lr.values["miss_p50_ms"] = median(byTemp[tempMiss])
	lr.values["p99_ms"] = quantile(all, float64(tailPerMille(len(all)))/1000)
	lr.values["run.exec_ms"] = execNs / 1e6 / float64(max(execs, 1))
	lr.values["serve.executions"] = float64(executions) / n
	lr.values["serve.cache_hits"] = float64(cacheHits) / n
	lr.values["serve.store_hits"] = float64(storeHits) / n

	kids := children(spans)
	var routerSelf, transport, hitShard time.Duration
	var routers, clients, hits int
	var respBytes int64
	for _, c := range spans {
		if c.Kind != kindClient {
			continue
		}
		clients++
		var routerTime, shardTime time.Duration
		for _, r := range kids[c.ID] {
			routerTime += r.dur()
			routerSelf += selfTime(r, kids[r.ID])
			routers++
			for _, s := range kids[r.ID] {
				shardTime += s.dur()
				b, _ := strconv.ParseInt(s.Attrs["bytes"], 10, 64)
				respBytes += b
			}
		}
		transport += c.dur() - routerTime
		if c.Attrs["temp"] == tempHit {
			hitShard += shardTime
			hits++
		}
	}
	lr.values["router.self_ms"] = ms(routerSelf) / float64(max(routers, 1))
	lr.values["client.transport_ms"] = ms(transport) / float64(max(clients, 1))
	lr.values["serve.self_ms"] = ms(hitShard) / float64(max(hits, 1))
	lr.values["serve.resp_kb"] = float64(respBytes) / 1024 / float64(max(clients, 1))
}

// experimentsProbe measures the experiments layer's own time on a small
// regeneration of table5 (for workloads that do not pass through it).
func experimentsProbe(lr layerReport) error {
	tw := tableWorkload{ids: []string{"table5"}, scales: map[string]float64{experiments.TA: 0.02}}
	rec := newRecorder()
	runner, _, err := setUpTables(tw, nil)
	if err != nil {
		return err
	}
	rd := regenerate(tw, runner, rec)
	if err := rd.errs["table5"]; err != nil {
		return err
	}
	lr.values["experiments.self_s"] = experimentSelf(rec.snapshot()).Seconds()
	return nil
}

// experimentSelf is the experiment spans' total time minus their cell
// spans: what the experiments and report layers spend themselves.
func experimentSelf(spans []Span) time.Duration {
	kids := children(spans)
	var self time.Duration
	for _, s := range spans {
		if s.Kind == kindExperiment {
			self += selfTime(s, kids[s.ID])
		}
	}
	return self
}

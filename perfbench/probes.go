package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/psq"
	"repro/internal/run"
	"repro/internal/sim"
)

// measureOp times op(n), which performs n operations, probeReps times
// after one short warm-up, and returns the median ns and heap allocations
// per operation.
func measureOp(n int, op func(n int)) (nsPerOp, allocsPerOp float64) {
	const probeReps = 5
	op(max(n/10, 1))
	var ns, allocs []float64
	for i := 0; i < probeReps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// runKernel runs a kernel that must not fail; a probe that errors is a
// harness bug.
func runKernel(k *sim.Kernel) {
	if err := k.Run(); err != nil {
		panic(fmt.Sprintf("probe kernel: %v", err))
	}
}

// simProbes measures the discrete-event kernel directly: a proc sleeping
// (one event and one switch per call), a WaitQ wake/park pair, a spawn of
// a proc that runs to completion, and switching among 1024 live procs.
func simProbes(m map[string]float64) {
	m["sim.sleep_ns"], m["sim.sleep_allocs"] = measureOp(50000, func(n int) {
		k := sim.NewKernel()
		k.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		runKernel(k)
	})
	m["sim.wake_ns"], m["sim.wake_allocs"] = measureOp(20000, func(n int) {
		k := sim.NewKernel()
		q := sim.NewWaitQ("probe")
		k.Spawn("waiter", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Wait(p, "turn")
			}
		})
		k.Spawn("waker", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				for !q.WakeOne(p.Kernel()) {
					p.Sleep(1)
				}
				p.Sleep(1)
			}
		})
		runKernel(k)
	})
	m["sim.spawn_ns"], m["sim.spawn_allocs"] = measureOp(20000, func(n int) {
		k := sim.NewKernel()
		k.Spawn("parent", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Kernel().Spawn("child", func(*sim.Proc) {})
				p.Sleep(0) // the child runs to completion before the parent resumes
			}
		})
		runKernel(k)
	})
	const procs, rounds = 1024, 20
	m["sim.procs1k_ns"], _ = measureOp(procs*rounds, func(n int) {
		k := sim.NewKernel()
		for i := 0; i < procs; i++ {
			k.Spawn("p", func(p *sim.Proc) {
				for j := 0; j < n/procs; j++ {
					p.Sleep(1)
				}
			})
		}
		runKernel(k)
	})
}

// psqProbes measures the processor-sharing queue: back-to-back Serve calls
// from one client, and Serve under 64 clients capped per client (the
// shape of an MTA issue queue full of streams).
func psqProbes(m map[string]float64) {
	m["psq.serve_ns"], m["psq.serve_allocs"] = measureOp(20000, func(n int) {
		k := sim.NewKernel()
		q := psq.New(k, "probe", 1.0, 0)
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Serve(p, 5)
			}
		})
		runKernel(k)
	})
	const clients = 64
	m["psq.contended_ns"], _ = measureOp(clients*300, func(n int) {
		k := sim.NewKernel()
		q := psq.New(k, "probe", 1.0, 1.0/21)
		for i := 0; i < clients; i++ {
			k.Spawn("client", func(p *sim.Proc) {
				for j := 0; j < n/clients; j++ {
					q.Serve(p, 3)
				}
			})
		}
		runKernel(k)
	})
}

// cacheProbes measures the SMP cache model: a streaming burst over 8 MB
// (many granules per call, mostly misses) and a single-reference hit.
func cacheProbes(m map[string]float64) {
	space := mem.NewSpace()
	big := space.Alloc("burst", 8<<20)
	burst := mem.ReadBurst(big, 0, 8, 1<<20)
	c := cache.New(256<<10, 32, 1024)
	m["cache.burst_ns"], _ = measureOp(200, func(n int) {
		for i := 0; i < n; i++ {
			c.AccessBurst(burst)
		}
	})
	small := space.Alloc("single", 64<<10)
	h := cache.New(256<<10, 32, 1024)
	h.Access(small.Addr(0))
	m["cache.access_ns"], _ = measureOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			h.Access(small.Addr(uint64(i) % (64 << 10)))
		}
	})
}

// runProbes measures the run API on a typical router-mix Spec: canonical
// key derivation, a Runner.Run answered from the record cache, and a
// DiskStore load and save of the Spec's Record (in a scratch directory
// under dir, removed afterwards).
func runProbes(m map[string]float64, dir string) error {
	spec := run.Spec{Workload: "hypothesis-testing", Variant: "coarse", Platform: "exemplar", Procs: 4,
		Scale: 0.05, Params: map[string]int{"gate": 32}, Validate: true}
	keyNs, _ := measureOp(20000, func(n int) {
		for i := 0; i < n; i++ {
			ns, err := spec.Normalized()
			if err != nil {
				panic(err)
			}
			_ = ns.Key()
		}
	})
	m["run.key_us"] = keyNs / 1e3

	runner := run.NewRunner(1)
	ctx := context.Background()
	rec, err := runner.Run(ctx, spec)
	if err != nil {
		return fmt.Errorf("run probe: %w", err)
	}
	hitNs, _ := measureOp(20000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := runner.Run(ctx, spec); err != nil {
				panic(err)
			}
		}
	})
	m["run.hit_us"] = hitNs / 1e3

	storeDir, err := os.MkdirTemp(dir, "store-probe-")
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	defer os.RemoveAll(storeDir)
	store, err := run.NewDiskStore(filepath.Join(storeDir, "records"))
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	saveNs, _ := measureOp(500, func(n int) {
		for i := 0; i < n; i++ {
			if err := store.Save(rec); err != nil {
				panic(err)
			}
		}
	})
	m["run.store_save_us"] = saveNs / 1e3
	loadNs, _ := measureOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := store.Load(rec.Key); !ok {
				panic("store probe: saved record did not load")
			}
		}
	})
	m["run.store_load_us"] = loadNs / 1e3
	return nil
}

// spanCostNs is the cost of recording one span (start plus end), for the
// tracing-overhead estimate.
func spanCostNs() float64 {
	ns, _ := measureOp(100000, func(n int) {
		r := newRecorder()
		for i := 0; i < n; i++ {
			r.end(r.start(kindCell, "probe", ref{}))
		}
	})
	return ns
}

package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is a snapshot of the process's CPU and heap-allocation counters;
// the difference of two snapshots is the cost of the phase between them.
type usage struct {
	cpu     time.Duration
	bytes   uint64
	mallocs uint64
}

// readUsage snapshots user+sys CPU time and cumulative heap allocation.
// ReadMemStats stops the world briefly, so call it only at phase
// boundaries, never inside a timed loop.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, bytes: u.bytes - v.bytes, mallocs: u.mallocs - v.mallocs}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, bytes: u.bytes + v.bytes, mallocs: u.mallocs + v.mallocs}
}

// endToEnd computes the end-to-end metrics from the set-up times, the
// measured rounds' wall times, summed usage and requests answered, and
// the peak RSS once the run's minimum number of rounds was done (read
// then, so that it does not grow with the number of rounds a faster
// machine fits into the run). Throughput is the median over rounds, like
// run_s, so one disturbed round moves neither.
func endToEnd(setups, walls []float64, use usage, requests []int, rssMB float64) map[string]float64 {
	n := float64(len(walls))
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(requests[i]) / w
	}
	return map[string]float64{
		"setup_s":   median(setups),
		"run_s":     median(walls),
		"cpu_s":     use.cpu.Seconds() / n,
		"alloc_mb":  float64(use.bytes) / n / 1e6,
		"allocs_m":  float64(use.mallocs) / n / 1e6,
		"rss_mb":    rssMB,
		"req_per_s": median(rates),
	}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// settle collects garbage twice so a timed phase does not pay for the
// previous phase's heap.
func settle() {
	runtime.GC()
	runtime.GC()
}

// quantile is the q-quantile (0..1) of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPerMille applies the tail rule: the highest of the usual reporting
// percentiles (in per-mille) that still has at least ten samples beyond
// it, and the median alone (500) under forty samples, where any higher
// percentile would be no tail at all.
func tailPerMille(n int) int {
	if n < 40 {
		return 500
	}
	for _, pm := range []int{999, 990, 950, 900, 750} {
		if n*(1000-pm) >= 10*1000 {
			return pm
		}
	}
	return 500
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness report matches the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentileLadder is the set of percentiles the tail metric may report.
var percentileLadder = []float64{50, 90, 99}

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile is the reporting rule for a latency tail: the highest
// percentile of the ladder that has at least ten samples beyond it, so the
// tail is never the maximum of a handful of samples. It returns 0 when even
// the median has fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail applies the reporting rule to xs.
func tail(xs []float64) float64 {
	p := tailPercentile(len(xs))
	if p == 0 {
		return percentile(xs, 50)
	}
	return percentile(xs, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process CPU time (user + system) so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer does not fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU reads the runtime's estimate of the CPU seconds spent in GC so far.
func gcCPU() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64()
}

// liveHeapMB returns the live heap in MB after two forced collections. The
// first moves what every sync.Pool holds, the tensor pool's buckets among
// them, to the pool's victim list, where it is still reachable; the second
// frees it. After one collection the heap still held whatever the pools
// happened to hold, which moved it by tens of MB between runs.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// logf writes a diagnostic line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

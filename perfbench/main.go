// Command perfbench is the repository benchmark described by BENCHMARK.json
// at the repository root. It drives the program's public entry points
// in-process (dataset.Load, engine.NewEngine / RunEpoch, serve.New / Query /
// Static.Update), checks every answer, and prints one JSON result object as
// the last line of standard output.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload train-comm-ecs --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics and a Chrome trace of benchmark-side spans
// is written under --trace-dir. README.md beside this file maps every metric
// to the layer it measures and the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them, from an untraced run. An "op" is one training epoch on the
// train workloads and one request on the serve workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.tail", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run. A workload that
// does not exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"partition.ms", "ms"},
	{"partition.cut_ratio", "ratio"},
	{"partition.imbalance", "ratio"},
	{"planner.ms", "ms"},
	{"plan.cached_deps", "count"},
	{"plan.comm_deps", "count"},
	{"engine.build_ms", "ms"},
	{"engine.straggler_index", "ratio"},
	{"stage.forward_ms", "ms"},
	{"stage.backward_ms", "ms"},
	{"stage.barrier_ms", "ms"},
	{"stage.dep_fetch_recv_ms", "ms"},
	{"stage.mirror_scatter_ms", "ms"},
	{"stage.grad_sync_ms", "ms"},
	{"comm.bytes_per_epoch", "bytes"},
	{"comm.msgs_per_epoch", "count"},
	{"comm.rtt_us", "us"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.allocs_per_epoch", "count"},
	{"runtime.alloc_mb_per_epoch", "MB"},
	{"tensor.pool_hit_rate", "ratio"},
	{"tensor.pool_high_water_mb", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"costmodel.compute_residual", "ratio"},
	{"costmodel.comm_residual", "ratio"},
	{"obs.trace_overhead_ms", "ms"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.p99", "ms"},
	{"serve.extract_ms.p50", "ms"},
	{"serve.extract_ms.p99", "ms"},
	{"serve.compute_ms.p50", "ms"},
	{"serve.compute_ms.p99", "ms"},
	{"serve.cache_ms.p99", "ms"},
	{"serve.batch_verts_mean", "count"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.post_update_ms.p99", "ms"},
	{"serve.exact_ms.p99", "ms"},
	{"serve.sampled_ms.p99", "ms"},
	{"loadgen.late_ms.max", "ms"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceDir string
}

// outcome is what a workload measured: operations attempted and failed, and
// every metric value it could measure, keyed by metric name.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
}

// workload is one benchmark input set. why says which layers it stresses.
type workload struct {
	name, why string
	run       func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{
		name: "train-comm-ecs",
		why:  "DepComm GCN on a sparse google-like graph over the paced 6 Gb/s ECS fabric: every dependency crosses the network, so comm stages dominate",
		run:  func(c runConfig) (*outcome, error) { return runTrain(trainCommECS, c) },
	},
	{
		name: "train-hybrid-local",
		why:  "default planner GCN on a dense reddit-like graph over the unthrottled fabric: cached 2-hop closures make kernels and the plan dominate",
		run:  func(c runConfig) (*outcome, error) { return runTrain(trainHybridLocal, c) },
	},
	{
		name: "serve-zipf-updates",
		why:  "Zipf exact plus sampled queries at under a third of capacity with a parameter update every 3 s: batcher, embedding cache and its refill set latency",
		run:  func(c runConfig) (*outcome, error) { return runServe(serveZipf, c) },
	},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// assemble selects the reported metric set from what the workload measured.
// An end-to-end metric is never optional; a per-layer metric the workload
// has no layer for reads 0.
func assemble(o *outcome, trace bool) (*result, error) {
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "seed for the dataset, the model and the request stream")
		seconds  = flag.Float64("seconds", 15, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory for the Chrome trace of a traced run")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	cfg := runConfig{
		workload: wl.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
	}
	// A run that hangs (a lost message, a stuck pipeline) must still end in
	// bounded time, with an error and no result.
	limit := 2*cfg.seconds + 110*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v\n", wl.name, limit)
		os.Exit(1)
	})
	o, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	res, err := assemble(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable writes the reported metrics by name with units to stderr, for
// a reader of the run; the JSON line on stdout is the machine result.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

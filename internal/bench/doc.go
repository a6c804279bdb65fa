// Package bench defines the machine-readable benchmark document (BENCH.json)
// and the pipeline that produces and compares it. The document is the
// repository's performance contract: nsbench -json emits it, tools/benchdiff
// compares two of them, and CI runs both on every change.
//
// Schema stability rules:
//
//   - SchemaVersion bumps on any breaking change (field rename/removal or a
//     semantic change to an existing field). Adding fields is non-breaking.
//   - Stage names come from obs.StageNames() and are part of the contract —
//     renaming a stage is a schema break.
//   - All durations are seconds (float64), all traffic is bytes (int64).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"neutronstar/internal/obs"
)

// SchemaVersion is the current BENCH.json schema version.
//
// v2 added allocator metrics: Run.AllocsPerEpoch, Run.HeapBytesPerEpoch and
// the optional Run.Pool summary.
//
// v3 added causal metrics: Run.StragglerIndex, Run.BarrierShare and the
// optional Run.CritPath (the critical path of the run's median epoch).
//
// v4 added the optional Doc.Serving block (online-inference load results from
// nsload: QPS, latency percentiles, cache effectiveness) and allowed
// serving-only documents with no training runs.
//
// v5 added replication flip counters for a replicated policy that turned out
// to plan exactly like DepCache.
//
// v6 removed those counters (flips_to_rep / flips_from_rep) with the policy.
//
// Older tools reject newer documents (the version check is exact), so the
// committed baseline must be regenerated on a bump.
const SchemaVersion = 6

// Host records where the document was produced. Comparisons across different
// hosts are informational, not regressions.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CurrentHost captures the running process's host metadata.
func CurrentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// GraphInfo describes the benchmark workload.
type GraphInfo struct {
	Name       string `json:"name"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	FeatureDim int    `json:"feature_dim"`
	HiddenDim  int    `json:"hidden_dim"`
	Classes    int    `json:"classes"`
	Layers     int    `json:"layers"`
}

// StageSummary aggregates one stage across the measured epochs of a run.
type StageSummary struct {
	Stage string `json:"stage"`
	// MedianSeconds is the median over epochs of the stage's total seconds
	// (summed across workers and layers within each epoch).
	MedianSeconds float64 `json:"median_seconds"`
	MeanSeconds   float64 `json:"mean_seconds"`
	// BytesPerEpoch / MsgsPerEpoch are per-epoch means.
	BytesPerEpoch int64 `json:"bytes_per_epoch,omitempty"`
	MsgsPerEpoch  int64 `json:"msgs_per_epoch,omitempty"`
}

// FactorSet is a JSON-stable rendering of costmodel.Costs.
type FactorSet struct {
	Tv float64 `json:"tv"`
	Te float64 `json:"te"`
	Tc float64 `json:"tc"`
}

// ResidualSummary condenses the cost-model validator's output.
type ResidualSummary struct {
	// FitMethod is how the empirical factors were recovered: "least_squares",
	// "scaled", or "probe" (nothing measurable).
	FitMethod string    `json:"fit_method"`
	Probed    FactorSet `json:"probed"`
	Fitted    FactorSet `json:"fitted"`
	// Max absolute per-layer residuals, (meas−pred)/pred.
	MaxAbsComputeResidual float64 `json:"max_abs_compute_residual"`
	MaxAbsCommResidual    float64 `json:"max_abs_comm_residual"`
	// Counterfactual plan diff: decisions that flip when the planner runs
	// under the fitted factors instead of the probed ones. The per-dependency
	// counters cover cache↔comm moves; the per-layer counters cover moves
	// into and out of tensor parallelism under the 3-way planner.
	FlipsCacheToComm int `json:"flips_cache_to_comm"`
	FlipsCommToCache int `json:"flips_comm_to_cache"`
	FlipsToTP        int `json:"flips_to_tp,omitempty"`
	FlipsFromTP      int `json:"flips_from_tp,omitempty"`
	Slots            int `json:"slots"`
}

// PoolSummary reports the tensor pool's behaviour over a pooled run.
type PoolSummary struct {
	// Hits / Misses count pool Gets served from a bucket vs. freshly
	// allocated, over the whole run (warmup included).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// HighWaterBytes is the peak of pooled bytes checked out at once.
	HighWaterBytes int64 `json:"high_water_bytes"`
	// HitRate is Hits / (Hits+Misses).
	HitRate float64 `json:"hit_rate"`
}

// Run is one benchmark configuration's result.
type Run struct {
	Name    string `json:"name"`
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// Epochs is the number of measured (post-warmup) epochs.
	Epochs            int     `json:"epochs"`
	WallMedianSeconds float64 `json:"wall_median_seconds"`
	WallMeanSeconds   float64 `json:"wall_mean_seconds"`
	EpochsPerSec      float64 `json:"epochs_per_sec"`
	// BytesPerEpoch is the per-epoch mean of total attributed traffic (each
	// logical message counted once on the sender and once on the receiver).
	BytesPerEpoch int64   `json:"bytes_per_epoch"`
	FinalLoss     float64 `json:"final_loss"`
	// AllocsPerEpoch / HeapBytesPerEpoch are runtime.MemStats deltas
	// (Mallocs, TotalAlloc) across the measured epochs divided by the epoch
	// count — the allocator pressure one training epoch exerts.
	AllocsPerEpoch    int64 `json:"allocs_per_epoch"`
	HeapBytesPerEpoch int64 `json:"heap_bytes_per_epoch"`
	// Pool summarises tensor-pool reuse; nil when the run had pooling off.
	Pool *PoolSummary `json:"pool,omitempty"`
	// StageCoverage is Σ stage seconds (excluding checkpoint) divided by
	// workers × wall — the accounting identity; ~1.0 when attribution is
	// gap-free.
	StageCoverage float64          `json:"stage_coverage"`
	Stages        []StageSummary   `json:"stages"`
	Residuals     *ResidualSummary `json:"residuals,omitempty"`
	// StragglerIndex is the median over measured epochs of max/mean
	// per-worker busy seconds (1.0 = perfect balance); BarrierShare is the
	// mean fraction of cluster wall time idled at the epoch barrier.
	StragglerIndex float64 `json:"straggler_index,omitempty"`
	BarrierShare   float64 `json:"barrier_share,omitempty"`
	// CritPath is the critical path of the epoch whose wall time is closest
	// to the run's median — the causal chain that bounded a representative
	// epoch. Its spans partition the epoch, so CoveredSeconds ≈ WallSeconds.
	CritPath *obs.CritPath `json:"crit_path,omitempty"`
}

// ServingSummary is one nsload run against a serving endpoint: the online
// inference counterpart of a training Run. Latencies are milliseconds.
type ServingSummary struct {
	// Mode is "closed" (fixed concurrency, next request on completion) or
	// "open" (fixed arrival rate, independent of completions).
	Mode string `json:"mode"`
	// Workload shape: requests sent, how many failed, queried vertices per
	// request, and the seed that pins the request mix.
	Requests    int64  `json:"requests"`
	Errors      int64  `json:"errors"`
	VertsPerReq int    `json:"verts_per_req"`
	Seed        uint64 `json:"seed"`
	// Concurrency is the closed-loop worker count; RateQPS the open-loop
	// target arrival rate (each zero in the other mode).
	Concurrency     int     `json:"concurrency,omitempty"`
	RateQPS         float64 `json:"rate_qps,omitempty"`
	DurationSeconds float64 `json:"duration_seconds"`
	QPS             float64 `json:"qps"`
	P50LatencyMs    float64 `json:"p50_latency_ms"`
	P99LatencyMs    float64 `json:"p99_latency_ms"`
	MeanLatencyMs   float64 `json:"mean_latency_ms"`
	// Cache effectiveness over the load window (deltas of the server's
	// counters, so a warm server still reports this window's behaviour).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Stages is the per-stage latency breakdown parsed from the server's
	// Server-Timing response headers, keyed by stage name (queue, cache,
	// extract, compute, total). Absent when the server predates the header.
	Stages map[string]StageQuantiles `json:"stages,omitempty"`
	// StageCoverage is mean(queue+cache+extract+compute) over mean
	// client-observed latency: how much of what the client waited for the
	// server can account for (the remainder is HTTP transport and
	// encode/decode). Zero when Stages is absent.
	StageCoverage float64 `json:"stage_coverage,omitempty"`
}

// StageQuantiles summarises one pipeline stage's latency over a load run,
// in milliseconds.
type StageQuantiles struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// Doc is the top-level BENCH.json document.
type Doc struct {
	SchemaVersion int       `json:"schema_version"`
	Graph         GraphInfo `json:"graph"`
	Host          Host      `json:"host"`
	Runs          []Run     `json:"runs"`
	// Serving carries online-inference load results (nsload); nil for
	// training-only documents. A serving-only document may have no runs.
	Serving *ServingSummary `json:"serving,omitempty"`
}

// Validate checks the structural contract benchdiff hard-fails on. It does
// not judge performance — only that the document is well-formed.
func (d *Doc) Validate() error {
	if d.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema_version %d, this tool understands %d", d.SchemaVersion, SchemaVersion)
	}
	if len(d.Runs) == 0 && d.Serving == nil {
		return fmt.Errorf("bench: document has no runs")
	}
	if s := d.Serving; s != nil {
		if s.Mode != "open" && s.Mode != "closed" {
			return fmt.Errorf("bench: serving mode %q (want open or closed)", s.Mode)
		}
		if s.Requests <= 0 {
			return fmt.Errorf("bench: serving requests = %d", s.Requests)
		}
		if s.QPS <= 0 {
			return fmt.Errorf("bench: serving qps = %g", s.QPS)
		}
		if s.P50LatencyMs < 0 || s.P99LatencyMs < s.P50LatencyMs {
			return fmt.Errorf("bench: serving latency percentiles p50=%g p99=%g",
				s.P50LatencyMs, s.P99LatencyMs)
		}
	}
	known := make(map[string]bool)
	for _, s := range obs.StageNames() {
		known[s] = true
	}
	seen := make(map[string]bool)
	for i := range d.Runs {
		r := &d.Runs[i]
		if r.Name == "" {
			return fmt.Errorf("bench: run %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("bench: duplicate run name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Workers <= 0 {
			return fmt.Errorf("bench: run %q: workers = %d", r.Name, r.Workers)
		}
		if r.Epochs <= 0 {
			return fmt.Errorf("bench: run %q: epochs = %d", r.Name, r.Epochs)
		}
		if r.WallMedianSeconds <= 0 {
			return fmt.Errorf("bench: run %q: wall_median_seconds = %g", r.Name, r.WallMedianSeconds)
		}
		for _, s := range r.Stages {
			if !known[s.Stage] {
				return fmt.Errorf("bench: run %q: unknown stage %q", r.Name, s.Stage)
			}
			if s.MedianSeconds < 0 || s.MeanSeconds < 0 {
				return fmt.Errorf("bench: run %q stage %q: negative seconds", r.Name, s.Stage)
			}
		}
		if r.StragglerIndex < 0 {
			return fmt.Errorf("bench: run %q: straggler_index = %g", r.Name, r.StragglerIndex)
		}
		if p := r.CritPath; p != nil {
			if len(p.Spans) == 0 {
				return fmt.Errorf("bench: run %q: crit_path has no spans", r.Name)
			}
			for j, sp := range p.Spans {
				if sp.Kind != "compute" && sp.Kind != "net" {
					return fmt.Errorf("bench: run %q: crit_path span %d has kind %q", r.Name, j, sp.Kind)
				}
				if sp.EndSeconds < sp.StartSeconds {
					return fmt.Errorf("bench: run %q: crit_path span %d ends before it starts", r.Name, j)
				}
			}
		}
	}
	return nil
}

// ReadFile parses and validates a BENCH.json document.
func ReadFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// WriteFile writes the document as indented JSON.
func (d *Doc) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

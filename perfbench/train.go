package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/metrics"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// trainSpec is one training workload. Costs pins the planner's environment
// factors, so the plan depends on the input alone and not on a wall-clock
// probe; Mode "" follows whatever the engine's default planner is.
type trainSpec struct {
	dataset string
	mode    engine.Mode
	profile comm.NetworkProfile
	costs   costmodel.Costs
}

// The pinned factors are one costmodel.Probe reading on a 2-core x86-64
// host, rounded: Tv and Te from the tape kernels, Tc from the fabric profile.
var (
	trainCommECS = trainSpec{
		dataset: "google", mode: engine.DepComm, profile: comm.ProfileECS,
		costs: costmodel.Costs{Tv: 1e-7, Te: 2e-8, Tc: 6.85e-7},
	}
	trainHybridLocal = trainSpec{
		dataset: "reddit", profile: comm.ProfileLocal,
		costs: costmodel.Costs{Tv: 1e-7, Te: 2e-8, Tc: 1e-7},
	}
)

const (
	trainWorkers = 4
	// Each trial builds a fresh engine and runs warm-up epochs (pool fill,
	// first-epoch allocator) before its measured epochs. Every trial starts
	// from the same seed, so one reference trajectory of warmup+measured
	// epochs checks them all.
	warmupEpochs   = 2
	measuredEpochs = 20
	// minTrials makes at least 100 measured epochs, so the tail rule always
	// picks p90 and the tail means the same thing on a slow host.
	minTrials = 5
	// setupBuilds engines are built per trial, the last one trained, so
	// setup_s is a median over several builds.
	setupBuilds = 3
	// lossTol is the cross-policy oracle's tolerance against the 1-worker
	// reference trajectory.
	lossTol = 1e-5
	// benchRow is the Chrome trace row of benchmark-side spans, clear of the
	// engine's worker rows.
	benchRow = 100
)

func loadDataset(name string, seed uint64) (*dataset.Dataset, error) {
	spec, err := dataset.Get(name)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return dataset.Load(spec), nil
}

// engineOptions matches nstrain's defaults: R/L/P on, tensor pool on, the
// always-on flight recorder.
func (s trainSpec) engineOptions(seed uint64, workers int, pool *tensor.Pool, rec *obs.FlightRecorder, coll *metrics.Collector) engine.Options {
	return engine.Options{
		Workers: workers, Mode: s.mode, Model: nn.GCN, Profile: s.profile,
		Ring: true, LockFree: true, Overlap: true,
		Seed: seed, Costs: s.costs,
		Pool: pool, Recorder: rec, Collector: coll,
	}
}

// referenceLosses trains the 1-worker reference for n epochs.
func referenceLosses(ds *dataset.Dataset, s trainSpec, seed uint64, n int) ([]float64, error) {
	eng, err := engine.NewEngine(ds, s.engineOptions(seed, 1, tensor.NewPool(), nil, nil))
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	defer eng.Close()
	out := make([]float64, n)
	for i := range out {
		out[i] = eng.RunEpoch().Loss
	}
	return out, nil
}

// fingerprint hashes a plan: every worker's cached and communicated sets and
// per-layer policy flags. Equal fingerprints mean equal plans.
func fingerprint(decs []*hybrid.Decision) string {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	list := func(vs []int32) {
		put(int32(len(vs)))
		for _, v := range vs {
			put(v)
		}
	}
	for _, d := range decs {
		put(int32(len(d.R)))
		for l := range d.R {
			list(d.R[l])
			list(d.C[l])
			flags := int32(0)
			if d.TPAt(l + 1) {
				flags |= 1
			}
			if d.RepAt(l + 1) {
				flags |= 2
			}
			put(flags)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func planCounts(decs []*hybrid.Decision) (cached, communicated int) {
	for _, d := range decs {
		cached += d.NumCached()
		communicated += d.NumComm()
	}
	return cached, communicated
}

// trial is what one engine build and its epochs measured.
type trial struct {
	traced bool
	setups []float64     // seconds per engine build
	warmup time.Duration // the warm-up epochs, outside every timing
	walls  []float64     // measured epoch wall times, ms
	cpu    time.Duration
	heapMB float64
	recs   []obs.EpochRecord
	pool   tensor.PoolStats
	fp     string
	cached int
	comm   int
	failed int64
	// poolMisses counts the tensor pool's fresh allocations over the
	// measured epochs; allocB is every Go allocation of the process.
	poolMisses int64
	allocB     uint64
	gc         float64 // runtime GC CPU seconds over the measured epochs
	compRes    float64
	commRes    float64
	gemmRows   int
	partMS     float64
	planMS     []float64 // DecideAll time of each engine build
	quality    partition.Quality
}

// runTrain repeats trials of fresh engines until the measured phase has
// lasted cfg.seconds. A traced run alternates untraced and traced trials:
// per-layer numbers come from the untraced ones, the Chrome trace from the
// traced ones, and their difference is the tracing overhead.
func runTrain(s trainSpec, cfg runConfig) (*outcome, error) {
	ds, err := loadDataset(s.dataset, cfg.seed)
	if err != nil {
		return nil, err
	}
	ref, err := referenceLosses(ds, s, cfg.seed, warmupEpochs+measuredEpochs)
	if err != nil {
		return nil, err
	}
	baseHeap := liveHeapMB()

	var coll *metrics.Collector
	if cfg.trace {
		coll = metrics.NewCollector()
	}
	trials := minTrials
	if cfg.trace {
		trials = 2 * minTrials
	}
	var runs []*trial
	start := time.Now()
	for i := 0; i < trials || time.Since(start) < cfg.seconds; i++ {
		traced := cfg.trace && i%2 == 1
		var tc *metrics.Collector
		if traced {
			tc = coll
		}
		t, err := runTrial(ds, s, cfg.seed, ref, baseHeap, traced, tc)
		if err != nil {
			return nil, err
		}
		runs = append(runs, t)
	}

	o := &outcome{values: map[string]float64{}}
	var setups, walls, tracedWalls []float64
	var cpu time.Duration
	var epochs int
	for _, t := range runs {
		o.attempted += int64(len(t.walls))
		o.failed += t.failed
		if t.fp != runs[0].fp || t.cached != runs[0].cached || t.comm != runs[0].comm {
			logf("plan changed between trials: %s (%d cached, %d comm) vs %s (%d cached, %d comm)",
				runs[0].fp, runs[0].cached, runs[0].comm, t.fp, t.cached, t.comm)
			o.failed++
		}
		if t.traced {
			tracedWalls = append(tracedWalls, t.walls...)
			continue
		}
		setups = append(setups, t.setups...)
		walls = append(walls, t.walls...)
		cpu += t.cpu
		epochs += len(t.walls)
	}
	untraced := filterTrials(runs, false)
	o.values["setup_s"] = median(setups)
	o.values["latency_ms.p50"] = median(walls)
	o.values["latency_ms.tail"] = tail(walls)
	o.values["cpu_ms_per_op"] = ms(cpu) / float64(epochs)
	o.values["live_heap_mb"] = median(collect(untraced, func(t *trial) float64 { return t.heapMB }))
	logf("plan fingerprint=%s cached=%d comm=%d", runs[0].fp, runs[0].cached, runs[0].comm)
	logf("trials=%d epochs=%d tail=p%g warmup_ms=%.1f (median over trials)", len(untraced), epochs,
		tailPercentile(len(walls)), median(collect(untraced, func(t *trial) float64 { return ms(t.warmup) })))

	recs := make([]obs.EpochRecord, 0, epochs)
	for _, t := range untraced {
		recs = append(recs, t.recs...)
	}
	bytes := collectRecs(recs, func(r *obs.EpochRecord) float64 { return float64(r.TotalBytes()) })
	msgs := collectRecs(recs, func(r *obs.EpochRecord) float64 {
		var n int64
		for _, st := range obs.StageNames() {
			n += r.StageMsgs(st)
		}
		return float64(n)
	})
	logf("exact counts bytes_per_epoch=%g msgs_per_epoch=%g (min %g/%g, max %g/%g)",
		median(bytes), median(msgs), percentile(bytes, 0), percentile(msgs, 0),
		percentile(bytes, 100), percentile(msgs, 100))
	if !cfg.trace {
		return o, nil
	}

	traced := filterTrials(runs, true)
	v := o.values
	v["partition.ms"] = median(collect(traced, func(t *trial) float64 { return t.partMS }))
	v["partition.cut_ratio"] = traced[0].quality.CutRatio
	v["partition.imbalance"] = traced[0].quality.Imbalance
	var planMS []float64
	for _, t := range untraced {
		planMS = append(planMS, t.planMS...)
	}
	v["planner.ms"] = median(planMS)
	v["plan.cached_deps"] = float64(runs[0].cached)
	v["plan.comm_deps"] = float64(runs[0].comm)
	v["engine.build_ms"] = 1000*v["setup_s"] - v["partition.ms"] - v["planner.ms"]
	v["engine.straggler_index"] = median(collectRecs(recs, func(r *obs.EpochRecord) float64 { return r.StragglerIndex }))
	for _, st := range []string{"forward", "backward", "barrier", "dep_fetch_recv", "mirror_scatter", "grad_sync"} {
		v["stage."+st+"_ms"] = 1000 * median(collectRecs(recs, func(r *obs.EpochRecord) float64 { return r.StageSeconds(st) }))
	}
	v["comm.bytes_per_epoch"] = median(bytes)
	v["comm.msgs_per_epoch"] = median(msgs)
	var poolMisses int64
	var allocB uint64
	var gc float64
	var cpuUntraced time.Duration
	for _, t := range untraced {
		poolMisses += t.poolMisses
		allocB += t.allocB
		gc += t.gc
		cpuUntraced += t.cpu
	}
	v["tensor.allocs_per_epoch"] = float64(poolMisses) / float64(epochs)
	v["runtime.alloc_mb_per_epoch"] = float64(allocB) / float64(epochs) / (1 << 20)
	v["runtime.gc_cpu_share"] = gc / cpuUntraced.Seconds()
	v["tensor.pool_hit_rate"] = median(collect(untraced, func(t *trial) float64 { return t.pool.HitRate() }))
	v["tensor.pool_high_water_mb"] = median(collect(untraced, func(t *trial) float64 { return float64(t.pool.HighWaterBytes) / (1 << 20) }))
	v["costmodel.compute_residual"] = median(collect(untraced, func(t *trial) float64 { return t.compRes }))
	v["costmodel.comm_residual"] = median(collect(untraced, func(t *trial) float64 { return t.commRes }))
	v["obs.trace_overhead_ms"] = median(tracedWalls) - median(walls)

	tr := coll.Tracer()
	msgSize := obs.Default().Histogram("ns_comm_message_bytes", "Wire size of sent messages.", obs.SizeBuckets).Quantile(0.5)
	sp := tr.Start(benchRow, obs.ClassNone, "probe.fabric_rtt", obs.Float("msg_bytes", msgSize))
	v["comm.rtt_us"] = probeRTT(s.profile, int(msgSize))
	sp.End()
	hidden := ds.Spec.HiddenDim
	sp = tr.Start(benchRow, obs.ClassNone, "probe.gemm",
		obs.Int("rows", traced[0].gemmRows), obs.Int("k", ds.Spec.FeatureDim), obs.Int("n", hidden))
	v["tensor.gemm_gflops"] = probeGEMM(traced[0].gemmRows, ds.Spec.FeatureDim, hidden)
	sp.End()
	return o, writeTrace(cfg, tr, func(row int) string {
		if row == benchRow {
			return "benchmark"
		}
		return fmt.Sprintf("worker %d", row)
	})
}

// runTrial builds one engine, runs its warm-up and measured epochs, checks
// every loss against the reference and takes the trial's measurements.
func runTrial(ds *dataset.Dataset, s trainSpec, seed uint64, ref []float64, baseHeap float64,
	traced bool, coll *metrics.Collector) (*trial, error) {
	t := &trial{traced: traced}
	rec := obs.NewFlightRecorder()
	tr := coll.Tracer()
	var part *partition.Partition
	if traced {
		rec.EnableCausal()
		// The engine partitions inside NewEngine; this is the same public
		// call with the same input, timed from outside.
		sp := tr.Start(benchRow, obs.ClassNone, "partition.New")
		t0 := time.Now()
		var err error
		part, err = partition.New(partition.Chunk, ds.Graph, trainWorkers)
		t.partMS = ms(time.Since(t0))
		sp.End()
		if err != nil {
			return nil, err
		}
		t.quality = partition.Evaluate(part, ds.Graph)
	}

	var eng *engine.Engine
	var pool *tensor.Pool
	for b := 0; b < setupBuilds; b++ {
		if eng != nil {
			eng.Close()
		}
		pool = tensor.NewPool()
		runtime.GC()
		sp := tr.Start(benchRow, obs.ClassNone, "engine.NewEngine")
		t0 := time.Now()
		e, err := engine.NewEngine(ds, s.engineOptions(seed, trainWorkers, pool, rec, coll))
		t.setups = append(t.setups, time.Since(t0).Seconds())
		if err != nil {
			sp.End()
			return nil, err
		}
		// The planner's DecideAll runs inside NewEngine, which times it.
		t.planMS = append(t.planMS, ms(e.PreprocessTime))
		sp.SetAttrs(obs.Float("decide_all_ms", ms(e.PreprocessTime)))
		sp.End()
		eng = e
	}
	defer eng.Close()
	decs := eng.Decisions()
	t.fp = fingerprint(decs)
	t.cached, t.comm = planCounts(decs)
	if part != nil {
		// The dominant GEMM shape: a worker's owned rows plus its layer-1
		// cached dependencies, by the feature and hidden widths.
		counts := make([]int, trainWorkers)
		for _, p := range part.Assign {
			counts[p]++
		}
		for i, d := range decs {
			if len(d.R) > 0 {
				t.gemmRows = max(t.gemmRows, counts[i]+len(d.R[0]))
			}
		}
	}

	epoch := func(i int) time.Duration {
		sp := tr.Start(benchRow, obs.ClassNone, "engine.RunEpoch", obs.Int("epoch", i+1))
		st := eng.RunEpoch()
		sp.End()
		if d := math.Abs(st.Loss - ref[i]); !(d <= lossTol) {
			logf("epoch %d loss %.9g, reference %.9g", i+1, st.Loss, ref[i])
			t.failed++
		}
		return st.Duration
	}
	for i := 0; i < warmupEpochs; i++ {
		t.warmup += epoch(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0 := pool.Stats()
	gc0 := gcCPU()
	c0 := cpuTime()
	for i := warmupEpochs; i < warmupEpochs+measuredEpochs; i++ {
		t.walls = append(t.walls, ms(epoch(i)))
	}
	t.cpu = cpuTime() - c0
	t.gc = gcCPU() - gc0
	runtime.ReadMemStats(&m1)
	t.poolMisses = pool.Stats().Misses - p0.Misses
	t.allocB = m1.TotalAlloc - m0.TotalAlloc
	t.heapMB = liveHeapMB() - baseHeap
	t.pool = pool.Stats()
	t.recs = rec.Snapshot()[warmupEpochs : warmupEpochs+measuredEpochs]
	if cr := eng.CostReportFrom(t.recs); cr != nil {
		for _, lr := range cr.Layers {
			t.compRes = max(t.compRes, math.Abs(lr.ComputeResidual))
			t.commRes = max(t.commRes, math.Abs(lr.CommResidual))
		}
	}
	return t, nil
}

func filterTrials(ts []*trial, traced bool) []*trial {
	var out []*trial
	for _, t := range ts {
		if t.traced == traced {
			out = append(out, t)
		}
	}
	return out
}

func collect(ts []*trial, f func(*trial) float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t)
	}
	return out
}

func collectRecs(recs []obs.EpochRecord, f func(*obs.EpochRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = f(&recs[i])
	}
	return out
}

// writeTrace writes the run's spans as a Chrome trace.
func writeTrace(cfg runConfig, tr *obs.Tracer, rowName func(int) string) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteChromeTrace(f, rowName)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		logf("chrome trace written to %s", path)
	}
	return err
}

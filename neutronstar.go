// Package neutronstar is a Go reproduction of "NeutronStar: Distributed GNN
// Training with Hybrid Dependency Management" (SIGMOD 2022): a distributed
// full-graph GNN training system that decides, per remote vertex dependency
// and per layer, whether to replicate the dependency's multi-hop
// neighborhood locally (DepCache) or to fetch its representation over the
// network every epoch (DepComm), using a probed cost model and a greedy
// partitioner (the paper's Algorithm 4).
//
// The "cluster" is simulated in-process: workers are goroutine groups that
// communicate exclusively through a message fabric with configurable
// bandwidth and latency, so the distributed algorithms — master–mirror
// exchange, ring scheduling, overlap, ring all-reduce — run for real, on one
// machine. All tensor math is genuine float32 computation; training
// converges and accuracy numbers are meaningful.
//
// Quick start:
//
//	ds, _ := neutronstar.LoadDataset("reddit")
//	s, _ := neutronstar.NewSession(ds, neutronstar.Config{
//		Workers: 8,
//		Engine:  neutronstar.EngineHybrid,
//		Model:   neutronstar.ModelGCN,
//	})
//	defer s.Close()
//	for _, ep := range s.Train(50) {
//		fmt.Printf("epoch %d loss %.4f (%.0f ms)\n", ep.Epoch, ep.Loss, ep.Millis)
//	}
//	fmt.Printf("test accuracy: %.2f%%\n", 100*s.Accuracy(neutronstar.SplitTest))
package neutronstar

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"neutronstar/internal/ckpt"
	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/metrics"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
	"neutronstar/internal/serve"
	"neutronstar/internal/tensor"
)

// EngineKind selects the dependency-management strategy.
type EngineKind string

// The three engines of the paper, plus the tensor-parallel policy (DepTP,
// after NeutronTP) and the 3-way planner that mixes it in per layer. See
// POLICIES.md for the decision matrix.
const (
	EngineDepCache EngineKind = "depcache"
	EngineDepComm  EngineKind = "depcomm"
	EngineHybrid   EngineKind = "hybrid"
	EngineDepTP    EngineKind = "deptp"
	EngineHybrid3  EngineKind = "hybrid3"
)

// ModelKind selects the GNN architecture.
type ModelKind string

// The three models of the paper's evaluation.
const (
	ModelGCN ModelKind = "gcn"
	ModelGIN ModelKind = "gin"
	ModelGAT ModelKind = "gat"
	// ModelSAGE is a GraphSAGE-style max-pooling model (extension beyond the
	// paper's three evaluated architectures).
	ModelSAGE ModelKind = "sage"
)

// NetworkKind names a simulated cluster fabric.
type NetworkKind string

// Cluster presets: Local is unthrottled in-memory, ECS approximates the
// paper's 6 Gb/s Aliyun cluster regime, IBV the 100 Gb/s InfiniBand cluster.
const (
	NetworkLocal NetworkKind = "local"
	NetworkECS   NetworkKind = "ecs"
	NetworkIBV   NetworkKind = "ibv"
)

// PartitionerKind names a graph partitioning algorithm.
type PartitionerKind string

// The partitioners evaluated in the paper's Figure 15.
const (
	PartitionChunk  PartitionerKind = "chunk"
	PartitionMetis  PartitionerKind = "metis"
	PartitionFennel PartitionerKind = "fennel"
)

// Split selects a labeled vertex subset for evaluation.
type Split int

// Dataset splits.
const (
	SplitTrain Split = iota
	SplitVal
	SplitTest
)

// Config configures a training session. Zero values select sensible
// defaults: 1 worker, Hybrid engine, GCN, unthrottled network, chunk
// partitioning, learning rate 0.01.
type Config struct {
	Workers     int
	Engine      EngineKind
	Model       ModelKind
	Network     NetworkKind
	Partitioner PartitionerKind
	// HiddenDim overrides the dataset's default hidden layer size; Layers
	// sets the propagation depth L (default 2, as in the paper).
	HiddenDim int
	Layers    int
	// Ring, LockFree and Overlap are the paper's R/L/P optimisations.
	Ring, LockFree, Overlap bool
	// TCP runs all worker communication over real loopback TCP sockets.
	TCP     bool
	LR      float64
	Dropout float64
	Seed    uint64
	// ClipNorm, when > 0, clips the global gradient norm before each step.
	ClipNorm float64
	// Schedule optionally decays the learning rate over epochs.
	Schedule LRSchedule
	// MemBudgetBytes caps per-worker replica storage for the Hybrid engine.
	MemBudgetBytes int64
	// CacheQuant selects the storage format of cached feature rows for any
	// engine whose plan caches dependencies: "off" (default, exact), "fp16"
	// or "int8". Owners keep full precision. See
	// partition.RequantizeErrorBound for the per-element error bounds.
	CacheQuant string
	// Metrics enables utilisation collection (see Session.Metrics).
	Metrics bool
	// CkptDir enables checkpointing: a full training snapshot (parameters,
	// optimiser moments, RNG positions, loss history) is written into this
	// directory at every CkptEvery-th epoch barrier, and Resume restores the
	// newest one. Empty disables checkpointing.
	CkptDir string
	// CkptEvery is the checkpoint cadence in epochs (<=1 means every epoch).
	CkptEvery int
	// CkptRetain caps how many snapshots are kept (0 = default 3, negative =
	// unlimited).
	CkptRetain int
	// FaultSpec enables deterministic network fault injection, e.g.
	// "drop=0.05,jitter=1ms,seed=7" — see the grammar in internal/comm's
	// ParseFaultSpec. Faults degrade timing, never message content, so a
	// faulted run converges to the same losses as a clean one. Empty
	// disables injection.
	FaultSpec string
	// Pool recycles training-time tensor storage (tape intermediates,
	// gradients, message payloads) through a size-bucketed allocator whose
	// arenas drain back at every epoch barrier, cutting per-epoch heap
	// allocations sharply. Results are bit-identical either way: pooled
	// buffers are zeroed on checkout, so disabling the pool reproduces the
	// exact same training trajectory. Ignored under FaultSpec (retransmission
	// goroutines may hold payloads past the barrier).
	Pool bool
	// CritPath enables causal recording: every message carries a trace
	// context, each epoch closes with a critical-path extraction and
	// straggler indices (served on /critpath and via SlowEpochReport), and
	// the Chrome trace export gains cross-worker flow arrows.
	CritPath bool
	// WatchRules enables the anomaly watchdog, e.g.
	// "stall=30s,regress=1.5,straggler=3.0" or "default" — see the grammar
	// in internal/obs's ParseWatchRules. Alerts are logged, counted in the
	// metric registry and served on /healthwatch. Empty disables watching.
	WatchRules string
}

// LRSchedule selects a learning-rate decay policy. The zero value keeps a
// constant rate.
type LRSchedule struct {
	// Kind is "", "step" or "cosine".
	Kind string
	// StepSize/Gamma configure "step": LR *= Gamma every StepSize epochs.
	StepSize int
	Gamma    float64
	// MinLR/Span configure "cosine": anneal from LR to MinLR over Span epochs.
	MinLR float64
	Span  int
}

func (l LRSchedule) toScheduler(base float64) (nn.Scheduler, error) {
	switch l.Kind {
	case "":
		return nil, nil
	case "step":
		return nn.StepLR{Base: float32(base), StepSize: l.StepSize, Gamma: float32(l.Gamma)}, nil
	case "cosine":
		return nn.CosineLR{Base: float32(base), Min: float32(l.MinLR), Span: l.Span}, nil
	default:
		return nil, fmt.Errorf("neutronstar: unknown LR schedule %q", l.Kind)
	}
}

// Dataset is a graph with features, labels and train/val/test splits.
type Dataset struct {
	inner *dataset.Dataset
}

// LoadDataset generates one of the built-in synthetic datasets (see Names).
func LoadDataset(name string) (*Dataset, error) {
	ds, err := dataset.LoadByName(name)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// DatasetNames lists the built-in datasets (the paper's Table 2 corpus).
func DatasetNames() []string { return dataset.Names() }

// NewDataset builds a custom dataset from a directed edge list (edges[k] =
// [src, dst]; dst aggregates from src), per-vertex feature rows, integer
// class labels, and a train fraction in (0, 1]; the remainder is split
// evenly between validation and test.
func NewDataset(numVertices int, edges [][2]int, features [][]float32, labels []int, numClasses int, hiddenDim int, seed uint64) (*Dataset, error) {
	if len(features) != numVertices || len(labels) != numVertices {
		return nil, fmt.Errorf("neutronstar: %d vertices but %d feature rows, %d labels",
			numVertices, len(features), len(labels))
	}
	if numVertices == 0 {
		return nil, fmt.Errorf("neutronstar: empty dataset")
	}
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{Src: int32(e[0]), Dst: int32(e[1])}
	}
	g, err := graph.FromEdges(numVertices, es)
	if err != nil {
		return nil, err
	}
	ftr := tensor.FromRows(features)
	lbl := make([]int32, numVertices)
	for i, l := range labels {
		if l < 0 || l >= numClasses {
			return nil, fmt.Errorf("neutronstar: label %d out of [0,%d)", l, numClasses)
		}
		lbl[i] = int32(l)
	}
	inner := &dataset.Dataset{
		Spec: dataset.Spec{
			Name: "custom", Vertices: numVertices,
			FeatureDim: ftr.Cols(), NumClasses: numClasses, HiddenDim: hiddenDim,
			Seed: seed,
		},
		Graph: g, Features: ftr, Labels: lbl,
	}
	rng := tensor.NewRNG(seed ^ 0x5EED)
	inner.TrainMask = make([]bool, numVertices)
	inner.ValMask = make([]bool, numVertices)
	inner.TestMask = make([]bool, numVertices)
	for i, p := range rng.Perm(numVertices) {
		switch {
		case i < numVertices*6/10:
			inner.TrainMask[p] = true
		case i < numVertices*8/10:
			inner.ValMask[p] = true
		default:
			inner.TestMask[p] = true
		}
	}
	return &Dataset{inner: inner}, nil
}

// NumVertices returns |V|.
func (d *Dataset) NumVertices() int { return d.inner.NumVertices() }

// NumEdges returns |E|.
func (d *Dataset) NumEdges() int { return d.inner.NumEdges() }

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.inner.Spec.Name }

// EpochResult reports one training epoch.
type EpochResult struct {
	Epoch  int
	Loss   float64
	Millis float64
	// CkptErr reports a failed checkpoint save at this epoch (training
	// continued; the previous snapshot is still intact on disk).
	CkptErr error
}

// Session is a live distributed training run.
type Session struct {
	ds    *Dataset
	eng   *engine.Engine
	coll  *metrics.Collector
	store *ckpt.Store
	rec   *obs.FlightRecorder
	watch *obs.Watchdog
	hist  *obs.History

	mu        sync.Mutex
	lastEpoch int
	lastLoss  float64
}

// NewSession builds the simulated cluster and plans dependency management
// per the configured engine. Close must be called when done.
func NewSession(ds *Dataset, cfg Config) (*Session, error) {
	opts, coll, err := toEngineOptions(cfg)
	if err != nil {
		return nil, err
	}
	var store *ckpt.Store
	if cfg.CkptDir != "" {
		store, err = ckpt.OpenStore(cfg.CkptDir)
		if err != nil {
			return nil, err
		}
		store.Retain = cfg.CkptRetain
		opts.Ckpt = &ckpt.Saver{Store: store, Every: cfg.CkptEvery}
	}
	// Every session records its epoch flights: the recorder's hot path is a
	// handful of atomic adds per stage switch, cheap enough to keep always-on.
	rec := obs.NewFlightRecorder()
	if cfg.CritPath {
		rec.EnableCausal()
	}
	opts.Recorder = rec
	var watch *obs.Watchdog
	if cfg.WatchRules != "" {
		rules, err := obs.ParseWatchRules(cfg.WatchRules)
		if err != nil {
			return nil, err
		}
		watch = obs.NewWatchdog(rules, nil, obs.Default())
	}
	// Every session keeps a metric history, sampled at each epoch barrier
	// (engine wiring below); the serving SLO rules evaluate on every sample.
	hist := obs.NewHistory(obs.Default(), 0)
	if watch != nil {
		hist.SetOnSample(func() { watch.EvaluateSLO(hist) })
	}
	opts.History = hist
	eng, err := engine.NewEngine(ds.inner, opts)
	if err != nil {
		return nil, err
	}
	return &Session{ds: ds, eng: eng, coll: coll, store: store, rec: rec, watch: watch, hist: hist}, nil
}

// Resume restores the newest snapshot in Config.CkptDir and reports whether
// one was loaded: (false, nil) means an empty checkpoint directory — the
// normal state of a fresh run. A snapshot taken under a different dataset,
// partitioning, model or seed is rejected with an error.
func (s *Session) Resume() (bool, error) {
	if s.store == nil {
		return false, fmt.Errorf("neutronstar: session has no checkpoint directory (set Config.CkptDir)")
	}
	snap, err := s.store.LoadLatest()
	if err != nil {
		return false, err
	}
	if snap == nil {
		return false, nil
	}
	if err := s.eng.Restore(snap); err != nil {
		return false, err
	}
	s.mu.Lock()
	s.lastEpoch = snap.Epoch
	if n := len(snap.History); n > 0 {
		s.lastLoss = snap.History[n-1].Loss
	}
	s.mu.Unlock()
	return true, nil
}

// Checkpoint forces an immediate snapshot save, regardless of the CkptEvery
// cadence. The session must not be training concurrently.
func (s *Session) Checkpoint() error {
	if s.store == nil {
		return fmt.Errorf("neutronstar: session has no checkpoint directory (set Config.CkptDir)")
	}
	_, err := s.store.Save(s.eng.Snapshot())
	return err
}

// History returns every completed epoch's result, including epochs restored
// from a snapshot — a resumed run reports a continuous loss curve.
func (s *Session) History() []EpochResult {
	hist := s.eng.History()
	out := make([]EpochResult, 0, len(hist))
	for _, st := range hist {
		out = append(out, EpochResult{
			Epoch: st.Epoch, Loss: st.Loss,
			Millis: float64(st.Duration.Microseconds()) / 1000,
		})
	}
	return out
}

func toEngineOptions(cfg Config) (engine.Options, *metrics.Collector, error) {
	var profile comm.NetworkProfile
	switch cfg.Network {
	case NetworkLocal, "":
		profile = comm.ProfileLocal
	case NetworkECS:
		profile = comm.ProfileECS
	case NetworkIBV:
		profile = comm.ProfileIBV
	default:
		return engine.Options{}, nil, fmt.Errorf("neutronstar: unknown network %q", cfg.Network)
	}
	var model nn.ModelKind
	switch cfg.Model {
	case ModelGCN, "":
		model = nn.GCN
	case ModelGIN:
		model = nn.GIN
	case ModelGAT:
		model = nn.GAT
	case ModelSAGE:
		model = nn.SAGE
	default:
		return engine.Options{}, nil, fmt.Errorf("neutronstar: unknown model %q", cfg.Model)
	}
	var coll *metrics.Collector
	if cfg.Metrics {
		coll = metrics.NewCollector()
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.01
	}
	sched, err := cfg.Schedule.toScheduler(lr)
	if err != nil {
		return engine.Options{}, nil, err
	}
	var fault *comm.FaultSpec
	if cfg.FaultSpec != "" {
		fault, err = comm.ParseFaultSpec(cfg.FaultSpec)
		if err != nil {
			return engine.Options{}, nil, err
		}
	}
	var pool *tensor.Pool
	if cfg.Pool {
		pool = tensor.NewPool()
	}
	return engine.Options{
		Workers:     cfg.Workers,
		Mode:        engine.Mode(cfg.Engine), // validated by engine.NewEngine
		Model:       model,
		Hidden:      cfg.HiddenDim,
		Layers:      cfg.Layers,
		Partitioner: partition.Algorithm(cfg.Partitioner),
		Profile:     profile,
		Ring:        cfg.Ring,
		LockFree:    cfg.LockFree,
		Overlap:     cfg.Overlap,
		TCP:         cfg.TCP,
		LR:          float32(cfg.LR),
		Scheduler:   sched,
		ClipNorm:    cfg.ClipNorm,
		Dropout:     float32(cfg.Dropout),
		Seed:        cfg.Seed,
		MemBudget:   cfg.MemBudgetBytes,
		CacheQuant:  partition.RepQuant(cfg.CacheQuant), // validated by engine.NewEngine
		Collector:   coll,
		Fault:       fault,
		Pool:        pool,
	}, coll, nil
}

// Train runs the given number of epochs and returns per-epoch results.
func (s *Session) Train(epochs int) []EpochResult {
	out := make([]EpochResult, 0, epochs)
	for i := 0; i < epochs; i++ {
		st := s.eng.RunEpoch()
		s.mu.Lock()
		s.lastEpoch, s.lastLoss = st.Epoch, st.Loss
		s.mu.Unlock()
		if s.watch != nil {
			if rec, ok := s.rec.Last(); ok {
				s.watch.ObserveEpoch(rec)
			}
		}
		out = append(out, EpochResult{
			Epoch: st.Epoch, Loss: st.Loss,
			Millis:  float64(st.Duration.Microseconds()) / 1000,
			CkptErr: st.CkptErr,
		})
	}
	return out
}

// Status is a point-in-time snapshot of a session, served as JSON by the
// debug server's /status endpoint.
type Status struct {
	Dataset string `json:"dataset"`
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	// Epoch/Loss reflect the last completed epoch (zero before training).
	Epoch int     `json:"epoch"`
	Loss  float64 `json:"loss"`
	// Traffic totals require Config.Metrics; zero otherwise.
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
	// ComputeBusy / CommBusy are per-worker busy fractions of the elapsed
	// run time (the live view of the paper's Figure 13 utilisation curves),
	// read from the stage clock: compute is time in the forward and backward
	// stages, comm time in the dependency-exchange and gradient-sync stages
	// (metrics.StageKind). Barrier idling and time between epochs count as
	// neither, so the two sum to at most 1 per worker.
	ComputeBusy map[int]float64 `json:"compute_busy,omitempty"`
	CommBusy    map[int]float64 `json:"comm_busy,omitempty"`
}

// Status snapshots the session. Safe to call concurrently with Train — the
// debug server polls it from its own goroutines.
func (s *Session) Status() Status {
	s.mu.Lock()
	st := Status{Epoch: s.lastEpoch, Loss: s.lastLoss}
	s.mu.Unlock()
	st.Dataset = s.ds.Name()
	st.Engine = string(s.eng.Mode())
	st.Workers = s.eng.NumWorkers()
	if s.coll != nil {
		st.BytesSent = s.coll.BytesSent()
		st.BytesReceived = s.coll.BytesReceived()
		if elapsed := s.coll.Elapsed().Seconds(); elapsed > 0 {
			st.ComputeBusy = busyFractions(s.coll.BusyByWorker(metrics.Compute), elapsed)
			st.CommBusy = busyFractions(s.coll.BusyByWorker(metrics.Comm), elapsed)
		}
	}
	return st
}

func busyFractions(busy map[int]time.Duration, elapsed float64) map[int]float64 {
	if len(busy) == 0 {
		return nil
	}
	out := make(map[int]float64, len(busy))
	for w, d := range busy {
		out[w] = d.Seconds() / elapsed
	}
	return out
}

// TrainEpoch runs a single epoch.
func (s *Session) TrainEpoch() EpochResult {
	return s.Train(1)[0]
}

// Accuracy evaluates classification accuracy on the chosen split using a
// full-graph inference pass with the current parameters.
func (s *Session) Accuracy(split Split) float64 {
	switch split {
	case SplitTrain:
		return s.eng.Evaluate(s.ds.inner.TrainMask)
	case SplitVal:
		return s.eng.Evaluate(s.ds.inner.ValMask)
	default:
		return s.eng.Evaluate(s.ds.inner.TestMask)
	}
}

// CacheBytes returns the total replica storage the engine allocated — zero
// for pure DepComm, maximal for pure DepCache.
func (s *Session) CacheBytes() int64 { return s.eng.CacheBytes() }

// PreprocessMillis returns the hybrid dependency-partitioning time.
func (s *Session) PreprocessMillis() float64 {
	return float64(s.eng.PreprocessTime.Microseconds()) / 1000
}

// DependencySummary reports, per layer, how many remote dependencies were
// cached versus communicated across all workers.
func (s *Session) DependencySummary() (cached, communicated []int) {
	decs := s.eng.Decisions()
	if len(decs) == 0 {
		return nil, nil
	}
	L := len(decs[0].R)
	cached = make([]int, L)
	communicated = make([]int, L)
	for _, d := range decs {
		for l := 0; l < L; l++ {
			cached[l] += len(d.R[l])
			communicated[l] += len(d.C[l])
		}
	}
	return cached, communicated
}

// StageBreakdown is one stage's per-epoch mean attribution across the run:
// how many seconds the cluster spent in the stage each epoch, and how many
// bytes and messages the stage moved.
type StageBreakdown struct {
	Stage   string
	Seconds float64
	Bytes   int64
	Msgs    int64
}

// StageReport aggregates the flight recorder into per-stage per-epoch means.
// Empty before the first trained epoch. Stages that never accumulated time
// or traffic are omitted.
func (s *Session) StageReport() []StageBreakdown {
	recs := s.rec.Snapshot()
	if len(recs) == 0 {
		return nil
	}
	n := float64(len(recs))
	var out []StageBreakdown
	for _, stage := range obs.StageNames() {
		var sec float64
		var b, m int64
		for i := range recs {
			sec += recs[i].StageSeconds(stage)
			b += recs[i].StageBytes(stage)
			m += recs[i].StageMsgs(stage)
		}
		if sec == 0 && b == 0 && m == 0 {
			continue
		}
		out = append(out, StageBreakdown{Stage: stage, Seconds: sec / n,
			Bytes: int64(float64(b) / n), Msgs: int64(float64(m) / n)})
	}
	return out
}

// FlightTimeline returns the per-epoch flight records plus the cost-model
// validation as a JSON-marshalable value — the payload of the debug server's
// /epochs endpoint. Safe to call concurrently with Train.
func (s *Session) FlightTimeline() any {
	out := map[string]any{"epochs": s.rec.Snapshot()}
	if cr := s.eng.CostReport(); cr != nil {
		out["cost_report"] = cr
	}
	return out
}

// CritPathTimeline returns per-epoch critical paths and straggler indices as
// a JSON-marshalable value — the payload of the debug server's /critpath
// endpoint. Paths are non-null only under Config.CritPath; the straggler
// fields are always populated. Safe to call concurrently with Train.
func (s *Session) CritPathTimeline() any {
	type entry struct {
		Epoch          int           `json:"epoch"`
		WallSeconds    float64       `json:"wall_seconds"`
		StragglerIndex float64       `json:"straggler_index"`
		BarrierShare   float64       `json:"barrier_share"`
		SlowestWorker  int           `json:"slowest_worker"`
		CritPath       *obs.CritPath `json:"crit_path,omitempty"`
	}
	recs := s.rec.Snapshot()
	out := make([]entry, 0, len(recs))
	for _, r := range recs {
		out = append(out, entry{
			Epoch: r.Epoch, WallSeconds: r.WallSeconds,
			StragglerIndex: r.StragglerIndex, BarrierShare: r.BarrierShare,
			SlowestWorker: r.SlowestWorker, CritPath: r.CritPath,
		})
	}
	return map[string]any{"causal": s.rec.CausalEnabled(), "epochs": out}
}

// Watchdog returns the session's anomaly watchdog, or nil if
// Config.WatchRules was empty.
func (s *Session) Watchdog() *obs.Watchdog { return s.watch }

// MetricHistory returns the session's metric time-series ring buffer — the
// payload source of the debug server's /timeline endpoint. It is sampled at
// every epoch barrier; call its Start for periodic sampling between epochs
// (the session's Close stops it either way).
func (s *Session) MetricHistory() *obs.History { return s.hist }

// HealthWatch returns the watchdog's health report — the payload of the
// debug server's /healthwatch endpoint. Without a watchdog it reports
// healthy with no rules.
func (s *Session) HealthWatch() obs.HealthReport { return s.watch.Health() }

// SlowEpochReport renders the "why was this epoch slow" analysis as
// human-readable lines: the run's slowest epoch, its critical-path
// breakdown, and the straggler verdict. Empty before the first trained
// epoch; critical-path lines require Config.CritPath.
func (s *Session) SlowEpochReport() []string {
	recs := s.rec.Snapshot()
	if len(recs) == 0 {
		return nil
	}
	slow, wallSum := recs[0], 0.0
	for _, r := range recs {
		wallSum += r.WallSeconds
		if r.WallSeconds > slow.WallSeconds {
			slow = r
		}
	}
	mean := wallSum / float64(len(recs))
	lines := []string{fmt.Sprintf(
		"slowest epoch: %d at %.3fs (run mean %.3fs, %.2fx)",
		slow.Epoch, slow.WallSeconds, mean, slow.WallSeconds/mean)}
	if slow.Workers > 1 && slow.StragglerIndex > 0 {
		lines = append(lines, fmt.Sprintf(
			"straggler index %.2f (worker %d slowest, barrier share %.0f%%)",
			slow.StragglerIndex, slow.SlowestWorker, 100*slow.BarrierShare))
	}
	if p := slow.CritPath; p != nil {
		label, share := p.Dominant()
		lines = append(lines, fmt.Sprintf(
			"critical path: %d spans covering %.3fs of %.3fs wall; dominant %s at %.0f%%",
			len(p.Spans), p.CoveredSeconds, p.WallSeconds, label, 100*share))
		type kv struct {
			label string
			sec   float64
		}
		var parts []kv
		for l, sec := range p.Breakdown() {
			parts = append(parts, kv{l, sec})
		}
		sort.Slice(parts, func(i, j int) bool {
			if parts[i].sec != parts[j].sec {
				return parts[i].sec > parts[j].sec
			}
			return parts[i].label < parts[j].label
		})
		for i, part := range parts {
			if i == 3 {
				break // the top three explain the epoch; the rest is noise
			}
			lines = append(lines, fmt.Sprintf("  %-24s %.3fs (%.0f%%)",
				part.label, part.sec, 100*part.sec/p.CoveredSeconds))
		}
	}
	return lines
}

// CostSummary renders the cost-model validation (probed vs. fitted factors,
// per-layer residuals, counterfactual plan flips) as human-readable lines.
// Empty before the first trained epoch.
func (s *Session) CostSummary() []string {
	cr := s.eng.CostReport()
	if cr == nil {
		return nil
	}
	lines := []string{fmt.Sprintf(
		"cost model: probed Tv=%.3g Te=%.3g Tc=%.3g; fitted Tv=%.3g Te=%.3g Tc=%.3g (%s)",
		cr.Probed.Tv, cr.Probed.Te, cr.Probed.Tc,
		cr.Fitted.Tv, cr.Fitted.Te, cr.Fitted.Tc, cr.FitMethod)}
	for _, lr := range cr.Layers {
		lines = append(lines, fmt.Sprintf(
			"layer %d: compute meas/pred %.3g/%.3gs (res %+.0f%%), comm meas/pred %.3g/%.3gs (res %+.0f%%)",
			lr.Layer, lr.MeasComputeSeconds, lr.PredComputeSeconds, 100*lr.ComputeResidual,
			lr.MeasCommSeconds, lr.PredCommSeconds, 100*lr.CommResidual))
	}
	flip := fmt.Sprintf(
		"counterfactual (fitted costs): %d/%d decisions flip (%d cache->comm, %d comm->cache)",
		cr.Flips.Flips(), cr.Flips.Slots, cr.Flips.CacheToComm, cr.Flips.CommToCache)
	if cr.Flips.ToTP > 0 || cr.Flips.FromTP > 0 {
		flip += fmt.Sprintf(" + %d layers to TP, %d from TP", cr.Flips.ToTP, cr.Flips.FromTP)
	}
	lines = append(lines, flip)
	return lines
}

// Metrics returns the utilisation collector, or nil if Config.Metrics was
// false.
func (s *Session) Metrics() *metrics.Collector { return s.coll }

// ReplicationFactor reports the vertex replication factor of the loaded plan,
// (|V| + cached feature rows) / |V|; 1.0 when nothing is cached.
func (s *Session) ReplicationFactor() float64 { return s.eng.ReplicationFactor() }

// Close tears down the simulated cluster and stops the metric history's
// periodic sampler.
func (s *Session) Close() {
	s.hist.Stop()
	s.eng.Close()
}

// ServeSource exposes the session's live parameters as a model source for a
// serve.Server: the version advances with every optimiser step (and on
// LoadModel/Restore), so a co-located serving path invalidates its embedding
// cache exactly when training moves the parameters.
func (s *Session) ServeSource() serve.Source { return serve.EngineSource(s.eng) }

// ServeConfig returns a serve.Config pre-filled with the session's graph,
// feature matrix and live model source. Callers set pool sizes, batching and
// cache budget before handing it to serve.New.
func (s *Session) ServeConfig() serve.Config {
	return serve.Config{
		Graph:    s.ds.inner.Graph,
		Features: s.ds.inner.Features,
		Source:   serve.EngineSource(s.eng),
	}
}

// SaveModel writes the current model parameters to w (gob encoding).
func (s *Session) SaveModel(w io.Writer) error { return s.eng.SaveModel(w) }

// LoadModel restores parameters previously saved with SaveModel into every
// worker replica. The checkpoint must match the session's architecture.
func (s *Session) LoadModel(r io.Reader) error { return s.eng.LoadModel(r) }

// SaveDataset writes a dataset to dir in the plain-text directory format
// (see internal/dataset: meta.txt, graph.txt, features.txt, labels.txt).
func SaveDataset(d *Dataset, dir string) error { return d.inner.Save(dir) }

// LoadDatasetDir reads a dataset directory previously written by
// SaveDataset (or hand-authored in the same format).
func LoadDatasetDir(dir string) (*Dataset, error) {
	inner, err := dataset.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: inner}, nil
}

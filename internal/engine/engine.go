package engine

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neutronstar/internal/ckpt"
	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/metrics"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// Mode selects the dependency-management strategy.
type Mode string

const (
	// DepCache replicates every remote dependency's subtree (Algorithm 2).
	DepCache Mode = "depcache"
	// DepComm communicates every remote dependency per layer (Algorithm 3).
	DepComm Mode = "depcomm"
	// Hybrid splits dependencies by the Algorithm 4 cost model.
	Hybrid Mode = "hybrid"
	// DepTP runs every layer tensor-parallel: full graph structure on every
	// worker, features/aggregations/gradients sharded along the feature
	// dimension, dependency traffic replaced by slice-exchange collectives.
	DepTP Mode = "deptp"
	// Hybrid3 widens the planner to a per-layer 3-way choice: the Algorithm 4
	// cache/comm split competes against tensor-parallel suffixes on modeled
	// cost.
	Hybrid3 Mode = "hybrid3"
)

// ModeNames lists every engine mode string, in declaration order — the
// single source of truth for CLI flag validation and the doclint
// flag-to-doc cross-check.
func ModeNames() []string {
	return []string{
		string(DepCache), string(DepComm), string(Hybrid),
		string(DepTP), string(Hybrid3),
	}
}

// Options configures an Engine.
type Options struct {
	// Workers is the simulated cluster size m.
	Workers int
	// Mode selects the policy or planner (ModeNames lists them all).
	Mode Mode
	// Model selects the GNN architecture; Hidden overrides the dataset's
	// default hidden dimension when > 0; Layers sets the propagation depth L
	// (default 2, as in all of the paper's experiments — the machinery
	// supports arbitrary depth, with dependency subtrees growing accordingly).
	Model  nn.ModelKind
	Hidden int
	Layers int
	// Partitioner selects the graph partitioning algorithm (default Chunk).
	Partitioner partition.Algorithm
	// Profile is the simulated network; default ProfileLocal (unthrottled).
	Profile comm.NetworkProfile
	// TCP moves all worker communication over real loopback TCP sockets
	// (with the profile's pacing applied at egress) instead of in-process
	// channels — same protocol, real serialisation.
	TCP bool
	// Ring enables ring-based communication scheduling (the paper's "R").
	Ring bool
	// LockFree enables lock-free parallel message enqueuing ("L").
	LockFree bool
	// Overlap enables communication/computation overlapping ("P").
	Overlap bool
	// ParamServer replaces the ring all-reduce with a parameter-server
	// update: workers push gradients to worker 0, which applies the
	// optimiser once and broadcasts fresh parameters (the alternative the
	// paper notes the All-Reduce model can be swapped for, §4.1).
	ParamServer bool
	// Broadcast switches to ROC-style whole-block communication: a worker
	// sends its entire owned representation block to every peer that needs
	// any of it, and receivers pick out the rows they need. This reproduces
	// the communication inefficiency the paper measured in ROC (§5.3); the
	// default (false) is NeutronStar's source-specific chunking.
	Broadcast bool
	// LR is the optimiser learning rate (default 0.01, Adam). Scheduler,
	// when set, overrides LR per epoch (replicas evaluate it identically).
	LR        float32
	Scheduler nn.Scheduler
	// ClipNorm, when > 0, clips the global gradient L2 norm after the
	// all-reduce, before the optimiser step.
	ClipNorm float64
	// Dropout applies during training (default 0).
	Dropout float32
	// Seed fixes model init and dropout streams.
	Seed uint64
	// MemBudget caps per-worker replica bytes for Hybrid (0 = unlimited).
	MemBudget int64
	// CacheQuant selects the storage format of cached layer-0 feature rows:
	// off (default, exact), fp16, or int8 (partition.RepQuant). It applies to
	// every plan that caches dependencies. Owners keep full precision; only
	// the cached rows round-trip through the format, which bounds the
	// deviation from the exact run by partition.RequantizeErrorBound.
	CacheQuant partition.RepQuant
	// Costs overrides probed environment factors when non-zero; the Fig 11
	// sweep uses this together with ForceRatio.
	Costs costmodel.Costs
	// ForceRatio, when enabled, bypasses the cost-based greedy and caches a
	// fixed fraction (CacheRatio ∈ [0,1]) of dependencies per layer — the
	// manual sweep of Figure 11.
	ForceRatio bool
	CacheRatio float64
	// Collector receives utilisation metrics (may be nil): the workers' stage
	// clocks mirror every phase interval into it as a span classed by
	// metrics.StageKind. Without a Recorder the engine records into a
	// private one, so the clocks exist.
	Collector *metrics.Collector
	// Fault, when non-nil, wraps the fabric in seeded fault injection
	// (drops, delays, duplicates per comm.FaultSpec) with retransmission.
	Fault *comm.FaultSpec
	// Ckpt, when non-nil, saves a snapshot at every due epoch barrier. A
	// failed save is reported on the epoch's EpochStats, never fatal.
	Ckpt *ckpt.Saver
	// Recorder, when non-nil, receives per-stage time/byte attribution for
	// every epoch (see obs.FlightRecorder). Nil disables all recording paths
	// at zero cost.
	Recorder *obs.FlightRecorder
	// History, when non-nil, takes a whole-registry metric snapshot at every
	// epoch barrier — the natural sampling point of a training run, where the
	// per-epoch gauges have just advanced. Periodic sampling between barriers
	// is the history's own Start; this hook only adds the barrier alignment.
	History *obs.History
	// Pool, when non-nil, recycles training-time tensor storage (tape
	// intermediates, gradients, message payloads) through per-worker arenas
	// released at each epoch barrier. Nil reproduces the allocate-per-call
	// behaviour bit-for-bit. Ignored when Fault is set: fault-injected
	// retransmission goroutines can hold message payloads past the barrier,
	// which would break the arena's quiescence requirement.
	Pool *tensor.Pool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Mode == "" {
		o.Mode = Hybrid
	}
	if o.Model == "" {
		o.Model = nn.GCN
	}
	if o.Partitioner == "" {
		o.Partitioner = partition.Chunk
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	return o
}

// EpochStats reports one epoch's outcome.
type EpochStats struct {
	Epoch int
	// Loss is the mean training loss over all labeled vertices.
	Loss float64
	// Duration is the wall-clock epoch time (forward+backward+update).
	Duration time.Duration
	// CkptErr reports a failed checkpoint save at this epoch's barrier.
	// Training continues regardless: a full disk should not kill a run that
	// can still make progress.
	CkptErr error
}

// Engine trains one model on one dataset over a simulated cluster.
type Engine struct {
	opts   Options
	ds     *dataset.Dataset
	part   *partition.Partition
	decs   []*hybrid.Decision
	plans  []*workerPlan
	fabric comm.Network
	states []*workerState
	dims   []int
	// costs are the probed (or forced) environment factors the planner used;
	// the cost-model validator compares them against measured ones.
	costs costmodel.Costs
	// cacheQuant is the validated storage format of cached feature rows.
	cacheQuant partition.RepQuant
	// rec is the flight recorder the workers' stage clocks feed: Options.
	// Recorder, or a private one when only a Collector is set. sink mirrors
	// the clocks' intervals into the Collector (nil without one).
	rec  *obs.FlightRecorder
	sink *obs.SpanSink
	// tpFeatAll is the full-width feature matrix in owner-block row order,
	// shared by all workers when layer 1 runs the assemble TP dataflow.
	tpFeatAll *tensor.Tensor
	epoch     int
	// history accumulates every completed epoch's stats; it rides along in
	// snapshots so a resumed run reports a continuous loss curve.
	history []EpochStats
	// predicts counts inference passes for message-tag uniqueness.
	predicts int
	// paramVersion counts parameter mutations (optimiser steps, LoadModel,
	// Restore). Serving caches key their freshness off it: any bump means
	// previously computed embeddings may be stale.
	paramVersion atomic.Uint64

	// PreprocessTime is the hybrid dependency-partitioning time (Table 3's
	// "Preprocessing" row).
	PreprocessTime time.Duration
}

// NewEngine builds the cluster: partitions the graph, runs the dependency
// planner for the chosen mode, derives execution plans, and replicates the
// model onto every worker.
func NewEngine(ds *dataset.Dataset, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	hiddenDim := ds.Spec.HiddenDim
	if opts.Hidden > 0 {
		hiddenDim = opts.Hidden
	}
	layers := opts.Layers
	if layers <= 0 {
		layers = 2
	}
	dims := make([]int, 0, layers+1)
	dims = append(dims, ds.Spec.FeatureDim)
	for l := 1; l < layers; l++ {
		dims = append(dims, hiddenDim)
	}
	dims = append(dims, ds.Spec.NumClasses)

	part, err := partition.New(opts.Partitioner, ds.Graph, opts.Workers)
	if err != nil {
		return nil, err
	}

	costs := opts.Costs
	if costs == (costmodel.Costs{}) {
		costs = probeCached(opts.Profile)
	}
	cacheQuant, err := partition.ParseRepQuant(string(opts.CacheQuant))
	if err != nil {
		return nil, err
	}
	sliceTP := nn.SliceSeparable(opts.Model)
	planner := &hybrid.Planner{
		Graph: ds.Graph, Part: part, Dims: dims,
		Costs: costs, MemBudget: opts.MemBudget, Ratio: opts.CacheRatio,
		SliceTP: sliceTP,
	}
	var mode hybrid.Mode
	switch opts.Mode {
	case DepCache:
		mode = hybrid.ModeAllCache
	case DepComm:
		mode = hybrid.ModeAllComm
	case DepTP:
		mode = hybrid.ModeAllTP
	case Hybrid3:
		mode = hybrid.ModeHybrid3
	case Hybrid:
		if opts.ForceRatio {
			mode = hybrid.ModeRatio
		} else {
			mode = hybrid.ModeHybrid
		}
	default:
		return nil, fmt.Errorf("engine: unknown mode %q (valid: %s)", opts.Mode, strings.Join(ModeNames(), ", "))
	}
	start := time.Now()
	decs, err := planner.DecideAll(mode)
	if err != nil {
		return nil, err
	}
	preprocess := time.Since(start)

	plans, err := buildPlans(ds.Graph, part, decs, dims, sliceTP)
	if err != nil {
		return nil, err
	}

	var fabric comm.Network
	if opts.TCP {
		fabric, err = comm.NewTCPFabric(opts.Workers, opts.Profile, opts.Collector)
		if err != nil {
			return nil, err
		}
	} else {
		fabric = comm.NewFabric(opts.Workers, opts.Profile, opts.Collector)
	}
	if opts.Fault != nil {
		fabric = comm.NewFaultyFabric(fabric, opts.Fault)
	}
	rec := opts.Recorder
	if rec == nil && opts.Collector != nil {
		// The Collector's spans come from the stage clocks, which need a
		// recorder to run.
		rec = obs.NewFlightRecorder()
	}
	if rec != nil {
		// Outermost wrapper: send-side attribution must see each logical
		// Send once, before fault injection multiplies transmissions.
		fabric = newRecordingNet(fabric, rec)
	}
	e := &Engine{
		opts: opts, ds: ds, part: part, decs: decs, plans: plans, dims: dims,
		fabric:         fabric,
		rec:            rec,
		sink:           opts.Collector.StageSink(),
		costs:          costs,
		cacheQuant:     cacheQuant,
		PreprocessTime: preprocess,
	}
	// Assemble-dataflow TP at layer 1 reads the full-width feature matrix in
	// owner-block order; it is static, so one engine-wide copy serves all
	// workers.
	if sh := tpSharedOf(plans); sh != nil && !sh.slice && plans[0].tpLayers[0] != nil {
		e.tpFeatAll = tensor.New(ds.NumVertices(), dims[0])
		for v := 0; v < ds.NumVertices(); v++ {
			copy(e.tpFeatAll.Row(int(sh.globalRow[v])), ds.Features.Row(v))
		}
	}
	cached, comms := 0, 0
	for _, d := range decs {
		cached += d.NumCached()
		comms += d.NumComm()
	}
	if cached+comms > 0 {
		obsCacheRatio.Set(float64(cached) / float64(cached+comms))
	} else {
		obsCacheRatio.Set(0)
	}
	e.states = make([]*workerState, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		model, err := nn.NewModel(opts.Model, dims, opts.Dropout, opts.Seed+7)
		if err != nil {
			e.fabric.Close()
			return nil, err
		}
		e.states[i] = newWorkerState(i, e, model)
	}
	return e, nil
}

// probeCache memoises environment probes per network profile: the factors
// describe the host and fabric, not the workload, so one measurement per
// process is both faster and — more importantly — stable, keeping Algorithm
// 4's decisions deterministic across engines built in the same run.
var probeCache sync.Map // NetworkProfile -> costmodel.Costs

func probeCached(p comm.NetworkProfile) costmodel.Costs {
	if v, ok := probeCache.Load(p); ok {
		return v.(costmodel.Costs)
	}
	c := costmodel.Probe(p.BytesPerSec, p.Latency)
	probeCache.Store(p, c)
	return c
}

// Mode returns the engine's dependency-management mode.
func (e *Engine) Mode() Mode { return e.opts.Mode }

// NumWorkers returns the cluster size.
func (e *Engine) NumWorkers() int { return e.opts.Workers }

// Decisions exposes the per-worker dependency decisions (for reporting).
func (e *Engine) Decisions() []*hybrid.Decision { return e.decs }

// CacheBytes returns the total replica storage across workers.
func (e *Engine) CacheBytes() int64 {
	var b int64
	for _, p := range e.plans {
		b += p.cacheBytes
	}
	return b
}

// ReplicationFactor returns the vertex replication factor of the plan:
// (|V| + cached feature rows)/|V|, counting every worker's level-0 cached
// rows. 1 means nothing is cached (DepComm, DepTP or a single worker).
func (e *Engine) ReplicationFactor() float64 {
	n := e.ds.NumVertices()
	if n == 0 {
		return 1
	}
	rows := 0
	for _, p := range e.plans {
		rows += len(p.cachedComputeAt(0))
	}
	return float64(n+rows) / float64(n)
}

// Close releases the fabric. The engine must not be used afterwards.
func (e *Engine) Close() { e.fabric.Close() }

// RunEpoch executes one synchronous training epoch across all workers and
// returns aggregate statistics.
func (e *Engine) RunEpoch() EpochStats {
	rec := e.rec
	rec.BeginEpoch(e.epoch+1, e.opts.Workers, len(e.dims)-1)
	start := time.Now()
	type result struct {
		lossSum float64
		count   int
		busy    time.Duration
	}
	results := make([]result, len(e.states))
	var wg sync.WaitGroup
	for i, ws := range e.states {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			t0 := time.Now()
			sum, n := ws.runEpoch(e.epoch)
			results[i] = result{lossSum: sum, count: n, busy: time.Since(t0)}
		}(i, ws)
	}
	wg.Wait()
	// Barrier: every worker is quiescent — all tapes, gradients and message
	// payloads from this epoch are dead — so their arena tensors can go back
	// to the pool for the next epoch. Nil arenas (pool disabled) no-op.
	for _, ws := range e.states {
		ws.arena.Release()
	}
	wall := time.Since(start)
	// Barrier attribution: a worker that finished early idles until the
	// slowest one crosses the epoch barrier. That idle gap is wall minus its
	// own busy span (spawn skew makes it approximate, never negative).
	for i := range results {
		if gap := wall - results[i].busy; gap > 0 {
			rec.AddTime(i, obs.StageBarrier, 0, gap)
		}
	}
	// Sum in worker-id order: float addition is not associative, so summing
	// in completion order would make the reported loss depend on goroutine
	// scheduling — same-seed runs must be bit-identical.
	var lossSum float64
	var count int
	for _, r := range results {
		lossSum += r.lossSum
		count += r.count
	}
	e.epoch++
	e.paramVersion.Add(1)
	st := EpochStats{Epoch: e.epoch, Duration: wall}
	if count > 0 {
		st.Loss = lossSum / float64(count)
	}
	e.history = append(e.history, st)
	obsEpoch.Set(float64(st.Epoch))
	obsLoss.Set(st.Loss)
	obsEpochSeconds.Set(st.Duration.Seconds())
	// The epoch barrier has passed: every worker is quiescent, so the
	// snapshot sees one consistent cluster state.
	if e.opts.Ckpt.Due(e.epoch) {
		t0 := time.Now()
		err := e.opts.Ckpt.Save(e.Snapshot())
		rec.AddTime(0, obs.StageCheckpoint, 0, time.Since(t0))
		if err != nil {
			st.CkptErr = err
		}
	}
	rec.EndEpoch(wall, st.Loss)
	e.exportFlows(rec)
	e.opts.History.Sample(time.Now())
	return st
}

// exportFlows mirrors the finished epoch's cross-worker wait-matches into
// the collector's tracer as Chrome flow events, so the trace export draws a
// send→receive arrow for every message that a worker actually blocked on.
// The causal offsets are anchored at the epoch start; Offset rebases them
// onto the tracer's run-relative clock.
func (e *Engine) exportFlows(rec *obs.FlightRecorder) {
	if e.opts.Collector == nil || !rec.CausalEnabled() {
		return
	}
	last, ok := rec.Last()
	if !ok || last.CausalStart.IsZero() {
		return
	}
	tr := e.opts.Collector.Tracer()
	base := tr.Offset(last.CausalStart)
	for _, m := range last.Matches {
		if m.SpanID == 0 {
			continue // untraced message (sent outside the epoch window)
		}
		tr.AddFlow(obs.FlowEvent{
			ID:         m.SpanID,
			Name:       "msg:" + m.Kind,
			FromWorker: m.From,
			At:         base + m.Sent,
			ToWorker:   m.Worker,
			End:        base + m.WaitEnd,
		})
	}
}

// Train runs epochs epochs and returns the stats of each.
func (e *Engine) Train(epochs int) []EpochStats {
	out := make([]EpochStats, 0, epochs)
	for i := 0; i < epochs; i++ {
		out = append(out, e.RunEpoch())
	}
	return out
}

// Params returns worker 0's model parameters (replicas are identical).
func (e *Engine) Params() []*nn.Param { return e.states[0].model.Params() }

// Model returns worker 0's model replica.
func (e *Engine) Model() *nn.Model { return e.states[0].model }

// predictEpochBase keeps inference message tags disjoint from training
// epochs in the mailbox routing space.
const predictEpochBase = 1 << 28

// Predict runs one distributed forward-only pass (dropout disabled) and
// returns the final-layer logits for every vertex, assembled from the
// workers' owned blocks.
func (e *Engine) Predict() *tensor.Tensor {
	e.predicts++
	epoch := predictEpochBase + e.predicts
	type part struct {
		id   int
		rows *tensor.Tensor
	}
	results := make(chan part, len(e.states))
	for _, ws := range e.states {
		go func(ws *workerState) {
			results <- part{id: ws.id, rows: ws.runForward(epoch)}
		}(ws)
	}
	out := tensor.New(e.ds.NumVertices(), e.dims[len(e.dims)-1])
	for range e.states {
		p := <-results
		for r, v := range e.plans[p.id].owned {
			copy(out.Row(int(v)), p.rows.Row(r))
		}
	}
	return out
}

// Evaluate computes classification accuracy over the vertices selected by
// mask, using a distributed forward pass with the current parameters.
func (e *Engine) Evaluate(mask []bool) float64 {
	logits := e.Predict()
	pred := tensor.ArgMaxRows(logits)
	correct, total := 0, 0
	for v, m := range mask {
		if !m {
			continue
		}
		total++
		if int32(pred[v]) == e.ds.Labels[v] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// ReplicasInSync reports whether all workers hold bit-identical parameters;
// training correctness depends on this invariant.
func (e *Engine) ReplicasInSync() bool {
	ref := e.states[0].model.Params()
	for _, ws := range e.states[1:] {
		ps := ws.model.Params()
		for k := range ref {
			if !ref[k].Value.Equal(ps[k].Value) {
				return false
			}
		}
	}
	return true
}

// graphOf exposes the dataset graph to worker internals.
func (e *Engine) graphOf() *graph.Graph { return e.ds.Graph }

// SaveModel serialises the current parameters (all replicas are identical,
// so worker 0's copy is canonical).
func (e *Engine) SaveModel(w io.Writer) error {
	return e.states[0].model.SaveParams(w)
}

// LoadModel restores parameters into every worker's replica, preserving the
// replicas-identical invariant. The checkpoint must match the engine's
// model architecture.
func (e *Engine) LoadModel(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	for _, ws := range e.states {
		if err := ws.model.LoadParams(bytes.NewReader(data)); err != nil {
			return err
		}
	}
	e.paramVersion.Add(1)
	return nil
}

// ParamVersion returns the parameter mutation counter: it advances on every
// optimiser step (once per epoch), LoadModel and Restore. A serving layer
// sharing this engine compares versions to decide when its embedding caches
// went stale. Safe to call concurrently.
func (e *Engine) ParamVersion() uint64 { return e.paramVersion.Load() }

// CloneModel builds a fresh model of the engine's architecture carrying a
// copy of the current parameters — a serving-side snapshot that stays stable
// while training mutates the replicas. Call it between epochs (the engine is
// externally synchronous), like Snapshot.
func (e *Engine) CloneModel() *nn.Model {
	m := nn.MustNewModel(e.opts.Model, e.dims, e.opts.Dropout, e.opts.Seed+7)
	src := e.states[0].model.Params()
	dst := m.Params()
	for i := range dst {
		dst[i].Value.CopyFrom(src[i].Value)
	}
	return m
}

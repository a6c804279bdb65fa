// Package serve is the online inference layer: it answers per-vertex
// prediction, embedding and link-score queries over a trained model, against
// the same partitioned graph a training session uses.
//
// The deployment shape follows GLT's decoupled serving architecture: graph
// work and NN work scale independently as two worker pools. An extraction
// pool walks the k-hop in-closure of each query batch (or a fanout-sampled
// approximation for inductive queries on unseen vertices) and assembles the
// input feature rows; a compute pool runs the batched layer-by-layer forward
// pass. The pools are joined by a latency/throughput micro-batcher that
// flushes on max-batch or max-wait, whichever comes first, and by a
// byte-budgeted per-layer embedding cache whose entries are invalidated
// whenever the model's parameter version advances — so a live training
// session and the serving path can share one graph without stale answers.
//
// Exact (unsampled) answers are bit-identical to engine.ReferenceForward
// restricted to the queried vertices: extraction preserves each
// destination's in-neighbor aggregation order and full-graph GCN
// normalisation, so serving a vertex and running the full-graph reference
// produce the same float32 rows.
package serve

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// Source supplies the model parameters being served and a version that
// advances whenever they change. Both methods must be safe for concurrent
// use; Snapshot is only called when Version moved, never per request.
type Source interface {
	// Version identifies the current parameters. Any change (an optimiser
	// step, a checkpoint restore) must change the version — it is what
	// invalidates every derived embedding.
	Version() uint64
	// Snapshot returns a model carrying a stable copy of the current
	// parameters. The caller owns the returned model; later parameter
	// mutations in the source must not show through it.
	Snapshot() *nn.Model
}

// engineSource adapts a live training engine: the served parameters advance
// with every optimiser step.
type engineSource struct{ eng *engine.Engine }

// EngineSource exposes a (possibly still training) engine as a model source.
// Snapshots are taken at epoch barriers in the usual synchronous usage; the
// version is the engine's parameter mutation counter.
func EngineSource(eng *engine.Engine) Source { return engineSource{eng} }

func (s engineSource) Version() uint64     { return s.eng.ParamVersion() }
func (s engineSource) Snapshot() *nn.Model { return s.eng.CloneModel() }

// Static is a Source over a fixed model — the nsserve deployment where
// parameters come from a file. Update swaps the model and bumps the version,
// which is how a push-style deployment rolls new parameters without a
// restart (and how tests exercise cache invalidation deterministically).
type Static struct {
	mu      sync.Mutex
	model   *nn.Model
	version uint64
}

// NewStatic wraps a loaded model as a version-1 source.
func NewStatic(m *nn.Model) *Static { return &Static{model: m, version: 1} }

// Version returns the current parameter version.
func (s *Static) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Snapshot returns the current model. Static models are never mutated in
// place (Update replaces the pointer), so no copy is needed.
func (s *Static) Snapshot() *nn.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// Update replaces the served model and advances the version. The caller must
// not mutate m afterwards.
func (s *Static) Update(m *nn.Model) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.model = m
	s.version++
}

// Config configures a Server. Graph, Features and Source are mandatory;
// zero values elsewhere select the documented defaults.
type Config struct {
	Graph    *graph.Graph
	Features *tensor.Tensor
	Source   Source
	// MaxBatch flushes the micro-batcher when the pending queries cover this
	// many vertices (default 32). A single oversized request still forms one
	// batch — requests are never split.
	MaxBatch int
	// MaxWait flushes a non-empty batch after this delay even if MaxBatch
	// was not reached (default 2ms): the latency bound a lone request pays.
	MaxWait time.Duration
	// CacheBytes budgets the per-layer embedding cache (row bytes); <= 0
	// disables caching entirely.
	CacheBytes int64
	// ExtractWorkers / ComputeWorkers size the two pools independently
	// (default 2 each) — graph traversal and NN compute rarely want the same
	// parallelism, which is the point of decoupling them.
	ExtractWorkers int
	ComputeWorkers int
	// Seed is folded with the request id into each sampled query's private
	// RNG, making every inductive answer reproducible in isolation.
	Seed uint64
	// Registry receives the serving metrics (default obs.Default()).
	Registry *obs.Registry
	// Tracer, when non-nil, records one span per extraction/compute job on
	// per-worker rows (extract workers first, compute workers after),
	// annotated with the request trace ids — the serving counterpart of the
	// training engine's causal timeline, exportable as a Chrome trace.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.ExtractWorkers <= 0 {
		c.ExtractWorkers = 2
	}
	if c.ComputeWorkers <= 0 {
		c.ComputeWorkers = 2
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// InductiveVertex describes a vertex the graph has never seen: its raw
// feature row and the existing vertices it draws edges from. The serving
// path computes its representation GraphSAGE-style, without touching the
// stored graph.
type InductiveVertex struct {
	Features  []float32 `json:"features"`
	Neighbors []int32   `json:"neighbors"`
}

// Request is one inference query: any mix of existing vertices and
// inductive (unseen) vertices. With Fanouts set, neighborhood extraction
// samples instead of expanding exactly; inductive vertices always sample
// when Fanouts is set and expand exactly otherwise.
type Request struct {
	Verts     []int32           `json:"vertices,omitempty"`
	Inductive []InductiveVertex `json:"inductive,omitempty"`
	// Fanouts bounds the neighbors kept per vertex per hop, input layer
	// first (DGL order). Empty means exact extraction.
	Fanouts []int `json:"fanouts,omitempty"`
	// Seed pins the sampling RNG; 0 derives one from the request id.
	Seed uint64 `json:"seed,omitempty"`
}

func (r *Request) numQueries() int { return len(r.Verts) + len(r.Inductive) }

// sampled reports whether the request needs its own extraction (private RNG
// or batch-local virtual vertices) and therefore bypasses the micro-batcher.
func (r *Request) sampled() bool { return len(r.Fanouts) > 0 || len(r.Inductive) > 0 }

// Result answers a Request: one row per query, Verts first and Inductive
// after, in request order.
type Result struct {
	// Version is the parameter version the answer was computed under.
	Version uint64
	// Logits holds the final-layer rows; Embeds the penultimate-layer
	// representations (the rows entering the classifier layer).
	Logits *tensor.Tensor
	Embeds *tensor.Tensor
	// Timing is the request's per-stage latency breakdown; its stages sum to
	// its Total (see StageTiming).
	Timing StageTiming
}

// work is one in-flight request: the pipeline fills res/err and closes done.
type work struct {
	req   *Request
	seed  uint64
	trace reqTrace
	res   *Result
	err   error
	done  chan struct{}
}

func (w *work) fail(err error) {
	w.err = err
	close(w.done)
}

// job is a unit handed to the extraction pool: one micro-batch of exact
// requests, or a single sampled/inductive request.
type job struct {
	items []*work
}

// assembled is an extracted job waiting for the compute pool.
type assembled struct {
	items   []*work
	version uint64
	// cacheNanos is the time extraction spent inside embedding-cache lookups
	// for this job, attributed to every item's cache stage.
	cacheNanos int64
	// model is the server's shared snapshot for version; compute workers
	// clone it into a private replica once per version (tape binding is not
	// concurrency-safe on a shared model).
	model *nn.Model
	gen   uint64
	plan  *plan
	// exact marks a cache-eligible extraction: sampled rows are
	// approximations and must never be cached.
	exact bool
}

// Server answers inference queries over one graph + feature matrix, against
// whatever parameters its Source currently holds.
type Server struct {
	cfg   Config
	cache *embedCache
	bat   *batcher

	extractQ chan *job
	computeQ chan *assembled

	// model/version are the server-wide snapshot, refreshed when the source
	// version moves; compute workers keep private clones keyed by version.
	mu      sync.RWMutex
	model   *nn.Model
	version uint64

	reqID   atomic.Uint64
	closed  atomic.Bool
	extWG   sync.WaitGroup
	compWG  sync.WaitGroup
	metrics *serveMetrics

	requests atomic.Int64
	errors   atomic.Int64
	batches  atomic.Int64
	batched  atomic.Int64
}

type serveMetrics struct {
	requests   *obs.Counter
	errors     *obs.Counter
	batches    *obs.Counter
	batchSz    *obs.Histogram
	latency    *obs.Histogram
	stage      *obs.HistogramVec
	queueDepth *obs.Gauge
	flushes    *obs.CounterVec
	busy       *obs.CounterVec
}

// New builds and starts a server: MaxBatch/MaxWait micro-batching in front
// of ExtractWorkers extraction goroutines feeding ComputeWorkers compute
// goroutines. Close must be called when done.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil || cfg.Features == nil || cfg.Source == nil {
		return nil, fmt.Errorf("serve: Config needs Graph, Features and Source")
	}
	if cfg.Features.Rows() != cfg.Graph.NumVertices() {
		return nil, fmt.Errorf("serve: %d feature rows for %d vertices",
			cfg.Features.Rows(), cfg.Graph.NumVertices())
	}
	model := cfg.Source.Snapshot()
	if model.NumLayers() == 0 {
		return nil, fmt.Errorf("serve: source model has no layers")
	}
	if d := model.Dims()[0]; d != cfg.Features.Cols() {
		return nil, fmt.Errorf("serve: model expects %d input features, graph has %d",
			d, cfg.Features.Cols())
	}
	s := &Server{
		cfg:      cfg,
		model:    model,
		version:  cfg.Source.Version(),
		extractQ: make(chan *job, 4*cfg.ExtractWorkers),
		computeQ: make(chan *assembled, 4*cfg.ComputeWorkers),
		metrics: &serveMetrics{
			requests: cfg.Registry.Counter("ns_serve_requests_total", "Inference requests received."),
			errors:   cfg.Registry.Counter("ns_serve_errors_total", "Inference requests that failed."),
			batches:  cfg.Registry.Counter("ns_serve_batches_total", "Micro-batches executed."),
			batchSz:  cfg.Registry.Histogram("ns_serve_batch_queries", "Queries per executed micro-batch.", obs.LinearBuckets(1, 8, 16)),
			latency:  cfg.Registry.Histogram("ns_serve_latency_seconds", "End-to-end request latency.", obs.ExpBuckets(1e-5, 2.5, 16)),
			stage: cfg.Registry.HistogramVec("ns_serve_stage_seconds",
				"Per-request latency by pipeline stage (queue, cache, extract, compute).",
				obs.ExpBuckets(1e-6, 2.5, 18), "stage"),
			queueDepth: cfg.Registry.Gauge("ns_serve_batcher_queue_depth",
				"Requests pending in the micro-batcher."),
			flushes: cfg.Registry.CounterVec("ns_serve_batcher_flushes_total",
				"Micro-batch flushes by trigger (max_batch, max_wait, close).", "reason"),
			busy: cfg.Registry.CounterVec("ns_serve_worker_busy_seconds_total",
				"Cumulative busy time per pool worker.", "pool", "worker"),
		},
	}
	// Pre-create every label combination the pipeline will emit, so the
	// series exist (at zero) from the first scrape and the /timeline history
	// has a baseline sample to difference against instead of a mid-window
	// birth.
	for _, st := range []string{StageQueue, StageCache, StageExtract, StageCompute} {
		s.metrics.stage.With(st)
	}
	for _, reason := range []string{flushMaxBatch, flushMaxWait, flushClose} {
		s.metrics.flushes.With(reason)
	}
	for i := 0; i < cfg.ExtractWorkers; i++ {
		s.metrics.busy.With("extract", strconv.Itoa(i))
	}
	for i := 0; i < cfg.ComputeWorkers; i++ {
		s.metrics.busy.With("compute", strconv.Itoa(i))
	}
	if cfg.CacheBytes > 0 {
		s.cache = newEmbedCache(cfg.CacheBytes, cfg.Registry)
	}
	s.bat = newBatcher(cfg.MaxBatch, cfg.MaxWait, func(items []*work, reason string) {
		s.batches.Add(1)
		s.metrics.batches.Inc()
		s.metrics.flushes.With(reason).Inc()
		n := 0
		for _, w := range items {
			n += w.req.numQueries()
		}
		s.metrics.batchSz.Observe(float64(n))
		s.batched.Add(int64(len(items)))
		s.extractQ <- &job{items: items}
	})
	s.bat.depth = func(n int) { s.metrics.queueDepth.Set(float64(n)) }
	for i := 0; i < cfg.ExtractWorkers; i++ {
		s.extWG.Add(1)
		go s.extractLoop(i)
	}
	for i := 0; i < cfg.ComputeWorkers; i++ {
		s.compWG.Add(1)
		go s.computeLoop(i)
	}
	return s, nil
}

// Close drains the pipeline: the batcher flushes its pending batch, both
// pools finish their queued jobs, and every in-flight request completes.
// Queries submitted after Close fail immediately.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.bat.Close()
	close(s.extractQ)
	s.extWG.Wait()
	close(s.computeQ)
	s.compWG.Wait()
}

// ModelVersion returns the parameter version the server is currently
// answering with.
func (s *Server) ModelVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// refresh re-snapshots the model when the source's version moved, dropping
// every cached embedding: answers computed after a parameter update must
// never mix in pre-update rows. It returns the model, its version and the
// cache generation, all read under s.mu: Invalidate only runs under the write
// lock, so a job holding this triple can neither insert rows under a newer
// generation nor read rows another model computed.
func (s *Server) refresh() (*nn.Model, uint64, uint64) {
	v := s.cfg.Source.Version()
	s.mu.RLock()
	if v == s.version {
		m, gen := s.model, s.cache.generation()
		s.mu.RUnlock()
		return m, v, gen
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if v != s.version {
		s.model = s.cfg.Source.Snapshot()
		s.version = v
		s.cache.Invalidate()
	}
	return s.model, s.version, s.cache.generation()
}

// Query answers one request, blocking until the pipeline completes it.
// Exact known-vertex requests ride the micro-batcher; sampled and inductive
// requests run as their own job with a private, request-derived RNG. The
// returned Result carries the request's per-stage timing, and the end-to-end
// latency observation carries the trace id as an exemplar — a histogram
// outlier links back to a concrete request.
func (s *Server) Query(req *Request) (*Result, error) {
	start := time.Now()
	s.requests.Add(1)
	s.metrics.requests.Inc()
	res, err := s.query(req)
	if err != nil {
		s.errors.Add(1)
		s.metrics.errors.Inc()
		return nil, err
	}
	s.metrics.latency.ObserveWithExemplar(time.Since(start).Seconds(), res.Timing.TraceIDHex(), time.Now())
	s.observeStages(res.Timing)
	return res, nil
}

// observeStages records one request's breakdown into the stage histograms.
func (s *Server) observeStages(t StageTiming) {
	s.metrics.stage.With(StageQueue).Observe(t.Queue.Seconds())
	s.metrics.stage.With(StageCache).Observe(t.Cache.Seconds())
	s.metrics.stage.With(StageExtract).Observe(t.Extract.Seconds())
	s.metrics.stage.With(StageCompute).Observe(t.Compute.Seconds())
}

func (s *Server) query(req *Request) (*Result, error) {
	if err := s.validate(req); err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, fmt.Errorf("serve: server closed")
	}
	id := s.reqID.Add(1)
	w := &work{req: req, done: make(chan struct{})}
	w.trace.id = id
	w.trace.submitted = time.Now()
	if req.sampled() {
		w.seed = req.Seed
		if w.seed == 0 {
			// splitmix-style fold so consecutive request ids land far apart.
			w.seed = (s.cfg.Seed ^ (id * 0x9E3779B97F4A7C15)) | 1
		}
		s.extractQ <- &job{items: []*work{w}}
	} else if err := s.bat.Submit(w); err != nil {
		return nil, err
	}
	<-w.done
	if w.res != nil {
		w.res.Timing = w.trace.timing()
	}
	return w.res, w.err
}

func (s *Server) validate(req *Request) error {
	n := int32(s.cfg.Graph.NumVertices())
	if req.numQueries() == 0 {
		return fmt.Errorf("serve: empty request")
	}
	for _, v := range req.Verts {
		if v < 0 || v >= n {
			return fmt.Errorf("serve: vertex %d out of [0,%d)", v, n)
		}
	}
	for i, iv := range req.Inductive {
		if len(iv.Features) != s.cfg.Features.Cols() {
			return fmt.Errorf("serve: inductive vertex %d has %d features, graph has %d",
				i, len(iv.Features), s.cfg.Features.Cols())
		}
		for _, u := range iv.Neighbors {
			if u < 0 || u >= n {
				return fmt.Errorf("serve: inductive vertex %d neighbor %d out of [0,%d)", i, u, n)
			}
		}
	}
	for _, f := range req.Fanouts {
		if f <= 0 {
			return fmt.Errorf("serve: fanout %d must be positive", f)
		}
	}
	return nil
}

// extractLoop is the extraction pool: k-hop closure walk (or sampling) and
// feature-row assembly, no NN math. idx is the worker's row in the trace
// timeline and its label in the busy-time counter.
func (s *Server) extractLoop(idx int) {
	defer s.extWG.Done()
	busy := s.metrics.busy.With("extract", strconv.Itoa(idx))
	for j := range s.extractQ {
		start := time.Now()
		for _, w := range j.items {
			w.trace.extractStart = start
		}
		var sp *obs.Span
		if s.cfg.Tracer != nil {
			sp = s.cfg.Tracer.Start(idx, obs.ClassNone, "extract",
				obs.Int("items", len(j.items)), obs.String("trace_ids", traceIDs(j.items)))
		}
		model, version, gen := s.refresh()
		asm, err := s.extract(j, model, version, gen)
		end := time.Now()
		if sp != nil {
			sp.End()
		}
		busy.Add(end.Sub(start).Seconds())
		if err != nil {
			for _, w := range j.items {
				w.fail(err)
			}
			continue
		}
		for _, w := range j.items {
			w.trace.extractEnd = end
			w.trace.cacheNanos = asm.cacheNanos
		}
		s.computeQ <- asm
	}
}

// computeLoop is the compute pool: batched layer forward passes on a private
// model replica (tape parameter binding is stateful, so replicas are
// per-goroutine, re-cloned only when the version moves). idx is the worker's
// index within the pool; its trace row sits after the extraction rows.
func (s *Server) computeLoop(idx int) {
	defer s.compWG.Done()
	busy := s.metrics.busy.With("compute", strconv.Itoa(idx))
	row := s.cfg.ExtractWorkers + idx
	var model *nn.Model
	var version uint64
	for asm := range s.computeQ {
		start := time.Now()
		for _, w := range asm.items {
			w.trace.computeStart = start
		}
		var sp *obs.Span
		if s.cfg.Tracer != nil {
			sp = s.cfg.Tracer.Start(row, obs.ClassNone, "compute",
				obs.Int("items", len(asm.items)), obs.String("trace_ids", traceIDs(asm.items)))
		}
		if model == nil || version != asm.version {
			model = cloneForCompute(asm.model)
			version = asm.version
		}
		s.compute(asm, model)
		if sp != nil {
			sp.End()
		}
		busy.Add(time.Since(start).Seconds())
	}
}

// cloneForCompute builds a private replica of a shared snapshot: same
// architecture (the model's Name round-trips through ModelKind), copied
// parameter values.
func cloneForCompute(m *nn.Model) *nn.Model {
	c := nn.MustNewModel(nn.ModelKind(m.Name), m.Dims(), 0, 0)
	src, dst := m.Params(), c.Params()
	for i := range dst {
		dst[i].Value.CopyFrom(src[i].Value)
	}
	return c
}

// Stats is the live serving snapshot, served as JSON on /stats.
type Stats struct {
	ModelVersion uint64 `json:"model_version"`
	NumVertices  int    `json:"num_vertices"`
	Layers       int    `json:"layers"`
	Classes      int    `json:"classes"`
	Requests     int64  `json:"requests"`
	Errors       int64  `json:"errors"`
	Batches      int64  `json:"batches"`
	// BatchedRequests counts requests that went through the micro-batcher
	// (exact queries); the remainder ran as their own sampled job.
	BatchedRequests int64      `json:"batched_requests"`
	Cache           CacheStats `json:"cache"`
}

// CacheStats reports the embedding cache's counters; all zero when caching
// is disabled.
type CacheStats struct {
	Enabled     bool  `json:"enabled"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// Stats snapshots the server. Safe to call concurrently with Query.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	dims := s.model.Dims()
	version := s.version
	s.mu.RUnlock()
	st := Stats{
		ModelVersion:    version,
		NumVertices:     s.cfg.Graph.NumVertices(),
		Layers:          len(dims) - 1,
		Classes:         dims[len(dims)-1],
		Requests:        s.requests.Load(),
		Errors:          s.errors.Load(),
		Batches:         s.batches.Load(),
		BatchedRequests: s.batched.Load(),
	}
	st.Cache = s.cache.stats()
	return st
}

package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/serve"
	"neutronstar/internal/tensor"
)

// serveSpec is one serving workload: the open-loop arrival rate.
type serveSpec struct {
	rate float64 // requests per second
}

// serveZipf runs at under a third of the saturation rate of a 2-core x86-64
// host (800-900 req/s with updates). Nearer saturation, CPU time stolen by a
// shared host turns into queueing: at three quarters it doubled the median,
// at half it still moved the median by a quarter between runs.
var serveZipf = serveSpec{rate: 250}

const (
	serveDataset = "pokec"
	// serveWarmup fills the embedding cache and finishes lazy set-up before
	// the timed phase; it is excluded from every latency.
	serveWarmup = time.Second
	setupReps   = 11
	// requestTimeout is the latency beyond which a request counts as failed.
	requestTimeout = 5 * time.Second
	// refillWindow is how long after an update a request counts as
	// post-update. An update empties the embedding cache; on a 2-core
	// x86-64 host the refill keeps latencies above the steady state for
	// 700-800 ms at 250 req/s.
	refillWindow = time.Second
	// tailBlocks is how many equal spans of the schedule the tail is taken
	// over. Refills vary: one in a run can last twice as long as the rest.
	tailBlocks = 3
	// queryRows spreads query spans over this many Chrome trace rows.
	queryRows = 8
)

// serveConfig is nsserve's default deployment over the given source.
func serveConfig(ds *dataset.Dataset, src serve.Source, seed uint64, tr *obs.Tracer) serve.Config {
	return serve.Config{
		Graph: ds.Graph, Features: ds.Features, Source: src,
		MaxBatch: 32, MaxWait: 2 * time.Millisecond, CacheBytes: 8 << 20,
		ExtractWorkers: 2, ComputeWorkers: 2, Seed: seed, Tracer: tr,
	}
}

// served is one answered (or failed) request of a phase.
type served struct {
	lat, late float64 // ms from the due time to the answer, and to the send
	timing    serve.StageTiming
	ok        bool
}

// oracle holds the parameters of every model version a phase can serve and
// their full-graph reference logits, computed before any timed phase.
type oracle struct {
	models []*nn.Model // models[k] is served as version k+1
	refs   []*tensor.Tensor
}

func newOracle(ds *dataset.Dataset, seed uint64, versions int) *oracle {
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	o := &oracle{}
	for k := 0; k < versions; k++ {
		m := nn.MustNewModel(nn.GCN, dims, 0, seed+uint64(k))
		o.models = append(o.models, m)
		o.refs = append(o.refs, engine.ReferenceForward(ds.Graph, m, ds.Features))
	}
	return o
}

// check reports whether res answers rq correctly: an exact answer must be
// bit-identical to the reference logits of the version it was computed
// under; a sampled one must have the right shape and be finite.
func (o *oracle) check(rq request, res *serve.Result) bool {
	classes := o.refs[0].Cols()
	if res == nil || res.Logits == nil || res.Logits.Rows() != len(rq.verts) || res.Logits.Cols() != classes {
		return false
	}
	if rq.sampled {
		for i := range rq.verts {
			for _, x := range res.Logits.Row(i) {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					return false
				}
			}
		}
		return true
	}
	if res.Version < 1 || res.Version > uint64(len(o.refs)) {
		return false
	}
	ref := o.refs[res.Version-1]
	for i, v := range rq.verts {
		got, want := res.Logits.Row(i), ref.Row(int(v))
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				return false
			}
		}
	}
	return true
}

func toRequest(rq request) *serve.Request {
	req := &serve.Request{Verts: rq.verts}
	if rq.sampled {
		req.Fanouts = sampleFanouts
		req.Seed = rq.seed
	}
	return req
}

// phase is what one run of a request schedule against a fresh server
// measured.
type phase struct {
	reqs    []request
	out     []served
	warm    []served // the cache-filling warm-up, outside every timing
	updates []time.Duration
	cpu     time.Duration
	gc      float64 // runtime GC CPU seconds
	heapMB  float64
	stats   [2]serve.Stats // before and after the timed schedule
}

// runPhase starts a fresh server at version 1, warms it up with the warm
// schedule, then replays reqs on schedule with an update every updateEvery.
func runPhase(ds *dataset.Dataset, o *oracle, warm, reqs []request, seed uint64, dur time.Duration,
	baseHeap float64, tr *obs.Tracer) (*phase, error) {
	src := serve.NewStatic(o.models[0])
	srv, err := serve.New(serveConfig(ds, src, seed, tr))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	p := &phase{reqs: reqs, updates: updateTimes(dur)}
	p.warm = replay(srv, src, o, warm, nil, tr)
	p.stats[0] = srv.Stats()
	gc0 := gcCPU()
	c0 := cpuTime()
	p.out = replay(srv, src, o, reqs, p.updates, tr)
	p.cpu = cpuTime() - c0
	p.gc = gcCPU() - gc0
	p.stats[1] = srv.Stats()
	p.heapMB = liveHeapMB() - baseHeap
	return p, nil
}

// failed counts the wrong, failed or late answers of the phase, warm-up
// included.
func (p *phase) failed() int64 {
	var n int64
	for _, part := range [][]served{p.warm, p.out} {
		for _, s := range part {
			if !s.ok {
				n++
			}
		}
	}
	return n
}

// replay is the load generator: one scheduling goroutine sends every
// request at its due time regardless of earlier answers (an open loop) and
// applies the updates in schedule order; latency runs from the due time.
func replay(srv *serve.Server, src *serve.Static, o *oracle, reqs []request, updates []time.Duration,
	tr *obs.Tracer) []served {
	out := make([]served, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	version := 0
	for i, rq := range reqs {
		for version < len(updates) && updates[version] <= rq.due {
			time.Sleep(time.Until(start.Add(updates[version])))
			version++
			sp := tr.Start(benchRow, obs.ClassNone, "serve.Static.Update", obs.Int("version", version+1))
			src.Update(o.models[version])
			sp.End()
		}
		due := start.Add(rq.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		wg.Add(1)
		go func(i int, rq request) {
			defer wg.Done()
			sp := tr.Start(benchRow+1+i%queryRows, obs.ClassNone, "serve.Query", obs.Int("req", i))
			res, err := srv.Query(toRequest(rq))
			lat := time.Since(due)
			ok := err == nil && lat <= requestTimeout && o.check(rq, res)
			s := served{lat: ms(lat), late: ms(sent.Sub(due)), ok: ok}
			if res != nil {
				s.timing = res.Timing
				sp.SetAttrs(obs.String("trace_id", res.Timing.TraceIDHex()), obs.Int64("version", int64(res.Version)))
			}
			sp.End()
			out[i] = s
		}(i, rq)
	}
	wg.Wait()
	return out
}

func runServe(s serveSpec, cfg runConfig) (*outcome, error) {
	ds, err := loadDataset(serveDataset, cfg.seed)
	if err != nil {
		return nil, err
	}
	n := ds.NumVertices()
	warm := stream(cfg.seed^0x5eed, s.rate, serveWarmup, n)
	reqs := stream(cfg.seed, s.rate, cfg.seconds, n)
	o := newOracle(ds, cfg.seed, 1+len(updateTimes(cfg.seconds)))
	baseHeap := liveHeapMB()

	res := &outcome{values: map[string]float64{}}
	// Set-up: from serve.New until the first query is answered, repeated on
	// fresh servers. The first query asks for the most popular vertices, so
	// its cost does not hinge on which vertices the stream happens to start
	// with.
	first := request{verts: []int32{0, 1, 2, 3}}
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		srv, err := serve.New(serveConfig(ds, serve.NewStatic(o.models[0]), cfg.seed, nil))
		if err != nil {
			return nil, err
		}
		r, err := srv.Query(toRequest(first))
		setups[i] = time.Since(t0).Seconds()
		srv.Close()
		if err != nil || !o.check(first, r) {
			res.failed++
		}
	}
	res.values["setup_s"] = median(setups)

	p, err := runPhase(ds, o, warm, reqs, cfg.seed, cfg.seconds, baseHeap, nil)
	if err != nil {
		return nil, err
	}
	res.attempted = int64(len(p.reqs))
	res.failed += p.failed()
	// The median is that of a typical request, due outside every refill: a
	// refill stretches with any CPU the host takes away, and how much of it
	// falls below the median would move the median with it. The tail is
	// over every request; the refill bursts decide it.
	lats := p.latencies(func(int) bool { return true })
	blockTails := p.blockTails(cfg.seconds)
	res.values["latency_ms.p50"] = median(p.latencies(func(i int) bool { return !p.postUpdate(i) }))
	res.values["latency_ms.tail"] = median(blockTails)
	res.values["cpu_ms_per_op"] = ms(p.cpu) / float64(len(p.reqs))
	res.values["live_heap_mb"] = p.heapMB
	warmLats := make([]float64, len(p.warm))
	for i, s := range p.warm {
		warmLats[i] = s.lat
	}
	logf("requests sent=%d succeeded=%d failed=%d updates=%d tail=p%g per span %.3f ms late_max=%.3fms",
		len(p.reqs), len(lats), res.failed, len(p.updates), tailPercentile(len(lats)/tailBlocks), blockTails, p.lateMax())
	logf("warm-up requests=%d p50=%.3fms max=%.3fms", len(p.warm), median(warmLats), percentile(warmLats, 100))
	if !cfg.trace {
		return res, nil
	}

	tr := obs.NewTracer()
	tp, err := runPhase(ds, o, warm, reqs, cfg.seed, cfg.seconds, baseHeap, tr)
	if err != nil {
		return nil, err
	}
	res.attempted += int64(len(tp.reqs))
	res.failed += tp.failed()
	v := res.values
	v["obs.trace_overhead_ms"] = median(tp.latencies(func(i int) bool { return !tp.postUpdate(i) })) - v["latency_ms.p50"]
	stage := func(f func(serve.StageTiming) time.Duration) []float64 {
		var xs []float64
		for _, s := range p.out {
			if s.ok {
				xs = append(xs, ms(f(s.timing)))
			}
		}
		return xs
	}
	queue := stage(func(t serve.StageTiming) time.Duration { return t.Queue })
	extract := stage(func(t serve.StageTiming) time.Duration { return t.Extract })
	compute := stage(func(t serve.StageTiming) time.Duration { return t.Compute })
	cache := stage(func(t serve.StageTiming) time.Duration { return t.Cache })
	v["serve.queue_ms.p50"], v["serve.queue_ms.p99"] = median(queue), percentile(queue, 99)
	v["serve.extract_ms.p50"], v["serve.extract_ms.p99"] = median(extract), percentile(extract, 99)
	v["serve.compute_ms.p50"], v["serve.compute_ms.p99"] = median(compute), percentile(compute, 99)
	v["serve.cache_ms.p99"] = percentile(cache, 99)
	d0, d1 := p.stats[0], p.stats[1]
	if b := d1.Batches - d0.Batches; b > 0 {
		v["serve.batch_verts_mean"] = float64(queryVerts*(d1.BatchedRequests-d0.BatchedRequests)) / float64(b)
	}
	hits, misses := d1.Cache.Hits-d0.Cache.Hits, d1.Cache.Misses-d0.Cache.Misses
	if hits+misses > 0 {
		v["serve.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	v["serve.cache_evictions"] = float64(d1.Cache.Evictions - d0.Cache.Evictions)
	v["serve.post_update_ms.p99"] = percentile(p.latencies(p.postUpdate), 99)
	v["serve.exact_ms.p99"] = percentile(p.latencies(func(i int) bool { return !p.reqs[i].sampled }), 99)
	v["serve.sampled_ms.p99"] = percentile(p.latencies(func(i int) bool { return p.reqs[i].sampled }), 99)
	v["loadgen.late_ms.max"] = p.lateMax()
	v["runtime.gc_cpu_share"] = p.gc / p.cpu.Seconds()
	return res, writeTrace(cfg, tr, func(row int) string {
		switch {
		case row < 2:
			return fmt.Sprintf("extract %d", row)
		case row < benchRow:
			return fmt.Sprintf("compute %d", row-2)
		case row == benchRow:
			return "benchmark"
		default:
			return fmt.Sprintf("queries %d", row-benchRow-1)
		}
	})
}

// latencies returns the latencies of the answered requests keep selects.
func (p *phase) latencies(keep func(i int) bool) []float64 {
	var xs []float64
	for i, s := range p.out {
		if s.ok && keep(i) {
			xs = append(xs, s.lat)
		}
	}
	return xs
}

// blockTails splits the schedule of length dur into tailBlocks equal spans
// and returns the tail of each span's latencies. Their median is the run's
// tail: a refill that ran long moves one span, not the metric.
func (p *phase) blockTails(dur time.Duration) []float64 {
	span := dur / tailBlocks
	tails := make([]float64, tailBlocks)
	for b := range tails {
		lo, hi := time.Duration(b)*span, time.Duration(b+1)*span
		tails[b] = tail(p.latencies(func(i int) bool { return p.reqs[i].due >= lo && p.reqs[i].due < hi }))
	}
	return tails
}

// postUpdate reports whether request i was due within refillWindow after
// an update.
func (p *phase) postUpdate(i int) bool {
	due := p.reqs[i].due
	for _, u := range p.updates {
		if due >= u && due < u+refillWindow {
			return true
		}
	}
	return false
}

func (p *phase) lateMax() float64 {
	m := 0.0
	for _, s := range p.out {
		m = max(m, s.late)
	}
	return m
}

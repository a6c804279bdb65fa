package serve

import (
	"fmt"
	"sync"
	"testing"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

func testDataset(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	return dataset.Load(dataset.Spec{
		Name: "serve", Vertices: n, AvgDegree: 6, FeatureDim: 10,
		NumClasses: 4, HiddenDim: 8, Gen: dataset.GenSBM, Homophily: 0.8, Seed: seed,
	})
}

func testModel(ds *dataset.Dataset, kind nn.ModelKind, seed uint64) *nn.Model {
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	return nn.MustNewModel(kind, dims, 0, seed)
}

func newTestServer(t testing.TB, ds *dataset.Dataset, src Source, cacheBytes int64) *Server {
	t.Helper()
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features, Source: src,
		CacheBytes: cacheBytes, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServeMatchesReferenceAllKinds is the core exactness contract: for every
// architecture, an exact (unsampled) query answers with the same float32 rows
// as the full-graph reference forward restricted to the queried vertices —
// both logits and penultimate-layer embeddings — with caching disabled.
func TestServeMatchesReferenceAllKinds(t *testing.T) {
	ds := testDataset(t, 120, 11)
	verts := []int32{0, 3, 17, 55, 119, 64, 7}
	for _, kind := range nn.ModelKinds() {
		t.Run(string(kind), func(t *testing.T) {
			model := testModel(ds, kind, 21)
			s := newTestServer(t, ds, NewStatic(model), 0)
			res, err := s.Query(&Request{Verts: verts})
			if err != nil {
				t.Fatal(err)
			}
			ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
			penult := &nn.Model{Name: model.Name, Layers: model.Layers[:len(model.Layers)-1]}
			refEmb := engine.ReferenceForward(ds.Graph, penult, ds.Features)
			for i, v := range verts {
				assertRowEqual(t, "logits", v, res.Logits.Row(i), ref.Row(int(v)))
				assertRowEqual(t, "embeds", v, res.Embeds.Row(i), refEmb.Row(int(v)))
			}
		})
	}
}

// TestServeCacheParityAndInvalidation warms the cache, re-queries (must be
// bit-identical with hits recorded), then rolls new parameters through the
// source and asserts the answer tracks the new model — stale cached rows must
// not survive the version bump.
func TestServeCacheParityAndInvalidation(t *testing.T) {
	ds := testDataset(t, 120, 12)
	src := NewStatic(testModel(ds, nn.GCN, 31))
	s := newTestServer(t, ds, src, 1<<20)
	verts := []int32{1, 2, 40, 90}

	cold, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Logits.Equal(warm.Logits) {
		t.Fatal("cached answer differs from cold answer")
	}
	if st := s.Stats(); st.Cache.Hits == 0 {
		t.Fatalf("no cache hits after a repeat query: %+v", st.Cache)
	}
	ref := engine.ReferenceForward(ds.Graph, src.Snapshot(), ds.Features)
	for i, v := range verts {
		assertRowEqual(t, "warm logits", v, warm.Logits.Row(i), ref.Row(int(v)))
	}

	next := testModel(ds, nn.GCN, 77)
	src.Update(next)
	fresh, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version == warm.Version {
		t.Fatalf("version did not advance: %d", fresh.Version)
	}
	refNext := engine.ReferenceForward(ds.Graph, next, ds.Features)
	for i, v := range verts {
		assertRowEqual(t, "post-update logits", v, fresh.Logits.Row(i), refNext.Row(int(v)))
	}
	if fresh.Logits.Equal(warm.Logits) {
		t.Fatal("answer unchanged after parameter update")
	}
}

// TestServeStaleGenerationNeverCrosses replays the race between an
// extraction job and a parameter update deterministically: a job that took
// its (model, version, generation) triple before the update runs extract and
// compute after the cache refilled under the new parameters. It must neither
// read the new model's rows nor insert its own under the new generation, and
// its answer must be the old model's.
func TestServeStaleGenerationNeverCrosses(t *testing.T) {
	ds := testDataset(t, 120, 13)
	src := NewStatic(testModel(ds, nn.GCN, 41))
	s := newTestServer(t, ds, src, 1<<20)
	verts := []int32{1, 2, 40, 90}

	staleModel, staleVersion, staleGen := s.refresh()
	src.Update(testModel(ds, nn.GCN, 42))
	// A query under the new parameters refills the cache at the new
	// generation, so every row the stale job could look up is resident.
	if _, err := s.Query(&Request{Verts: verts}); err != nil {
		t.Fatal(err)
	}
	_, version, gen := s.refresh()
	if version == staleVersion || gen == staleGen {
		t.Fatalf("update did not advance version/generation: %d/%d -> %d/%d",
			staleVersion, staleGen, version, gen)
	}
	before := s.cache.stats()
	if before.Bytes == 0 {
		t.Fatal("the new-generation query cached nothing")
	}

	// The stale job also asks for vertices the cache has never seen, so any
	// insert it made would show up as new resident bytes.
	staleVerts := append([]int32{7, 63, 111}, verts...)
	w := &work{req: &Request{Verts: staleVerts}, done: make(chan struct{})}
	asm, err := s.extract(&job{items: []*work{w}}, staleModel, staleVersion, staleGen)
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range asm.plan.blocks {
		for i, row := range b.cached {
			if row != nil {
				t.Fatalf("stale job served layer %d row of vertex %d from the new generation", l, b.srcs[i])
			}
		}
	}
	s.compute(asm, cloneForCompute(staleModel))
	<-w.done
	after := s.cache.stats()
	if after.Bytes != before.Bytes || after.Hits != before.Hits {
		t.Fatalf("stale job touched the new generation: bytes %d -> %d, hits %d -> %d",
			before.Bytes, after.Bytes, before.Hits, after.Hits)
	}
	ref := engine.ReferenceForward(ds.Graph, staleModel, ds.Features)
	for i, v := range staleVerts {
		assertRowEqual(t, "stale-job logits", v, w.res.Logits.Row(i), ref.Row(int(v)))
	}
}

// TestServeEngineSourceTrainingStepInvalidates serves from a live training
// engine with caching on: a training step must advance the served version and
// the post-step answer must match the post-step reference, proving the cache
// invalidated on the parameter-version bump.
func TestServeEngineSourceTrainingStepInvalidates(t *testing.T) {
	ds := testDataset(t, 100, 13)
	eng, err := engine.NewEngine(ds, engine.Options{Workers: 2, Mode: engine.Hybrid, Model: nn.GCN, Seed: 5, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := newTestServer(t, ds, EngineSource(eng), 1<<20)
	verts := []int32{4, 9, 42}

	before, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	refBefore := engine.ReferenceForward(ds.Graph, eng.CloneModel(), ds.Features)
	for i, v := range verts {
		assertRowEqual(t, "pre-step logits", v, before.Logits.Row(i), refBefore.Row(int(v)))
	}

	eng.RunEpoch()

	after, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}
	if after.Version == before.Version {
		t.Fatalf("training step did not advance served version (%d)", after.Version)
	}
	refAfter := engine.ReferenceForward(ds.Graph, eng.CloneModel(), ds.Features)
	for i, v := range verts {
		assertRowEqual(t, "post-step logits", v, after.Logits.Row(i), refAfter.Row(int(v)))
	}
	if after.Logits.Equal(before.Logits) {
		t.Fatal("served logits unchanged across a training step")
	}
}

// TestServeInductive checks a never-seen vertex: its served rows must equal a
// reference forward over an extended graph that materialises the vertex for
// real. Appending a sink vertex leaves every existing in-degree unchanged, so
// the extended reference is exactly the overlay semantics.
func TestServeInductive(t *testing.T) {
	ds := testDataset(t, 80, 14)
	model := testModel(ds, nn.GCN, 41)
	s := newTestServer(t, ds, NewStatic(model), 1<<20)

	nbrs := []int32{2, 5, 11, 30}
	feat := make([]float32, ds.Spec.FeatureDim)
	for i := range feat {
		feat[i] = 0.1 * float32(i+1)
	}
	res, err := s.Query(&Request{
		Verts:     []int32{7},
		Inductive: []InductiveVertex{{Features: feat, Neighbors: nbrs}},
	})
	if err != nil {
		t.Fatal(err)
	}

	n := ds.Graph.NumVertices()
	var edges []graph.Edge
	off, srcs := ds.Graph.InOffsets(), ds.Graph.InSources()
	for v := 0; v < n; v++ {
		for e := off[v]; e < off[v+1]; e++ {
			edges = append(edges, graph.Edge{Src: srcs[e], Dst: int32(v)})
		}
	}
	for _, u := range nbrs {
		edges = append(edges, graph.Edge{Src: u, Dst: int32(n)})
	}
	g2, err := graph.FromEdges(n+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	f2 := tensor.New(n+1, ds.Spec.FeatureDim)
	for v := 0; v < n; v++ {
		copy(f2.Row(v), ds.Features.Row(v))
	}
	copy(f2.Row(n), feat)
	ref := engine.ReferenceForward(g2, model, f2)

	assertRowEqual(t, "known-vertex logits", 7, res.Logits.Row(0), ref.Row(7))
	assertRowEqual(t, "inductive logits", int32(n), res.Logits.Row(1), ref.Row(n))
}

// TestServeSampledReproducible pins the sampled path's determinism: the same
// request seed yields the same answer no matter the interleaving, and a
// fanout at least the max in-degree degenerates to the exact answer.
func TestServeSampledReproducible(t *testing.T) {
	ds := testDataset(t, 100, 15)
	model := testModel(ds, nn.GCN, 51)
	s := newTestServer(t, ds, NewStatic(model), 0)
	req := func(seed uint64, fanout int) *Result {
		res, err := s.Query(&Request{Verts: []int32{8, 33}, Fanouts: []int{fanout, fanout}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := req(9, 2), req(9, 2)
	if !a.Logits.Equal(b.Logits) {
		t.Fatal("same seed produced different sampled answers")
	}

	maxDeg := graph.ComputeStats(ds.Graph).MaxInDegree
	full := req(3, maxDeg+1)
	ref := engine.ReferenceForward(ds.Graph, model, ds.Features)
	assertRowEqual(t, "full-fanout logits", 8, full.Logits.Row(0), ref.Row(8))
	assertRowEqual(t, "full-fanout logits", 33, full.Logits.Row(1), ref.Row(33))
}

// TestServeBatchedEqualsSingle answers the same vertices through many
// concurrent singleton queries and through one multi-vertex request: the rows
// must agree bitwise — batching must be equivalence-preserving.
func TestServeBatchedEqualsSingle(t *testing.T) {
	ds := testDataset(t, 90, 16)
	model := testModel(ds, nn.SAGE, 61)
	s := newTestServer(t, ds, NewStatic(model), 0)

	verts := make([]int32, 30)
	for i := range verts {
		verts[i] = int32(i * 3)
	}
	batch, err := s.Query(&Request{Verts: verts})
	if err != nil {
		t.Fatal(err)
	}

	single := make([]*Result, len(verts))
	var wg sync.WaitGroup
	for i, v := range verts {
		wg.Add(1)
		go func(i int, v int32) {
			defer wg.Done()
			res, err := s.Query(&Request{Verts: []int32{v}})
			if err != nil {
				t.Error(err)
				return
			}
			single[i] = res
		}(i, v)
	}
	wg.Wait()
	for i, v := range verts {
		if single[i] == nil {
			t.Fatal("missing singleton result")
		}
		assertRowEqual(t, "batched vs single", v, batch.Logits.Row(i), single[i].Logits.Row(0))
	}
}

// TestServeValidation rejects malformed requests without touching the
// pipeline.
func TestServeValidation(t *testing.T) {
	ds := testDataset(t, 50, 17)
	s := newTestServer(t, ds, NewStatic(testModel(ds, nn.GCN, 71)), 0)
	bad := []*Request{
		{},
		{Verts: []int32{-1}},
		{Verts: []int32{50}},
		{Verts: []int32{0}, Fanouts: []int{0, 3}},
		{Inductive: []InductiveVertex{{Features: []float32{1}, Neighbors: []int32{0}}}},
		{Inductive: []InductiveVertex{{Features: make([]float32, 10), Neighbors: []int32{99}}}},
		{Verts: []int32{0}, Fanouts: []int{5}}, // wrong fanout arity for a 2-layer model
	}
	for i, req := range bad {
		if _, err := s.Query(req); err == nil {
			t.Errorf("request %d accepted: %+v", i, req)
		}
	}
	if _, err := s.Query(&Request{Verts: []int32{49}}); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

// TestServeCloseDrains submits queries, closes, and checks post-close
// submissions fail while pre-close ones completed.
func TestServeCloseDrains(t *testing.T) {
	ds := testDataset(t, 60, 18)
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features,
		Source: NewStatic(testModel(ds, nn.GCN, 81)), Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(&Request{Verts: []int32{1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Query(&Request{Verts: []int32{1}}); err == nil {
		t.Fatal("query accepted after Close")
	}
}

func assertRowEqual(t *testing.T, what string, v int32, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s vertex %d: %d cols vs %d", what, v, len(got), len(want))
	}
	for c := range got {
		if got[c] != want[c] {
			t.Fatalf("%s vertex %d col %d: got %v want %v (%s)",
				what, v, c, got[c], want[c], fmt.Sprintf("diff %g", got[c]-want[c]))
		}
	}
}

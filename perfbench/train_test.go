package main

import (
	"testing"

	"neutronstar/internal/engine"
	"neutronstar/internal/tensor"
)

func TestDatasetIsDeterministicInSeed(t *testing.T) {
	for _, name := range []string{trainCommECS.dataset, trainHybridLocal.dataset, serveDataset} {
		a, err := loadDataset(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := loadDataset(name, 5)
		c, _ := loadDataset(name, 6)
		if a.NumEdges() != b.NumEdges() || !a.Features.Equal(b.Features) {
			t.Errorf("%s: same seed gave different datasets", name)
		}
		for v := int32(0); v < int32(a.NumVertices()); v++ {
			if !sameVerts(a.Graph.InNeighbors(v), b.Graph.InNeighbors(v)) {
				t.Fatalf("%s: same seed gave different in-neighbors of %d", name, v)
			}
		}
		if a.Features.Equal(c.Features) {
			t.Errorf("%s: different seeds gave the same features", name)
		}
	}
}

func sameVerts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPinnedPlanIsStable builds the hybrid workload's engine twice per seed:
// with the costs pinned, the plan depends on the input alone.
func TestPinnedPlanIsStable(t *testing.T) {
	s := trainHybridLocal
	fps := map[uint64]string{}
	for _, seed := range []uint64{3, 3, 4} {
		ds, err := loadDataset(s.dataset, seed)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.NewEngine(ds, s.engineOptions(seed, trainWorkers, tensor.NewPool(), nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint(eng.Decisions())
		cached, comm := planCounts(eng.Decisions())
		eng.Close()
		if cached == 0 || comm == 0 {
			t.Errorf("seed %d: plan caches %d and communicates %d dependencies, want a mix", seed, cached, comm)
		}
		if prev, ok := fps[seed]; ok && prev != fp {
			t.Errorf("seed %d: plan fingerprint %s, then %s", seed, prev, fp)
		}
		fps[seed] = fp
	}
	if fps[3] == fps[4] {
		t.Errorf("seeds 3 and 4 share plan fingerprint %s; the fingerprint ignores the plan", fps[3])
	}
}

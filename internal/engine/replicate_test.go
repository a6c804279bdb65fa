package engine

import (
	"fmt"
	"slices"
	"testing"

	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
)

// replicaPlan holds the per-worker vertex-cut replica closure of a fully
// cached execution: what a worker must hold locally so that no layer ever
// waits on a peer.
type replicaPlan struct {
	// sets[i][k] lists the non-owned vertices worker i replicates at
	// representation level k (k = 0 holds feature replicas), ascending.
	// Levels run 0..L-1: nothing consumes a replica's h^(L).
	sets        [][][]int32
	numVertices int
}

// buildReplicas computes every worker's replica closure for levels 0..L-1
// straight from the graph and the partition, independently of the planner
// and of buildPlans. Level L-1 holds the worker's remote dependencies
// (non-owned in-neighbor sources of owned vertices), and level k
// additionally holds the non-owned in-neighbors of every level-k+1 replica.
// Dependencies appear at every level (each layer consumes them), which the
// downward self chain provides.
func buildReplicas(g *graph.Graph, p *partition.Partition, levels int) *replicaPlan {
	rp := &replicaPlan{
		sets:        make([][][]int32, p.NumParts),
		numVertices: g.NumVertices(),
	}
	for i := 0; i < p.NumParts; i++ {
		rp.sets[i] = make([][]int32, levels)
		if levels == 0 {
			continue
		}
		cur := make(map[int32]struct{})
		for _, v := range p.Parts[i] {
			for _, u := range g.InNeighbors(v) {
				if p.Assign[u] != int32(i) {
					cur[u] = struct{}{}
				}
			}
		}
		for k := levels - 1; k >= 0; k-- {
			rp.sets[i][k] = sortedFromSet(cur)
			if k == 0 {
				break
			}
			next := make(map[int32]struct{}, len(cur))
			for v := range cur {
				next[v] = struct{}{} // self chain: h^(k)_v needs h^(k-1)_v
				for _, w := range g.InNeighbors(v) {
					if p.Assign[w] != int32(i) {
						next[w] = struct{}{}
					}
				}
			}
			cur = next
		}
	}
	return rp
}

// factor returns the vertex replication factor: (|V| + feature replicas)/|V|.
func (rp *replicaPlan) factor() float64 {
	n := 0
	for _, sets := range rp.sets {
		if len(sets) > 0 {
			n += len(sets[0])
		}
	}
	return float64(rp.numVertices+n) / float64(rp.numVertices)
}

// bruteReplicaSet is the recursive specification buildReplicas's downward
// iteration must match: need(v, k) marks v at level k and, for k > 0, needs
// v itself and its non-owned in-neighbors at k-1 (the self chain plus the
// aggregation inputs).
func bruteReplicaSet(g *graph.Graph, p *partition.Partition, worker, levels int) []map[int32]struct{} {
	sets := make([]map[int32]struct{}, levels)
	for k := range sets {
		sets[k] = make(map[int32]struct{})
	}
	var need func(v int32, k int)
	need = func(v int32, k int) {
		if _, ok := sets[k][v]; ok {
			return
		}
		sets[k][v] = struct{}{}
		if k == 0 {
			return
		}
		need(v, k-1)
		for _, u := range g.InNeighbors(v) {
			if p.Assign[u] != int32(worker) {
				need(u, k-1)
			}
		}
	}
	for _, v := range p.Parts[worker] {
		for _, u := range g.InNeighbors(v) {
			if p.Assign[u] != int32(worker) {
				need(u, levels-1)
			}
		}
	}
	return sets
}

func TestBuildReplicasMatchesRecursiveClosure(t *testing.T) {
	for _, tc := range []struct {
		n      int
		deg    float64
		parts  int
		levels int
		seed   uint64
	}{
		{60, 4, 3, 2, 7},
		{120, 6, 4, 3, 8},
		{40, 3, 5, 1, 9},
	} {
		g := testDataset(t, tc.n, tc.deg, tc.seed).Graph
		p, err := partition.New(partition.Chunk, g, tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		rp := buildReplicas(g, p, tc.levels)
		for w := 0; w < tc.parts; w++ {
			want := bruteReplicaSet(g, p, w, tc.levels)
			for k := 0; k < tc.levels; k++ {
				got := rp.sets[w][k]
				if len(got) != len(want[k]) {
					t.Fatalf("n=%d parts=%d: worker %d level %d: %d replicas, recursion says %d",
						tc.n, tc.parts, w, k, len(got), len(want[k]))
				}
				for i, v := range got {
					if _, ok := want[k][v]; !ok {
						t.Fatalf("worker %d level %d: vertex %d not in the recursive closure", w, k, v)
					}
					if i > 0 && got[i-1] >= v {
						t.Fatalf("worker %d level %d: replica list not strictly ascending at %d", w, k, i)
					}
					if p.Assign[v] == int32(w) {
						t.Fatalf("worker %d level %d: owned vertex %d listed as replica", w, k, v)
					}
				}
			}
		}
	}
}

// TestDepCachePlanMatchesReplicaClosure holds the execution plan's
// cachedCompute sets to the independent closure oracle: a DepCache plan
// caches every dependency at every layer, so at every level it must hold
// exactly the vertex-cut replica closure — no more (wasted recompute), no
// less (a layer would read a row nobody computed).
func TestDepCachePlanMatchesReplicaClosure(t *testing.T) {
	for _, algo := range []partition.Algorithm{partition.Chunk, partition.Metis, partition.Fennel} {
		for _, tc := range []struct {
			n       int
			deg     float64
			workers int
			layers  int
			seed    uint64
		}{
			{60, 4, 3, 2, 7},
			{120, 6, 4, 3, 8},
			{80, 5, 2, 4, 9},
		} {
			name := fmt.Sprintf("%s/n=%d/w=%d/L=%d", algo, tc.n, tc.workers, tc.layers)
			ds := testDataset(t, tc.n, tc.deg, tc.seed)
			e, err := NewEngine(ds, Options{
				Workers: tc.workers, Mode: DepCache, Layers: tc.layers,
				Partitioner: algo, Costs: pinnedCosts,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rp := buildReplicas(ds.Graph, e.part, tc.layers)
			for i, p := range e.plans {
				if len(p.cachedCompute) != tc.layers {
					t.Fatalf("%s: worker %d has %d cached levels, want %d", name, i, len(p.cachedCompute), tc.layers)
				}
				for k := range p.cachedCompute {
					if !slices.Equal(p.cachedCompute[k], rp.sets[i][k]) {
						t.Fatalf("%s: worker %d level %d: plan caches %d rows, replica closure %d",
							name, i, k, len(p.cachedCompute[k]), len(rp.sets[i][k]))
					}
				}
			}
			if got, want := e.ReplicationFactor(), rp.factor(); got != want {
				t.Fatalf("%s: ReplicationFactor = %g, closure says %g", name, got, want)
			}
			e.Close()
		}
	}
}

// TestReplicaFactor pins ReplicationFactor's ends: a single worker and a
// plan that caches nothing replicate no vertex, and caching on a connected
// graph replicates some.
func TestReplicaFactor(t *testing.T) {
	ds := testDataset(t, 200, 6, 4)
	for _, tc := range []struct {
		workers int
		mode    Mode
		more    bool
	}{
		{1, DepCache, false},
		{4, DepComm, false},
		{4, DepTP, false},
		{4, DepCache, true},
		{4, Hybrid, true},
	} {
		e, err := NewEngine(ds, Options{Workers: tc.workers, Mode: tc.mode, Costs: pinnedCosts})
		if err != nil {
			t.Fatal(err)
		}
		f := e.ReplicationFactor()
		e.Close()
		if tc.more && f <= 1 {
			t.Fatalf("%s/%dw: factor = %g, want > 1 on a connected graph", tc.mode, tc.workers, f)
		}
		if !tc.more && f != 1 {
			t.Fatalf("%s/%dw: factor = %g, want exactly 1", tc.mode, tc.workers, f)
		}
	}
}

// Package hybrid implements NeutronStar's core contribution: the dependency
// partitioning of Algorithm 4. For every worker and every layer, each remote
// dependency is assigned to either the DepCache set R_i^l (replicate its
// multi-hop subtree and recompute locally) or the DepComm set C_i^l (fetch
// its representation from its owner every epoch), by greedily caching the
// dependencies whose redundant-computation cost t_r^l(u) (Eq. 1) is below
// their communication cost t_c^l(u) (Eq. 2), discounting subtree overlap
// through the shared replica set V_rep, subject to the memory budget S.
//
// Setting every dependency to Cache reproduces the DepCache engine
// (Algorithm 2); setting every dependency to Comm reproduces DepComm
// (Algorithm 3). The execution engine consumes the same Decision structure
// for all three modes, which is exactly how the paper built its baselines
// ("DepCache and DepComm with NeutronStar's codebase").
package hybrid

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
)

// Decision records, for one worker, the per-layer split of its remote
// dependencies. Layer l (1-based) uses index l-1. On a non-tensor-parallel
// layer every dependency of the worker appears in exactly one of R[l-1] or
// C[l-1]; on a tensor-parallel layer both sets are empty and TP[l-1] is
// true — the layer has no per-vertex dependencies at all.
type Decision struct {
	// R[l-1] lists dependencies cached for layer l, ascending.
	R [][]int32
	// C[l-1] lists dependencies communicated at layer l, ascending.
	C [][]int32
	// TP[l-1] marks layer l as tensor-parallel (DepTP): the worker computes
	// an F/N-wide feature shard over the full graph and the slice-exchange
	// collectives replace R and C entirely. TP is a cluster-level per-layer
	// choice, identical across all workers' Decisions. Decisions from the
	// 2-way modes may carry a nil TP (all false).
	TP []bool
	// CacheBytes estimates the replica storage the cached sets require, at
	// float32 width.
	CacheBytes int64
	// EstCacheCost / EstCommCost are the modeled per-epoch costs (seconds)
	// of the chosen split, for reporting. Slice-exchange collective cost
	// counts as communication.
	EstCacheCost, EstCommCost float64
}

// TPAt reports whether layer l (1-based) is tensor-parallel under this
// decision. Safe on decisions from 2-way modes (nil TP).
func (d *Decision) TPAt(l int) bool {
	return d.TP != nil && l-1 < len(d.TP) && d.TP[l-1]
}

// NumTP returns the number of tensor-parallel layers.
func (d *Decision) NumTP() int {
	n := 0
	for _, tp := range d.TP {
		if tp {
			n++
		}
	}
	return n
}

// RepAt always reports false. There is no replicated policy: a fully
// replicated layer caches every dependency, which is exactly DepCache. The
// method stays because the benchmark's plan fingerprint (perfbench/train.go)
// hashes it, and the benchmark sources are frozen by its contract.
func (d *Decision) RepAt(l int) bool { return false }

// NumCached returns the total cached dependencies across layers.
func (d *Decision) NumCached() int {
	n := 0
	for _, r := range d.R {
		n += len(r)
	}
	return n
}

// NumComm returns the total communicated dependencies across layers.
func (d *Decision) NumComm() int {
	n := 0
	for _, c := range d.C {
		n += len(c)
	}
	return n
}

// Mode selects how dependencies are assigned.
type Mode int

const (
	// ModeHybrid runs Algorithm 4 (cost-based greedy).
	ModeHybrid Mode = iota
	// ModeAllCache assigns every dependency to R (DepCache engine).
	ModeAllCache
	// ModeAllComm assigns every dependency to C (DepComm engine).
	ModeAllComm
	// ModeRatio caches a fixed fraction of dependencies per layer, most
	// cache-efficient first (Figure 11's manual sweep).
	ModeRatio
	// ModeAllTP runs every layer tensor-parallel (the pure DepTP engine).
	ModeAllTP
	// ModeHybrid3 widens the greedy to the 3-way per-layer choice: the
	// 2-way Algorithm 4 mix, pure caching, pure communication, and
	// tensor-parallel layer suffixes all compete on modeled cost (see
	// decideThreeWay).
	ModeHybrid3
)

// Planner derives per-worker Decisions.
type Planner struct {
	Graph *graph.Graph
	Part  *partition.Partition
	// Dims is the representation dimension chain d^(0)..d^(L).
	Dims  []int
	Costs costmodel.Costs
	// MemBudget caps CacheBytes per worker; 0 means unlimited.
	MemBudget int64
	// Ratio is the cached fraction for ModeRatio, in [0, 1].
	Ratio float64
	// SliceTP reports that the model's aggregation is column-wise separable
	// (nn.SliceSeparable): tensor-parallel layers then run the cheap slice
	// dataflow instead of full-width row assembly, which changes the DepTP
	// collective volume the cost model charges (costmodel.TPVolume).
	SliceTP bool
}

// numLayers returns L.
func (p *Planner) numLayers() int { return len(p.Dims) - 1 }

// DecideAll computes one Decision per worker, in parallel (the paper
// executes Algorithm 4's cost evaluation in parallel, §5.2).
func (p *Planner) DecideAll(mode Mode) ([]*Decision, error) {
	if p.numLayers() < 1 {
		return nil, fmt.Errorf("hybrid: need at least 1 layer, dims=%v", p.Dims)
	}
	if mode == ModeHybrid3 {
		// The tensor-parallel choice is cluster-global (all workers must
		// agree per layer), so the 3-way planner cannot decide per worker.
		return p.decideThreeWay()
	}
	out := make([]*Decision, p.Part.NumParts)
	errs := make([]error, p.Part.NumParts)
	var wg sync.WaitGroup
	for i := 0; i < p.Part.NumParts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = p.decideWorker(i, mode)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dependencies returns worker i's remote dependency set D_i: the distinct
// non-owned sources of in-edges of owned vertices, ascending.
func (p *Planner) dependencies(i int) []int32 {
	seen := make(map[int32]struct{})
	for _, v := range p.Part.Parts[i] {
		for _, u := range p.Graph.InNeighbors(v) {
			if p.Part.Assign[u] != int32(i) {
				seen[u] = struct{}{}
			}
		}
	}
	deps := make([]int32, 0, len(seen))
	for u := range seen {
		deps = append(deps, u)
	}
	sort.Slice(deps, func(a, b int) bool { return deps[a] < deps[b] })
	return deps
}

// decideWorker runs the chosen assignment policy for worker i.
func (p *Planner) decideWorker(i int, mode Mode) (*Decision, error) {
	deps := p.dependencies(i)
	L := p.numLayers()
	d := &Decision{R: make([][]int32, L), C: make([][]int32, L), TP: make([]bool, L)}
	switch mode {
	case ModeAllTP:
		for l := 1; l <= L; l++ {
			d.TP[l-1] = true
			d.EstCommCost += p.tpLayerCost(i, l)
		}
		return d, nil
	case ModeAllCache, ModeAllComm:
		for l := 0; l < L; l++ {
			if mode == ModeAllCache {
				d.R[l] = deps
			} else {
				d.C[l] = deps
			}
		}
		d.EstCacheCost, d.EstCommCost, d.CacheBytes = p.evaluateCostSplit(i, d)
		return d, nil
	case ModeHybrid:
		p.greedy(i, deps, d, -1)
		return d, nil
	case ModeRatio:
		p.greedy(i, deps, d, p.Ratio)
		return d, nil
	default:
		return nil, fmt.Errorf("hybrid: unknown mode %d", mode)
	}
}

// depItem is a priority-queue entry ⟨u, t_r^l(u)⟩.
type depItem struct {
	u  int32
	tr float64
}

type depHeap []depItem

func (h depHeap) Len() int            { return len(h) }
func (h depHeap) Less(i, j int) bool  { return h[i].tr < h[j].tr }
func (h depHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x interface{}) { *h = append(*h, x.(depItem)) }
func (h *depHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// greedy is Algorithm 4. When ratio >= 0 the cost comparison on line 11 is
// replaced by a per-layer quota (cache the `ratio` fraction with the
// smallest t_r), which is how Figure 11 forces intermediate mixes.
//
// V_rep is level-aware: repLevel[v] = k records that h^(k)_v (and therefore
// v's whole subtree below level k) is already locally computable, so later
// dependencies whose subtrees overlap are charged only for the levels not
// yet replicated. Level 0 means "features cached" — free compute, memory
// only — which is why layer-1 dependencies always measure zero.
func (p *Planner) greedy(worker int, deps []int32, d *Decision, ratio float64) {
	L := p.numLayers()
	repLevel := make(map[int32]int) // vertex -> highest locally computable rep level
	owner := p.Part.Assign
	isOwned := func(v int32) bool { return owner[v] == int32(worker) }
	avail := func(v int32, lvl int) bool {
		if isOwned(v) {
			return true
		}
		if lvl == 0 {
			// Feature replicas are fetched once at setup; they never cost
			// per-epoch compute.
			return true
		}
		have, ok := repLevel[v]
		return ok && have >= lvl
	}

	// measure computes t_r^l(u): the redundant compute to produce h^(l-1)_u
	// locally, excluding already-available sub-results.
	measure := func(u int32, l int) float64 {
		if avail(u, l-1) {
			return 0
		}
		var t float64
		visited := map[int32]struct{}{u: {}}
		frontier := []int32{u}
		for lvl := l - 1; lvl >= 1 && len(frontier) > 0; lvl-- {
			dim := float64(p.Dims[lvl])
			var next []int32
			for _, v := range frontier {
				deg := float64(p.Graph.InDegree(v))
				t += (p.Costs.Tv + deg*p.Costs.Te) * dim
				if lvl-1 >= 1 {
					for _, w := range p.Graph.InNeighbors(v) {
						if _, ok := visited[w]; ok {
							continue
						}
						visited[w] = struct{}{}
						if avail(w, lvl-1) {
							continue
						}
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
		return t
	}

	// addToVRep replicates u's subtree for a layer-l use and returns the
	// newly charged storage bytes.
	addToVRep := func(u int32, l int) int64 {
		var bytes int64
		type qent struct {
			v   int32
			lvl int
		}
		queue := []qent{{v: u, lvl: l - 1}}
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			if isOwned(e.v) {
				continue
			}
			have, seen := repLevel[e.v]
			if seen && have >= e.lvl {
				continue
			}
			// Charge storage for the newly replicated levels.
			from := 0
			if seen {
				from = have + 1
			}
			for k := from; k <= e.lvl; k++ {
				bytes += int64(4 * p.Dims[k])
			}
			if !seen {
				bytes += int64(8 * p.Graph.InDegree(e.v)) // edge index storage
			}
			repLevel[e.v] = e.lvl
			if e.lvl >= 1 {
				for _, w := range p.Graph.InNeighbors(e.v) {
					queue = append(queue, qent{v: w, lvl: e.lvl - 1})
				}
			}
		}
		return bytes
	}

	for l := 1; l <= L; l++ {
		tc := p.Costs.CommCost(p.Dims[l-1])
		h := make(depHeap, 0, len(deps))
		for _, u := range deps {
			h = append(h, depItem{u: u, tr: measure(u, l)})
		}
		heap.Init(&h)
		quota := len(deps)
		if ratio >= 0 {
			quota = int(ratio * float64(len(deps)))
		}
		cached := make(map[int32]struct{})
		overBudget := false
		for h.Len() > 0 && len(cached) < quota {
			item := heap.Pop(&h).(depItem)
			// Re-measure excluding the V_rep accumulated meanwhile (line 10).
			tr := measure(item.u, l)
			take := tr < tc
			if ratio >= 0 {
				take = true
			}
			if !take {
				continue
			}
			bytes := addToVRep(item.u, l)
			if p.MemBudget > 0 && d.CacheBytes+bytes > p.MemBudget {
				// Line 14-15: memory exceeded — drop u and stop caching.
				overBudget = true
				break
			}
			d.CacheBytes += bytes
			d.EstCacheCost += tr
			cached[item.u] = struct{}{}
		}
		d.R[l-1] = sortedSet(cached)
		d.C[l-1] = subtract(deps, cached)
		d.EstCommCost += float64(len(d.C[l-1])) * tc
		if overBudget {
			// Remaining layers communicate everything.
			for k := l; k < L; k++ {
				d.R[k] = nil
				d.C[k] = deps
				d.EstCommCost += float64(len(deps)) * p.Costs.CommCost(p.Dims[k])
			}
			return
		}
	}
}

func sortedSet(m map[int32]struct{}) []int32 {
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func subtract(all []int32, drop map[int32]struct{}) []int32 {
	out := make([]int32, 0, len(all)-len(drop))
	for _, v := range all {
		if _, ok := drop[v]; !ok {
			out = append(out, v)
		}
	}
	return out
}

package hybrid

import (
	"fmt"
	"math"
	"sort"
)

// The paper observes (§3) that minimising Eq. 3 is NP-hard — it reduces to
// 0-1 integer linear programming — which is why Algorithm 4 is a greedy
// heuristic. This file provides an exhaustive solver for tiny instances
// (|D| small enough that (2^|D|)^L enumeration is feasible), used in tests
// to measure how far the greedy lands from the true optimum under the same
// cost semantics.

// EvaluateCost computes the exact modeled per-epoch cost of a concrete
// decision for one worker, using level-aware replica accounting that
// mirrors the execution plan: a cached dependency u at layer l requires
// h^(l-1)_u, hence the self-chain of u and the subtrees of its in-neighbors
// down to the features; every replicated vertex w with requirement level k
// is charged the vertex and edge work of all levels 1..k exactly once.
// Tensor-parallel layers contribute their slice-exchange collective cost
// instead (tpLayerCost). It returns the cost and the replica storage bytes.
func (p *Planner) EvaluateCost(worker int, d *Decision) (cost float64, bytes int64) {
	cacheCost, commCost, bytes := p.evaluateCostSplit(worker, d)
	return cacheCost + commCost, bytes
}

// evaluateCostSplit is EvaluateCost with the redundant-compute and
// communication components reported separately (slice-exchange collective
// cost counts as communication).
func (p *Planner) evaluateCostSplit(worker int, d *Decision) (cacheCost, commCost float64, bytes int64) {
	L := p.numLayers()
	owner := p.Part.Assign
	isOwned := func(v int32) bool { return owner[v] == int32(worker) }
	req := p.replicaLevels(worker, d)

	// Iterate replicas in sorted vertex order: map-range order would make the
	// float sum — and with it the candidate argmin on near-ties — depend on
	// the run, and the planner must be deterministic.
	reps := make([]int32, 0, len(req))
	for w := range req {
		reps = append(reps, w)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	for _, w := range reps {
		k := req[w]
		deg := float64(p.Graph.InDegree(w))
		for j := 1; j <= k; j++ {
			cacheCost += (p.Costs.Tv + deg*p.Costs.Te) * float64(p.Dims[j])
		}
		// Storage: one float32 row per held level 0..k plus 8 bytes per
		// in-edge for the replica's edge index slots.
		for j := 0; j <= k; j++ {
			bytes += int64(4 * p.Dims[j])
		}
		bytes += int64(8 * p.Graph.InDegree(w))
	}
	for l := 1; l <= L; l++ {
		if d.TPAt(l) {
			commCost += p.tpLayerCost(worker, l)
			continue
		}
		for _, u := range d.C[l-1] {
			if isOwned(u) {
				continue
			}
			if have, ok := req[u]; ok && have >= l-1 {
				continue // replicated anyway: nothing to fetch
			}
			if l == 1 {
				continue // features are fetched once at setup, not per epoch
			}
			commCost += p.Costs.CommCost(p.Dims[l-1])
		}
	}
	return cacheCost, commCost, bytes
}

// replicaLevels computes the worker's replica requirement map for a decision:
// req[w] is the highest representation level of non-owned vertex w that must
// be locally computable, derived by closing the cached sets over self chains
// and in-neighbor subtrees (the same expansion the execution plan performs).
func (p *Planner) replicaLevels(worker int, d *Decision) map[int32]int {
	L := p.numLayers()
	owner := p.Part.Assign
	isOwned := func(v int32) bool { return owner[v] == int32(worker) }
	req := make(map[int32]int)
	var mark func(v int32, lvl int)
	mark = func(v int32, lvl int) {
		if isOwned(v) || lvl < 0 {
			return
		}
		if have, ok := req[v]; ok && have >= lvl {
			return
		}
		req[v] = lvl
		if lvl >= 1 {
			for _, w := range p.Graph.InNeighbors(v) {
				mark(w, lvl-1)
			}
		}
	}
	for l := 1; l <= L; l++ {
		if d.TPAt(l) {
			continue // TP layers carry no R set
		}
		for _, u := range d.R[l-1] {
			mark(u, l-1)
		}
	}
	return req
}

// ExactDecision enumerates every per-layer cache/communicate assignment for
// worker and returns the decision minimising EvaluateCost subject to the
// memory budget. It refuses instances where the search space exceeds
// maxStates (the problem is NP-hard; this is a test oracle, not a planner).
func (p *Planner) ExactDecision(worker int, maxStates int) (*Decision, error) {
	deps := p.dependencies(worker)
	L := p.numLayers()
	nd := len(deps)
	states := math.Pow(2, float64(nd*L))
	if states > float64(maxStates) {
		return nil, fmt.Errorf("hybrid: exact search needs %.0f states (> %d)", states, maxStates)
	}
	var best *Decision
	bestCost := math.Inf(1)
	total := 1 << (nd * L)
	for code := 0; code < total; code++ {
		d := &Decision{R: make([][]int32, L), C: make([][]int32, L)}
		bits := code
		for l := 0; l < L; l++ {
			for i, u := range deps {
				if bits&(1<<(l*nd+i)) != 0 {
					d.R[l] = append(d.R[l], u)
				} else {
					d.C[l] = append(d.C[l], u)
				}
			}
		}
		cost, bytes := p.EvaluateCost(worker, d)
		if p.MemBudget > 0 && bytes > p.MemBudget {
			continue
		}
		if cost < bestCost {
			bestCost = cost
			d.CacheBytes = bytes
			d.EstCacheCost = cost
			best = d
		}
	}
	if best == nil {
		return nil, fmt.Errorf("hybrid: no feasible decision under budget %d", p.MemBudget)
	}
	return best, nil
}

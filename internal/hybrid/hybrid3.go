package hybrid

import (
	"fmt"

	"neutronstar/internal/costmodel"
)

// The 3-way planner. Tensor parallelism is not a per-dependency choice like
// cache-vs-comm: a TP layer requires every worker to run the same slice
// dataflow, and the slice layout of layer l feeds layer l+1's, so TP is a
// cluster-global per-layer bit. The planner therefore keeps Algorithm 4 for
// the per-vertex split and layers a deterministic candidate argmin on top:
// pure communication, the 2-way greedy mix, pure caching, and every
// "TP suffix" plan (layers t..L tensor-parallel, the greedy mix below t)
// compete on the exact modeled cost, and the cheapest wins.
//
// TP suffixes — rather than arbitrary TP subsets — keep the plan sound by
// construction: a TP layer's input must be exactly the owned rows, which
// holds iff no layer at or above it caches dependencies (replicas would
// widen the previous layer's output). The greedy prefix below t only
// replicates at levels < t-1, so every candidate satisfies the invariant.
//
// Tie rule (generalizing Algorithm 4 line 11's "tie falls to comm"): the
// argmin takes a strictly cheaper candidate only, and candidates are ordered
// communication, 2-way greedy, caching, then TP suffixes shallowest first —
// so an exact tie prefers comm over cache over TP, and less tensor
// parallelism over more.

// tpLayerCost returns the modeled slice-exchange cost of worker `worker`
// running layer l tensor-parallel (Eq. 2's T_c priced on collective volume,
// costmodel.TPVolume).
func (p *Planner) tpLayerCost(worker, l int) float64 {
	n := p.Part.NumParts
	d := p.Dims[l-1]
	lo, hi := costmodel.TPColRange(d, n, worker)
	vol := costmodel.TPVolume(p.SliceTP, l == 1, p.Graph.NumVertices(),
		len(p.Part.Parts[worker]), d, hi-lo)
	return p.Costs.TPCost(vol)
}

// decideAllSeq is DecideAll's per-worker loop without the goroutine fan-out:
// candidate generation inside decideThreeWay must be deterministic and cheap
// enough that parallelism buys nothing.
func (p *Planner) decideAllSeq(mode Mode) ([]*Decision, error) {
	out := make([]*Decision, p.Part.NumParts)
	for i := range out {
		d, err := p.decideWorker(i, mode)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// tpSuffix derives the candidate plan with layers t..L tensor-parallel and
// the base plan's split below t. R/C slice headers are shared with base
// (read-only); the Decision structs are fresh.
func (p *Planner) tpSuffix(base []*Decision, t int) []*Decision {
	L := p.numLayers()
	out := make([]*Decision, len(base))
	for w, b := range base {
		d := &Decision{R: make([][]int32, L), C: make([][]int32, L), TP: make([]bool, L)}
		for l := 1; l < t; l++ {
			d.R[l-1] = b.R[l-1]
			d.C[l-1] = b.C[l-1]
		}
		for l := t; l <= L; l++ {
			d.TP[l-1] = true
		}
		out[w] = d
	}
	return out
}

// decideThreeWay evaluates the candidate family and returns the cheapest
// feasible plan with its exact modeled costs filled in. With one worker all
// collective and dependency volumes are zero, every candidate ties at zero
// cost, and the tie rule picks pure communication — empty sets, no TP: the
// same degeneracy the 2-way modes exhibit.
func (p *Planner) decideThreeWay() ([]*Decision, error) {
	L := p.numLayers()
	allComm, err := p.decideAllSeq(ModeAllComm)
	if err != nil {
		return nil, err
	}
	greedy, err := p.decideAllSeq(ModeHybrid)
	if err != nil {
		return nil, err
	}
	allCache, err := p.decideAllSeq(ModeAllCache)
	if err != nil {
		return nil, err
	}
	candidates := [][]*Decision{allComm, greedy, allCache}
	for t := L; t >= 1; t-- {
		candidates = append(candidates, p.tpSuffix(greedy, t))
	}

	best := -1
	bestCost := 0.0
	for ci, cand := range candidates {
		total := 0.0
		feasible := true
		for w := range cand {
			cost, bytes := p.EvaluateCost(w, cand[w])
			if p.MemBudget > 0 && bytes > p.MemBudget {
				feasible = false
				break
			}
			total += cost
		}
		if !feasible {
			continue
		}
		if best < 0 || total < bestCost {
			best, bestCost = ci, total
		}
	}
	if best < 0 {
		// Unreachable: pure communication stores no replicas and always fits.
		return nil, fmt.Errorf("hybrid: no feasible plan under budget %d", p.MemBudget)
	}
	chosen := candidates[best]
	for w, d := range chosen {
		d.EstCacheCost, d.EstCommCost, d.CacheBytes = p.evaluateCostSplit(w, d)
	}
	return chosen, nil
}

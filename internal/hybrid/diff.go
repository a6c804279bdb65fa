package hybrid

// FlipReport summarises how two plans disagree: for every (worker, layer,
// dependency) slot, whether the dependency moved between the DepCache set R
// and the DepComm set C. It is the output of the cost-model counterfactual —
// "had the planner known the measured costs, how many decisions would flip?"
type FlipReport struct {
	// CacheToComm counts slots cached under plan A but communicated under B.
	CacheToComm int `json:"cache_to_comm"`
	// CommToCache counts slots communicated under A but cached under B.
	CommToCache int `json:"comm_to_cache"`
	// ToTP / FromTP count (worker, layer) slots that flipped into / out of
	// tensor parallelism between A and B. A layer that flips to TP drops all
	// its per-dependency slots from the membership comparison — the policy
	// change subsumes them.
	ToTP   int `json:"to_tp"`
	FromTP int `json:"from_tp"`
	// Slots is the number of comparable (worker, layer, dependency) slots.
	Slots int `json:"slots"`
}

// Flips returns the total number of flipped decisions: per-dependency
// cache/comm moves plus per-layer tensor-parallel moves.
func (f FlipReport) Flips() int {
	return f.CacheToComm + f.CommToCache + f.ToTP + f.FromTP
}

// DiffDecisions compares two plans over the same cluster shape. Workers and
// layers beyond the shorter plan are ignored; within a layer, membership is
// compared over the union of both sides' dependencies (the dependency sets of
// two plans for the same partition are identical by construction).
func DiffDecisions(a, b []*Decision) FlipReport {
	var rep FlipReport
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for w := 0; w < n; w++ {
		layers := len(a[w].R)
		if len(b[w].R) < layers {
			layers = len(b[w].R)
		}
		for l := 0; l < layers; l++ {
			aTP, bTP := a[w].TPAt(l+1), b[w].TPAt(l+1)
			if aTP || bTP {
				if !aTP && bTP {
					rep.ToTP++
				}
				if aTP && !bTP {
					rep.FromTP++
				}
				continue // TP layers have no per-dependency slots to compare
			}
			inA := make(map[int32]bool, len(a[w].R[l])+len(a[w].C[l]))
			for _, u := range a[w].R[l] {
				inA[u] = true
			}
			for _, u := range a[w].C[l] {
				inA[u] = false
			}
			for _, u := range b[w].R[l] {
				rep.Slots++
				if cached, ok := inA[u]; ok && !cached {
					rep.CommToCache++
				}
			}
			for _, u := range b[w].C[l] {
				rep.Slots++
				if cached, ok := inA[u]; ok && cached {
					rep.CacheToComm++
				}
			}
		}
	}
	return rep
}

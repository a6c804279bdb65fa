package engine

import (
	"neutronstar/internal/costmodel"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// Cost-model validation: the planner decided the DepCache/DepComm split from
// probed environment factors (Tv, Te, Tc) and Eq. 1–3's work counts. The
// flight recorder measures what those stages actually cost, so we can close
// the loop three ways:
//
//  1. Per-layer residuals — modeled vs. measured compute and communication
//     seconds, (meas−pred)/pred.
//  2. Fitted factors — empirical Tv/Te recovered from measured layer times by
//     least squares (falling back to a uniform rescale of the probe when the
//     layers cannot separate the two), and empirical Tc as measured
//     comm-seconds per communicated element.
//  3. A counterfactual plan — Algorithm 4 re-run under the fitted factors,
//     diffed against the plan under the probed ones: how many cache/comm
//     decisions would flip had the probe been right.

// LayerResidual compares modeled and measured cost at one layer, summed
// across workers and averaged over the sampled epochs.
type LayerResidual struct {
	Layer int `json:"layer"`
	// VertexOps / EdgeOps are the destination rows and edges the cluster
	// computes at this layer (owned + redundantly recomputed cached blocks).
	VertexOps int64 `json:"vertex_ops"`
	EdgeOps   int64 `json:"edge_ops"`
	// RecvRows is the number of dependency rows fetched over the network.
	RecvRows int64 `json:"recv_rows"`
	// RecvElems is the slice-exchange collective element volume of
	// tensor-parallel layers (zero elsewhere).
	RecvElems int64 `json:"recv_elems"`
	// Compute: prediction is (VertexOps·Tv + EdgeOps·Te)·d^(l) (the Eq. 1
	// work terms); measurement is the forward+backward stage seconds.
	PredComputeSeconds float64 `json:"pred_compute_seconds"`
	MeasComputeSeconds float64 `json:"meas_compute_seconds"`
	ComputeResidual    float64 `json:"compute_residual"`
	// Communication: prediction is RecvRows·Tc·d^(l-1) (Eq. 2–3);
	// measurement is dep-fetch send+recv plus the layer's mirror-gradient
	// scatter (Tc is calibrated for the bidirectional exchange).
	PredCommSeconds float64 `json:"pred_comm_seconds"`
	MeasCommSeconds float64 `json:"meas_comm_seconds"`
	CommResidual    float64 `json:"comm_residual"`
}

// CostReport is the full validator output.
type CostReport struct {
	// Epochs is the number of flight records averaged over.
	Epochs int `json:"epochs"`
	// Probed are the factors the planner used; Fitted are the empirical ones.
	Probed costmodel.Costs `json:"probed"`
	Fitted costmodel.Costs `json:"fitted"`
	// FitMethod is "least_squares" when Tv/Te separated cleanly, "scaled"
	// when the probe was uniformly rescaled, "probe" when nothing was
	// measurable (e.g. zero recorded compute time).
	FitMethod string          `json:"fit_method"`
	Layers    []LayerResidual `json:"layers"`
	// Flips diffs greedy plans under probed vs. fitted costs.
	Flips hybrid.FlipReport `json:"flips"`
}

// layerWork tallies cluster-wide modeled work per layer from the execution
// plans — the same quantities Eq. 1–3 charge, counted exactly.
type layerWork struct {
	vertexOps int64
	edgeOps   int64
	recvRows  int64
	// recvElems is the tensor-parallel slice-exchange volume (elements, not
	// rows: TP messages are column slices of varying width).
	recvElems int64
}

func (e *Engine) layerWorks() []layerWork {
	L := len(e.dims) - 1
	works := make([]layerWork, L)
	for _, p := range e.plans {
		for l := 0; l < L; l++ {
			if tp := p.tpLayers[l]; tp != nil {
				sh := tp.shared
				nOwned := len(p.owned)
				d := e.dims[l]
				width := int(tp.colStart[p.id+1] - tp.colStart[p.id])
				works[l].vertexOps += int64(nOwned)
				if sh.slice {
					// The edge stage covers all |E| edges at width/d of the
					// feature dimension: charge the pro-rated edge work.
					if d > 0 {
						works[l].edgeOps += int64(len(sh.srcRow)) * int64(width) / int64(d)
					}
				} else {
					works[l].edgeOps += int64(len(tp.full.srcRow))
				}
				works[l].recvElems += costmodel.TPVolume(sh.slice, l == 0,
					len(sh.globalRow), nOwned, d, width)
				continue
			}
			lp := &p.layers[l]
			works[l].vertexOps += int64(lp.owned.numDst() + lp.cached.numDst())
			works[l].edgeOps += int64(len(lp.owned.srcRow) + len(lp.cached.srcRow))
			for _, verts := range lp.recv {
				works[l].recvRows += int64(len(verts))
			}
		}
	}
	return works
}

// CostReport validates the cost model against the engine's flight records.
// Returns nil when no recorder is attached or no epoch has completed.
func (e *Engine) CostReport() *CostReport {
	if e.opts.Recorder == nil {
		return nil
	}
	return e.CostReportFrom(e.opts.Recorder.Snapshot())
}

// CostReportFrom validates against an explicit set of epoch records (the
// bench pipeline passes only post-warmup epochs).
func (e *Engine) CostReportFrom(recs []obs.EpochRecord) *CostReport {
	if len(recs) == 0 {
		return nil
	}
	works := e.layerWorks()
	L := len(works)
	rep := &CostReport{Epochs: len(recs), Probed: e.costs, Fitted: e.costs, FitMethod: "probe"}

	// Average measured stage seconds per layer across the sampled epochs.
	measCompute := make([]float64, L+1)
	measComm := make([]float64, L+1)
	for i := range recs {
		r := &recs[i]
		for l := 1; l <= L; l++ {
			measCompute[l] += r.LayerStageSeconds("forward", l) + r.LayerStageSeconds("backward", l)
			measComm[l] += r.LayerStageSeconds("dep_fetch_send", l) +
				r.LayerStageSeconds("dep_fetch_recv", l) +
				r.LayerStageSeconds("mirror_scatter", l)
		}
	}
	n := float64(len(recs))
	for l := 1; l <= L; l++ {
		measCompute[l] /= n
		measComm[l] /= n
	}

	// Fit empirical compute factors over the layers.
	var vElems, eElems, seconds []float64
	var predSum, measSum float64
	for l := 1; l <= L; l++ {
		w := works[l-1]
		d := float64(e.dims[l])
		vElems = append(vElems, float64(w.vertexOps)*d)
		eElems = append(eElems, float64(w.edgeOps)*d)
		seconds = append(seconds, measCompute[l])
		predSum += (float64(w.vertexOps)*e.costs.Tv + float64(w.edgeOps)*e.costs.Te) * d
		measSum += measCompute[l]
	}
	if tv, te, ok := costmodel.FitComputeFactors(vElems, eElems, seconds); ok {
		rep.Fitted.Tv, rep.Fitted.Te = tv, te
		rep.FitMethod = "least_squares"
	} else if predSum > 0 && measSum > 0 {
		scale := measSum / predSum
		rep.Fitted.Tv = e.costs.Tv * scale
		rep.Fitted.Te = e.costs.Te * scale
		rep.FitMethod = "scaled"
	}

	// Fit empirical Tc as comm seconds per communicated element — dependency
	// rows at their layer width plus TP collective volume.
	var commElems, commSeconds float64
	for l := 1; l <= L; l++ {
		commElems += float64(works[l-1].recvRows)*float64(e.dims[l-1]) +
			float64(works[l-1].recvElems)
		commSeconds += measComm[l]
	}
	if commElems > 0 && commSeconds > 0 {
		rep.Fitted.Tc = commSeconds / commElems
	}

	for l := 1; l <= L; l++ {
		w := works[l-1]
		lr := LayerResidual{
			Layer: l, VertexOps: w.vertexOps, EdgeOps: w.edgeOps,
			RecvRows: w.recvRows, RecvElems: w.recvElems,
			PredComputeSeconds: (float64(w.vertexOps)*e.costs.Tv + float64(w.edgeOps)*e.costs.Te) * float64(e.dims[l]),
			MeasComputeSeconds: measCompute[l],
			PredCommSeconds: float64(w.recvRows)*e.costs.CommCost(e.dims[l-1]) +
				e.costs.TPCost(w.recvElems),
			MeasCommSeconds: measComm[l],
		}
		if lr.PredComputeSeconds > 0 {
			lr.ComputeResidual = (lr.MeasComputeSeconds - lr.PredComputeSeconds) / lr.PredComputeSeconds
		}
		if lr.PredCommSeconds > 0 {
			lr.CommResidual = (lr.MeasCommSeconds - lr.PredCommSeconds) / lr.PredCommSeconds
		}
		rep.Layers = append(rep.Layers, lr)
	}

	rep.Flips = e.counterfactualFlips(rep.Fitted)
	return rep
}

// counterfactualFlips re-runs Algorithm 4 under probed and fitted costs and
// reports the decision diff. Planning is repeated from scratch (it is cheap
// relative to training) so the comparison is policy-to-policy regardless of
// the engine's actual mode.
func (e *Engine) counterfactualFlips(fitted costmodel.Costs) hybrid.FlipReport {
	// Engines planned with the 3-way family re-plan 3-way, so the
	// counterfactual can also report flips into or out of tensor parallelism.
	mode := hybrid.ModeHybrid
	if e.opts.Mode == DepTP || e.opts.Mode == Hybrid3 {
		mode = hybrid.ModeHybrid3
	}
	sliceTP := nn.SliceSeparable(e.opts.Model)
	base := &hybrid.Planner{
		Graph: e.ds.Graph, Part: e.part, Dims: e.dims,
		Costs: e.costs, MemBudget: e.opts.MemBudget, SliceTP: sliceTP,
	}
	alt := &hybrid.Planner{
		Graph: e.ds.Graph, Part: e.part, Dims: e.dims,
		Costs: fitted, MemBudget: e.opts.MemBudget, SliceTP: sliceTP,
	}
	planA, errA := base.DecideAll(mode)
	planB, errB := alt.DecideAll(mode)
	if errA != nil || errB != nil {
		return hybrid.FlipReport{}
	}
	return hybrid.DiffDecisions(planA, planB)
}

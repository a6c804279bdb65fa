package engine

import (
	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// Tensor-parallel layer execution. Two dataflows share the KindSlice message
// kind, distinguished by Seq:
//
// Slice dataflow (sum-decomposable layers — the edge stage is column-wise, so
// each worker aggregates the full graph over its own column slice):
//
//	Seq 0  slice-scatter   owner j ships peer w the w-columns of its owned rows
//	Seq 1  re-gather       worker j ships owner w the j-columns of w's rows
//	Seq 2  re-scatter      owner j ships worker w the w-columns of dAgg (adjoint of 1)
//	Seq 3  grad-scatter    worker j ships owner w the j-columns of dX (adjoint of 0)
//
// Assemble dataflow (attention/pooling layers mix columns in the edge stage,
// so slicing is unsound; the collective degrades to an all-gather):
//
//	Seq 0  all-gather      owner j broadcasts its full-width owned block
//	Seq 2  grad-scatter    worker j ships owner w its gradient for w's rows
//
// Every exchange is expectation-symmetric: a message from j exists iff the
// sender's owned block and the receiver's slice are both non-empty, and both
// sides derive that from the shared plan — zero-width slices and empty
// partitions exchange nothing.

// tpLayerRun holds the tensor-parallel tape state of one layer between the
// forward and backward sweeps.
type tpLayerRun struct {
	plan *tpLayerPlan
	// Slice dataflow: the edge stage runs on its own tape so the backward
	// can stop at the aggregation boundary, re-scatter the full-width
	// gradient, and only then push the assembled slice gradient through.
	sliceTape *autograd.Tape
	x         *autograd.Variable // slice input leaf X_j (|V| × width_j)
	aggSlice  *autograd.Variable // A_j = edge stage over the slice (|V| × width_j)
	agg       *autograd.Variable // main-tape leaf: re-gathered aggregation (|owned| × d)
	// Assemble dataflow:
	hAll *autograd.Variable // leaf: all-gathered full-width input (|V| × d)
}

// forwardLayerTP dispatches a tensor-parallel layer's forward pass.
func (ws *workerState) forwardLayerTP(epoch, l int, prevVal *tensor.Tensor,
	training bool, sc *obs.StageClock) layerRun {
	if ws.plan.tpLayers[l-1].shared.slice {
		return ws.forwardLayerTPSlice(epoch, l, prevVal, training, sc)
	}
	return ws.forwardLayerTPAssemble(epoch, l, prevVal, training, sc)
}

// backwardLayerTP dispatches a tensor-parallel layer's backward pass.
func (ws *workerState) backwardLayerTP(epoch, l int, runs []layerRun, sc *obs.StageClock) {
	if runs[l-1].tp.plan.shared.slice {
		ws.backwardLayerTPSlice(epoch, l, runs, sc)
	} else {
		ws.backwardLayerTPAssemble(epoch, l, runs, sc)
	}
}

// tpSend posts one slice-exchange message.
func (ws *workerState) tpSend(epoch, l, seq, to int, rows *tensor.Tensor) {
	ws.eng.fabric.Send(&comm.Message{
		From: ws.id, To: to, Kind: comm.KindSlice,
		Epoch: epoch, Layer: l, Seq: seq, Rows: rows,
	})
}

// tpSeedBackward assembles the upper layer's input gradient and runs this
// layer's main tape backward. For the top layer the loss already
// back-propagated on the same tape, so there is nothing to seed.
func (ws *workerState) tpSeedBackward(epoch, l int, runs []layerRun, sc *obs.StageClock) {
	if l >= len(runs) {
		return
	}
	run := &runs[l-1]
	upper := &runs[l]
	seed := upper.hPrev.Grad
	if seed == nil {
		seed = ws.alloc(true, run.out.Value.Rows(), run.out.Value.Cols())
	}
	// No-op unless the upper layer is a regular one that received mirrors —
	// impossible under the suffix invariant, but harmless and uniform.
	ws.receiveMirrorGrads(epoch, l+1, seed, sc)
	sc.Switch(obs.StageBackward, l)
	run.tape.Backward(run.out, seed)
}

// ---- Slice dataflow ----

// forwardLayerTPSlice: assemble the layer input's column slice over all |V|
// owner-block rows (static features at layer 1, a slice-scatter above),
// aggregate the full graph over that slice on a dedicated tape, re-gather the
// owned rows to full width, and run the vertex stage on the main tape.
func (ws *workerState) forwardLayerTPSlice(epoch, l int, prevVal *tensor.Tensor,
	training bool, sc *obs.StageClock) layerRun {

	tp := ws.plan.tpLayers[l-1]
	sh := tp.shared
	layer := ws.model.Layers[l-1]
	sd := layer.(nn.SumDecomposable)
	tape := ws.newTape(training)
	totalV := len(sh.globalRow)
	nOwned := len(ws.plan.owned)
	d := layer.InDim()
	lo, hi := int(tp.colStart[ws.id]), int(tp.colStart[ws.id+1])
	width := hi - lo
	requiresGrad := training && l > 1
	sc.Switch(obs.StageForward, l)

	// 1. Slice input X_j (|V| × width_j). Layer 1 reads the static feature
	// slice assembled at construction; deeper layers run the slice-scatter.
	xVal := ws.sliceFeat
	if l > 1 {
		sc.Switch(obs.StageDepFetchSend, l)
		for _, j := range ws.peerOrder() {
			plo, phi := int(tp.colStart[j]), int(tp.colStart[j+1])
			if nOwned == 0 || phi == plo {
				continue
			}
			rows := ws.alloc(training, nOwned, phi-plo)
			for r := 0; r < nOwned; r++ {
				copy(rows.Row(r), prevVal.Row(r)[plo:phi])
			}
			ws.tpSend(epoch, l, 0, j, rows)
		}
		xVal = nil
		if width > 0 {
			xVal = ws.alloc(training, totalV, width)
			sc.Switch(obs.StageDepFetchRecv, l)
			for _, j := range ws.peerOrder() {
				if sh.blockStart[j+1] == sh.blockStart[j] {
					continue
				}
				msg := ws.mb.Wait(comm.KindSlice, epoch, l, 0, j)
				base := int(sh.blockStart[j])
				for r := 0; r < msg.Rows.Rows(); r++ {
					copy(xVal.Row(base+r), msg.Rows.Row(r))
				}
			}
			base := int(sh.blockStart[ws.id])
			for r := 0; r < nOwned; r++ {
				copy(xVal.Row(base+r), prevVal.Row(r)[lo:hi])
			}
		}
		sc.Switch(obs.StageForward, l)
	}

	// 2. Edge stage over the full graph, restricted to this worker's columns,
	// on its own tape.
	run := layerRun{tape: tape}
	trun := &tpLayerRun{plan: tp}
	if width > 0 {
		sliceTape := ws.newTape(training)
		xLeaf := sliceTape.Leaf(xVal, requiresGrad, "tp_x")
		trun.sliceTape = sliceTape
		trun.x = xLeaf
		trun.aggSlice = sd.EdgeStage(sliceTape,
			sliceTape.Gather(xLeaf, sh.srcRow), sh.edgeNorm, sh.dstRow, totalV)
	}

	// 3. Re-gather: every owner receives its rows' aggregation at full width.
	aggFull := ws.alloc(training, nOwned, d)
	sc.Switch(obs.StageDepFetchSend, l)
	if width > 0 {
		for _, j := range ws.peerOrder() {
			blo, bhi := int(sh.blockStart[j]), int(sh.blockStart[j+1])
			if bhi == blo {
				continue
			}
			ws.tpSend(epoch, l, 1, j, trun.aggSlice.Value.RowSlice(blo, bhi))
		}
	}
	if nOwned > 0 {
		sc.Switch(obs.StageDepFetchRecv, l)
		for _, j := range ws.peerOrder() {
			plo, phi := int(tp.colStart[j]), int(tp.colStart[j+1])
			if phi == plo {
				continue
			}
			msg := ws.mb.Wait(comm.KindSlice, epoch, l, 1, j)
			for r := 0; r < nOwned; r++ {
				copy(aggFull.Row(r)[plo:phi], msg.Rows.Row(r))
			}
		}
		if width > 0 {
			base := int(sh.blockStart[ws.id])
			for r := 0; r < nOwned; r++ {
				copy(aggFull.Row(r)[lo:hi], trun.aggSlice.Value.Row(base+r))
			}
		}
	}
	sc.Switch(obs.StageForward, l)

	// 4. Vertex stage on the main tape. prevVal is exactly the owned rows
	// (TP layers admit no cached block below them), so it doubles as self.
	hPrev := tape.Leaf(prevVal, requiresGrad, "h_prev")
	aggLeaf := tape.Leaf(aggFull, requiresGrad, "tp_agg")
	out := sd.VertexStage(tape, aggLeaf, hPrev, tp.selfNormOwned, training, ws.rng)
	trun.agg = aggLeaf
	run.hPrev = hPrev
	run.out = out
	run.tp = trun
	return run
}

// backwardLayerTPSlice reverses forwardLayerTPSlice: main tape backward,
// re-scatter dAgg into column slices (Seq 2), slice tape backward, scatter dX
// back to the owners (Seq 3) who accumulate it with the self-path gradient.
func (ws *workerState) backwardLayerTPSlice(epoch, l int, runs []layerRun, sc *obs.StageClock) {
	run := &runs[l-1]
	tp := run.tp.plan
	sh := tp.shared
	sc.Switch(obs.StageBackward, l)
	ws.tpSeedBackward(epoch, l, runs, sc)
	if l == 1 {
		return // layer-1 inputs are static features: param grads only
	}

	nOwned := len(ws.plan.owned)
	totalV := len(sh.globalRow)
	d := run.tp.agg.Value.Cols()
	lo, hi := int(tp.colStart[ws.id]), int(tp.colStart[ws.id+1])
	width := hi - lo

	dAgg := run.tp.agg.Grad
	if dAgg == nil {
		dAgg = ws.alloc(true, nOwned, d)
	}

	// Re-scatter (adjoint of the re-gather): route each worker's columns of
	// my owned rows' aggregation gradient back to that worker.
	sc.Switch(obs.StageMirrorScatter, l)
	for _, j := range ws.peerOrder() {
		plo, phi := int(tp.colStart[j]), int(tp.colStart[j+1])
		if nOwned == 0 || phi == plo {
			continue
		}
		rows := ws.alloc(true, nOwned, phi-plo)
		for r := 0; r < nOwned; r++ {
			copy(rows.Row(r), dAgg.Row(r)[plo:phi])
		}
		ws.tpSend(epoch, l, 2, j, rows)
	}
	var dASlice *tensor.Tensor
	if width > 0 {
		dASlice = ws.alloc(true, totalV, width)
		for _, j := range ws.peerOrder() {
			if sh.blockStart[j+1] == sh.blockStart[j] {
				continue
			}
			msg := ws.mb.Wait(comm.KindSlice, epoch, l, 2, j)
			base := int(sh.blockStart[j])
			for r := 0; r < msg.Rows.Rows(); r++ {
				copy(dASlice.Row(base+r), msg.Rows.Row(r))
			}
		}
		base := int(sh.blockStart[ws.id])
		for r := 0; r < nOwned; r++ {
			copy(dASlice.Row(base+r), dAgg.Row(r)[lo:hi])
		}
	}
	sc.Switch(obs.StageBackward, l)

	// Slice-tape backward: dA_j → dX_j over the full graph.
	var dX *tensor.Tensor
	if width > 0 {
		run.tp.sliceTape.Backward(run.tp.aggSlice, dASlice)
		dX = run.tp.x.Grad
		if dX == nil {
			dX = ws.alloc(true, totalV, width)
		}
	}

	// Gradient scatter (adjoint of the slice-scatter): ship each owner its
	// rows of dX; owners accumulate every worker's columns — plus the local
	// self-path gradient already on hPrev — into the layer input's gradient.
	sc.Switch(obs.StageMirrorScatter, l)
	if width > 0 {
		for _, j := range ws.peerOrder() {
			blo, bhi := int(sh.blockStart[j]), int(sh.blockStart[j+1])
			if bhi == blo {
				continue
			}
			ws.tpSend(epoch, l, 3, j, dX.RowSlice(blo, bhi))
		}
	}
	hg := run.hPrev.Grad
	if hg == nil {
		hg = ws.alloc(true, run.hPrev.Value.Rows(), run.hPrev.Value.Cols())
		run.hPrev.Grad = hg
	}
	if width > 0 && nOwned > 0 {
		base := int(sh.blockStart[ws.id])
		for r := 0; r < nOwned; r++ {
			dst := hg.Row(r)[lo:hi]
			src := dX.Row(base + r)
			for c, g := range src {
				dst[c] += g
			}
		}
	}
	for _, j := range ws.peerOrder() {
		plo, phi := int(tp.colStart[j]), int(tp.colStart[j+1])
		if nOwned == 0 || phi == plo {
			continue
		}
		msg := ws.mb.Wait(comm.KindSlice, epoch, l, 3, j)
		for r := 0; r < nOwned; r++ {
			dst := hg.Row(r)[plo:phi]
			src := msg.Rows.Row(r)
			for c, g := range src {
				dst[c] += g
			}
		}
	}
	sc.Switch(obs.StageBackward, l)
}

// ---- Assemble dataflow ----

// forwardLayerTPAssemble: all-gather every worker's full-width owned block
// into the owner-block row universe, then run the owned destination block
// over it — the layer's edge stage (attention, pooling) sees every source at
// full width, so no model assumption is needed.
func (ws *workerState) forwardLayerTPAssemble(epoch, l int, prevVal *tensor.Tensor,
	training bool, sc *obs.StageClock) layerRun {

	tp := ws.plan.tpLayers[l-1]
	sh := tp.shared
	layer := ws.model.Layers[l-1]
	tape := ws.newTape(training)
	totalV := len(sh.globalRow)
	nOwned := len(ws.plan.owned)
	requiresGrad := training && l > 1
	sc.Switch(obs.StageForward, l)

	hAllVal := ws.eng.tpFeatAll
	if l > 1 {
		sc.Switch(obs.StageDepFetchSend, l)
		if nOwned > 0 {
			// One shared view for every peer, like the broadcast path.
			block := prevVal.RowSlice(0, nOwned)
			for _, j := range ws.peerOrder() {
				ws.tpSend(epoch, l, 0, j, block)
			}
		}
		hAllVal = ws.alloc(training, totalV, layer.InDim())
		sc.Switch(obs.StageDepFetchRecv, l)
		for _, j := range ws.peerOrder() {
			if sh.blockStart[j+1] == sh.blockStart[j] {
				continue
			}
			msg := ws.mb.Wait(comm.KindSlice, epoch, l, 0, j)
			base := int(sh.blockStart[j])
			for r := 0; r < msg.Rows.Rows(); r++ {
				copy(hAllVal.Row(base+r), msg.Rows.Row(r))
			}
		}
		base := int(sh.blockStart[ws.id])
		for r := 0; r < nOwned; r++ {
			copy(hAllVal.Row(base+r), prevVal.Row(r))
		}
		sc.Switch(obs.StageForward, l)
	}

	hAll := tape.Leaf(hAllVal, requiresGrad, "tp_h_all")
	zAll := hAll
	if pt, ok := layer.(nn.PreTransformer); ok {
		zAll = pt.PreTransform(tape, hAll, training, ws.rng)
	}
	out := ws.runBlock(tape, layer, &tp.full, zAll, zAll, training)

	// hPrev is a carrier for the lower layer's backward seed: the layer
	// consumed hAll, not prevVal, so this leaf is off the gradient path and
	// its Grad is assembled manually by the backward grad-scatter.
	hPrev := tape.Leaf(prevVal, false, "h_prev")
	return layerRun{tape: tape, hPrev: hPrev, out: out,
		tp: &tpLayerRun{plan: tp, hAll: hAll}}
}

// backwardLayerTPAssemble reverses the all-gather: each worker scatters its
// gradient for every owner's rows back to that owner, and owners sum their
// own contribution with every peer's (schedule order, so the float sum is
// deterministic) into the layer input's gradient.
func (ws *workerState) backwardLayerTPAssemble(epoch, l int, runs []layerRun, sc *obs.StageClock) {
	run := &runs[l-1]
	sh := run.tp.plan.shared
	sc.Switch(obs.StageBackward, l)
	ws.tpSeedBackward(epoch, l, runs, sc)
	if l == 1 {
		return // layer-1 inputs are static features: param grads only
	}

	nOwned := len(ws.plan.owned)
	d := run.hPrev.Value.Cols()
	dHAll := run.tp.hAll.Grad
	if dHAll == nil {
		dHAll = ws.alloc(true, len(sh.globalRow), d)
	}

	sc.Switch(obs.StageMirrorScatter, l)
	for _, j := range ws.peerOrder() {
		blo, bhi := int(sh.blockStart[j]), int(sh.blockStart[j+1])
		if bhi == blo {
			continue
		}
		ws.tpSend(epoch, l, 2, j, dHAll.RowSlice(blo, bhi))
	}
	dPrev := run.hPrev.Grad
	if dPrev == nil {
		dPrev = ws.alloc(true, run.hPrev.Value.Rows(), d)
		run.hPrev.Grad = dPrev
	}
	if nOwned > 0 {
		base := int(sh.blockStart[ws.id])
		for r := 0; r < nOwned; r++ {
			dst := dPrev.Row(r)
			src := dHAll.Row(base + r)
			for c, g := range src {
				dst[c] += g
			}
		}
		for _, j := range ws.peerOrder() {
			msg := ws.mb.Wait(comm.KindSlice, epoch, l, 2, j)
			for r := 0; r < nOwned; r++ {
				dst := dPrev.Row(r)
				src := msg.Rows.Row(r)
				for c, g := range src {
					dst[c] += g
				}
			}
		}
	}
	sc.Switch(obs.StageBackward, l)
}

package engine

import (
	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// workerState is one simulated cluster node: a model replica, the worker's
// slice of features and labels laid out in plan order, and its mailbox.
type workerState struct {
	id    int
	eng   *Engine
	plan  *workerPlan
	model *nn.Model
	opt   nn.Optimizer
	mb    *comm.Mailbox
	rng   *tensor.RNG
	// arena recycles this worker's training-time tensors (tape intermediates,
	// gradients, outgoing payloads) through the engine's pool; the engine
	// releases it at every epoch barrier. Nil when pooling is off or fault
	// injection is on (retransmissions may outlive the barrier).
	arena *tensor.Arena

	// feat is the layer-1 input in prev-layout: owned features followed by
	// cached (replicated) features — the one-time fetch of Algorithm 2
	// line 5 happens here at construction.
	feat *tensor.Tensor
	// sliceFeat is the worker's column slice of all features in owner-block
	// row order — the layer-1 input when that layer runs the tensor-parallel
	// slice dataflow (nil otherwise). Assembled once at construction, like
	// feat.
	sliceFeat *tensor.Tensor
	// labels / trainMask are aligned with the owned rows.
	labels    []int32
	trainMask []bool
	// totalLabeled is Σ_i |V_L ∩ V_i| — the global normaliser that makes the
	// distributed loss equal the single-machine mean loss.
	totalLabeled int
}

// layerRun keeps the tape state of one layer's forward pass for the
// backward sweep.
type layerRun struct {
	tape  *autograd.Tape
	hPrev *autograd.Variable // leaf: previous layer's output (prev-layout)
	hRecv *autograd.Variable // leaf: received mirror rows (nil if none)
	out   *autograd.Variable // this layer's output (owned ++ cached layout)
	// chunkLeaves holds per-peer received leaves when the layer ran through
	// the chunk-pipelined path (hRecv is nil then).
	chunkLeaves []chunkLeaf
	// tp holds the tensor-parallel tape state when the layer ran the DepTP
	// dataflow (everything above is nil or a carrier then).
	tp *tpLayerRun
}

// chunkLeaf is one peer's received chunk as a tape leaf.
type chunkLeaf struct {
	peer int
	v    *autograd.Variable
}

func newWorkerState(id int, e *Engine, model *nn.Model) *workerState {
	plan := e.plans[id]
	ds := e.ds
	ws := &workerState{
		id: id, eng: e, plan: plan, model: model,
		opt: nn.NewAdam(e.opts.LR),
		mb:  e.fabric.Mailbox(id),
		rng: tensor.NewRNG(e.opts.Seed ^ (uint64(id)+1)*0x9E3779B9),
	}
	if e.opts.Fault == nil {
		ws.arena = e.opts.Pool.Arena()
	}
	// Assemble the layer-1 input block: owned features ++ cached features.
	dim := ds.Spec.FeatureDim
	cached0 := plan.cachedComputeAt(0)
	ws.feat = tensor.New(len(plan.owned)+len(cached0), dim)
	for r, v := range plan.owned {
		copy(ws.feat.Row(r), ds.Features.Row(int(v)))
	}
	for r, v := range cached0 {
		copy(ws.feat.Row(len(plan.owned)+r), ds.Features.Row(int(v)))
	}
	// Cached feature rows may be stored quantized: round-trip only those rows
	// through the storage format. Owners keep full precision, and every
	// worker caching the same vertex round-trips the same source row
	// identically, so runs stay deterministic and the deviation from the
	// exact run is bounded by partition.RequantizeErrorBound.
	if q := e.cacheQuant; q != partition.RepQuantOff {
		for r := range cached0 {
			partition.Requantize(q, ws.feat.Row(len(plan.owned)+r))
		}
	}
	if tp := plan.tpLayers[0]; tp != nil && tp.shared.slice {
		sh := tp.shared
		lo, hi := int(tp.colStart[id]), int(tp.colStart[id+1])
		ws.sliceFeat = tensor.New(ds.NumVertices(), hi-lo)
		if hi > lo {
			for v := 0; v < ds.NumVertices(); v++ {
				copy(ws.sliceFeat.Row(int(sh.globalRow[v])), ds.Features.Row(v)[lo:hi])
			}
		}
	}
	ws.labels = make([]int32, len(plan.owned))
	ws.trainMask = make([]bool, len(plan.owned))
	for r, v := range plan.owned {
		ws.labels[r] = ds.Labels[v]
		ws.trainMask[r] = ds.TrainMask[v]
	}
	ws.totalLabeled = ds.TrainLabeledCount()
	return ws
}

// newTape returns the tape for one layer's forward pass: arena-backed during
// training (everything on it dies by the epoch barrier), plain-allocating for
// inference, whose outputs outlive any barrier.
func (ws *workerState) newTape(training bool) *autograd.Tape {
	if training && ws.arena != nil {
		return autograd.NewTapeArena(ws.arena)
	}
	return autograd.NewTape()
}

// alloc returns a zeroed tensor from the worker's arena when it may be
// recycled at the epoch barrier (training), or a plain allocation otherwise.
func (ws *workerState) alloc(training bool, rows, cols int) *tensor.Tensor {
	if training {
		return ws.arena.Get(rows, cols)
	}
	return tensor.New(rows, cols)
}

// peerOrder returns the peer iteration order for this worker under the
// configured schedule.
func (ws *workerState) peerOrder() []int {
	if ws.eng.opts.Ring {
		return comm.RingOrder(ws.id, ws.eng.opts.Workers)
	}
	return comm.NaiveOrder(ws.id, ws.eng.opts.Workers)
}

// runEpoch performs one full forward/backward/update cycle and returns the
// local loss sum and labeled-vertex count.
func (ws *workerState) runEpoch(epoch int) (lossSum float64, count int) {
	L := len(ws.plan.layers)
	runs := make([]layerRun, L)
	// sc is this worker's exclusive stage clock for the epoch and the
	// worker's only phase bracket: its intervals feed the recorder's stage
	// cells and, through the sink, the collector's spans. Nil when recording
	// is off — every method on it is nil-safe. It lives on this goroutine
	// only; background send goroutines must never touch it.
	sc := ws.eng.rec.Clock(ws.id)
	sc.SetSink(ws.eng.sink)
	defer sc.End()

	// ---- Forward: synchronize-compute per layer ----
	prevVal := ws.feat
	for l := 1; l <= L; l++ {
		if ws.plan.tpLayers[l-1] != nil {
			runs[l-1] = ws.forwardLayerTP(epoch, l, prevVal, true, sc)
		} else {
			runs[l-1] = ws.forwardLayer(epoch, l, prevVal, true, sc)
		}
		prevVal = runs[l-1].out.Value
	}

	// ---- Loss on owned rows of the final layer ----
	sc.Switch(obs.StageBackward, L)
	last := &runs[L-1]
	tape := last.tape
	ownedRows := len(ws.plan.owned)
	logits := last.out
	if logits.Value.Rows() != ownedRows {
		// Final layer has no cached block by construction; guard regardless.
		logits = tape.SliceRows(logits, 0, ownedRows)
	}
	loss, n := tape.NLLLossMasked(tape.LogSoftmax(logits), ws.labels, ws.trainMask)
	count = n
	lossSum = float64(loss.Value.At(0, 0)) * float64(n)

	// Seed so that the aggregated gradient equals the gradient of the
	// global mean loss: d(global mean)/d(local mean) = n / totalLabeled.
	seed := ws.alloc(true, 1, 1)
	if ws.totalLabeled > 0 {
		seed.Set(0, 0, float32(n)/float32(ws.totalLabeled))
	}
	tape.Backward(loss, seed)

	// ---- Backward: compute-synchronize per layer ----
	for l := L; l >= 1; l-- {
		if runs[l-1].tp != nil {
			ws.backwardLayerTP(epoch, l, runs, sc)
		} else {
			ws.backwardLayer(epoch, l, runs, sc)
		}
	}

	// ---- Parameter update: collect, synchronise, step ----
	sc.Switch(obs.StageBackward, 0)
	params := ws.model.Params()
	for _, p := range params {
		p.CollectGrad()
	}
	if sched := ws.eng.opts.Scheduler; sched != nil {
		nn.SetLR(ws.opt, sched.LR(epoch))
	}
	sc.Switch(obs.StageGradSync, 0)
	if ws.eng.opts.ParamServer {
		// Clipping happens on the server after summation; workers receive
		// the already-stepped parameters.
		ws.paramServerUpdate(epoch, params)
	} else {
		ws.allReduceGrads(epoch, params)
		if ws.eng.opts.ClipNorm > 0 {
			nn.ClipGradNorm(params, ws.eng.opts.ClipNorm)
		}
		ws.opt.Step(params)
	}
	nn.ZeroGrads(params)
	return lossSum, count
}

// forwardLayer executes one layer: send master rows, redundantly compute the
// cached block, receive mirror rows, compute the owned block.
func (ws *workerState) forwardLayer(epoch, l int, prevVal *tensor.Tensor, training bool, sc *obs.StageClock) layerRun {
	lp := &ws.plan.layers[l-1]
	layer := ws.model.Layers[l-1]
	tape := ws.newTape(training)
	sc.Switch(obs.StageForward, l)

	sendDone := make(chan struct{})
	send := func() {
		defer close(sendDone)
		ws.sendReps(epoch, l, prevVal, training)
	}
	if ws.eng.opts.Overlap {
		// Background send must never touch sc: the clock is single-goroutine.
		// Its wire bytes are still attributed via the fabric hooks.
		go send()
	} else {
		sc.Switch(obs.StageDepFetchSend, l)
		send()
		sc.Switch(obs.StageForward, l)
	}

	// Chunk-pipelined path (§4.3, Fig. 8): for sum-decomposable layers each
	// received chunk's edge stage runs as the chunk arrives, so compute on
	// chunk k overlaps delivery of chunk k+1.
	if sd, ok := layer.(nn.SumDecomposable); ok && ws.eng.opts.Overlap && !ws.eng.opts.Broadcast {
		run := ws.forwardLayerChunked(epoch, l, prevVal, training, sd, tape, sc)
		<-sendDone
		return run
	}

	requireFeatGrad := training && l > 1 // layer 1's input is the static feature block
	hPrev := tape.Leaf(prevVal, requireFeatGrad, "h_prev")

	// Vertex-level pre-transform (e.g. GAT's z = W·h) applies to every row
	// universe exactly once.
	zPrev := hPrev
	pt, hasPT := layer.(nn.PreTransformer)
	if hasPT {
		zPrev = pt.PreTransform(tape, hPrev, training, ws.rng)
	}

	// Cached (DepCache) block: all sources are local, so it runs while the
	// mirror exchange is in flight — the overlap of Fig. 8.
	var outCached *autograd.Variable
	if lp.cached.numDst() > 0 {
		depCacheHits.Add(float64(lp.cached.numDst()))
		outCached = ws.runBlock(tape, layer, &lp.cached, zPrev, zPrev, training)
	}

	// Receive mirror chunks; assemble the received row block.
	var hRecv *autograd.Variable
	zAll := zPrev
	numRecv := lp.numHAllRows - lp.numPrevRows
	if numRecv > 0 {
		depCacheMisses.Add(float64(numRecv))
		sc.Switch(obs.StageDepFetchRecv, l)
		recvVal := ws.alloc(training, numRecv, layer.InDim())
		for _, j := range ws.peerOrder() {
			verts := lp.recv[j]
			if len(verts) == 0 {
				continue
			}
			base := int(lp.recvOffset[j]) - lp.numPrevRows
			if ws.eng.opts.Broadcast {
				msg := ws.mb.Wait(comm.KindBlock, epoch, l, 0, j)
				for r, v := range verts {
					idx := searchVertex(msg.Vertices, v)
					copy(recvVal.Row(base+r), msg.Rows.Row(idx))
				}
				continue
			}
			msg := ws.mb.Wait(comm.KindRep, epoch, l, 0, j)
			for r := range verts {
				copy(recvVal.Row(base+r), msg.Rows.Row(r))
			}
		}
		sc.Switch(obs.StageForward, l)
		hRecv = tape.Leaf(recvVal, true, "h_recv")
		zRecv := hRecv
		if hasPT {
			zRecv = pt.PreTransform(tape, hRecv, training, ws.rng)
		}
		zAll = tape.ConcatRows(zPrev, zRecv)
	}

	// Owned block: sources may live anywhere in zAll.
	outOwned := ws.runBlock(tape, layer, &lp.owned, zAll, zPrev, training)
	out := outOwned
	if outCached != nil {
		out = tape.ConcatRows(outOwned, outCached)
	}

	<-sendDone
	return layerRun{tape: tape, hPrev: hPrev, hRecv: hRecv, out: out}
}

// runForward executes a forward-only (inference) pass and returns the owned
// vertices' final-layer outputs. Parameters bound on the throwaway tapes are
// released immediately. epoch must be unique per collective (the engine uses
// a dedicated counter range so inference messages never alias training ones).
func (ws *workerState) runForward(epoch int) *tensor.Tensor {
	L := len(ws.plan.layers)
	prevVal := ws.feat
	for l := 1; l <= L; l++ {
		// Inference passes carry a nil clock: they run outside any epoch, the
		// recorder would drop their samples anyway, and they emit no spans.
		var run layerRun
		if ws.plan.tpLayers[l-1] != nil {
			run = ws.forwardLayerTP(epoch, l, prevVal, false, nil)
		} else {
			run = ws.forwardLayer(epoch, l, prevVal, false, nil)
		}
		prevVal = run.out.Value
	}
	for _, p := range ws.model.Params() {
		p.CollectGrad()
	}
	return prevVal.RowSlice(0, len(ws.plan.owned))
}

// forwardLayerChunked is the incremental-aggregation forward: the owned
// block's edges are processed per source region (local first, then each
// peer's chunk in arrival schedule order), partial aggregations are summed,
// and the vertex stage runs once at the end.
func (ws *workerState) forwardLayerChunked(epoch, l int, prevVal *tensor.Tensor,
	training bool, sd nn.SumDecomposable, tape *autograd.Tape, sc *obs.StageClock) layerRun {

	lp := &ws.plan.layers[l-1]
	layer := ws.model.Layers[l-1]
	hPrev := tape.Leaf(prevVal, training && l > 1, "h_prev")

	// Cached (DepCache) block first: pure local work that hides behind the
	// in-flight mirror exchange.
	var outCached *autograd.Variable
	if lp.cached.numDst() > 0 {
		depCacheHits.Add(float64(lp.cached.numDst()))
		outCached = ws.runBlock(tape, layer, &lp.cached, hPrev, hPrev, training)
	}

	numDst := lp.owned.numDst()
	var partials []*autograd.Variable
	groupFor := make(map[int]*chunkGroup, len(lp.ownedGroups))
	for gi := range lp.ownedGroups {
		g := &lp.ownedGroups[gi]
		if g.peer < 0 {
			// Local region: aggregate immediately.
			if len(g.srcLocal) > 0 {
				partials = append(partials,
					sd.EdgeStage(tape, tape.Gather(hPrev, g.srcLocal), g.edgeNorm, g.dstRow, numDst))
			}
			continue
		}
		groupFor[g.peer] = g
	}

	var leaves []chunkLeaf
	for _, j := range ws.peerOrder() {
		g := groupFor[j]
		verts := lp.recv[j]
		if len(verts) == 0 {
			continue
		}
		depCacheMisses.Add(float64(len(verts)))
		sc.Switch(obs.StageDepFetchRecv, l)
		msg := ws.mb.Wait(comm.KindRep, epoch, l, 0, j)
		sc.Switch(obs.StageForward, l)
		leaf := tape.Leaf(msg.Rows, true, "h_chunk")
		leaves = append(leaves, chunkLeaf{peer: j, v: leaf})
		if g == nil {
			continue // received for availability but no owned edge uses it
		}
		partials = append(partials,
			sd.EdgeStage(tape, tape.Gather(leaf, g.srcLocal), g.edgeNorm, g.dstRow, numDst))
	}

	var agg *autograd.Variable
	for _, p := range partials {
		if agg == nil {
			agg = p
		} else {
			agg = tape.Add(agg, p)
		}
	}
	if agg == nil {
		agg = tape.Constant(ws.alloc(training, numDst, layer.InDim()), "agg_zero")
	}
	self := tape.Gather(hPrev, lp.owned.selfRow)
	outOwned := sd.VertexStage(tape, agg, self, lp.owned.selfNorm, training, ws.rng)
	out := outOwned
	if outCached != nil {
		out = tape.ConcatRows(outOwned, outCached)
	}
	return layerRun{tape: tape, hPrev: hPrev, out: out, chunkLeaves: leaves}
}

// runBlock executes one destination block through the layer's Forward.
// srcUniverse provides edge-source rows; selfUniverse provides the
// destinations' own rows (always within the prev-layout part).
func (ws *workerState) runBlock(tape *autograd.Tape, layer nn.Layer, b *blockPlan,
	srcUniverse, selfUniverse *autograd.Variable, training bool) *autograd.Variable {
	ctx := &nn.ForwardCtx{
		Tape:     tape,
		EdgeSrc:  tape.Gather(srcUniverse, b.srcRow),
		Self:     tape.Gather(selfUniverse, b.selfRow),
		Offsets:  b.offsets,
		EdgeDst:  b.dstRow,
		EdgeNorm: b.edgeNorm,
		SelfNorm: b.selfNorm,
		Training: training,
		RNG:      ws.rng,
	}
	return layer.Forward(ctx)
}

// sendReps packs and sends this worker's master rows needed by each peer at
// layer l. prevVal rows 0..len(owned) are the owned vertices in ascending
// order, so row lookup is the position in the owned list. Training sends draw
// payload buffers from the arena (the receiver is done with them by the epoch
// barrier); inference payloads must outlive barriers and allocate plainly.
func (ws *workerState) sendReps(epoch, l int, prevVal *tensor.Tensor, training bool) {
	var arena *tensor.Arena
	if training {
		arena = ws.arena
	}
	lp := &ws.plan.layers[l-1]
	ownedPos := ws.plan.prevIndex[l-1] // owned rows come first in every layout
	for _, j := range ws.peerOrder() {
		verts := lp.send[j]
		if len(verts) == 0 {
			continue
		}
		if ws.eng.opts.Broadcast {
			// ROC-style: ship the whole owned block; the receiver picks the
			// rows it needs.
			msg := &comm.Message{
				From: ws.id, To: j, Kind: comm.KindBlock,
				Epoch: epoch, Layer: l,
				Vertices: ws.plan.owned,
				Rows:     prevVal.RowSlice(0, len(ws.plan.owned)),
			}
			ws.eng.fabric.Send(msg)
			continue
		}
		buf := comm.NewEnqueuerArena(ws.eng.opts.LockFree, verts, prevVal.Cols(), arena)
		tensor.ParallelRows(len(verts), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				// verts is the buffer's own vertex list, so position k IS the
				// destination row: skip the per-vertex position lookup.
				buf.WriteRowAt(k, prevVal.Row(int(ownedPos[verts[k]])))
			}
		})
		rows, ids := buf.Finish()
		msg := &comm.Message{
			From: ws.id, To: j, Kind: comm.KindRep,
			Epoch: epoch, Layer: l, Vertices: ids, Rows: rows,
		}
		ws.eng.fabric.Send(msg)
	}
}

// searchVertex returns the index of v in the ascending list, or -1.
func searchVertex(list []int32, v int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo] == v {
		return lo
	}
	return -1
}

// backwardLayer runs layer l's tape backward (seeded by the upper layer's
// input gradient plus remote mirror gradients), then posts mirror gradients
// back to their masters (PostToDepNbr).
func (ws *workerState) backwardLayer(epoch, l int, runs []layerRun, sc *obs.StageClock) {
	lp := &ws.plan.layers[l-1]
	run := &runs[l-1]
	sc.Switch(obs.StageBackward, l)

	// Seed: for the top layer the loss already back-propagated on the same
	// tape, so out.Grad is populated; for lower layers assemble the seed
	// from the upper layer's hPrev gradient and received mirror gradients.
	if l < len(runs) {
		upper := &runs[l]
		seed := upper.hPrev.Grad
		if seed == nil {
			seed = ws.alloc(true, run.out.Value.Rows(), run.out.Value.Cols())
		}
		// Mirror gradients for my masters sent at layer l+1 arrive from
		// every peer I sent rows to.
		ws.receiveMirrorGrads(epoch, l+1, seed, sc)
		sc.Switch(obs.StageBackward, l)
		run.tape.Backward(run.out, seed)
	}
	// Post mirror gradients of chunk-pipelined leaves (one message per peer
	// chunk) — except layer 1, whose inputs are static features.
	if len(run.chunkLeaves) > 0 && l > 1 {
		sc.Switch(obs.StageMirrorScatter, l)
		for _, cl := range run.chunkLeaves {
			verts := lp.recv[cl.peer]
			grad := cl.v.Grad
			if grad == nil {
				grad = ws.alloc(true, cl.v.Value.Rows(), cl.v.Value.Cols())
			}
			ws.eng.fabric.Send(&comm.Message{
				From: ws.id, To: cl.peer, Kind: comm.KindGrad,
				Epoch: epoch, Layer: l, Vertices: verts, Rows: grad,
			})
		}
		sc.Switch(obs.StageBackward, l)
	}
	// Post mirror gradients of this layer's received rows to their masters
	// — except layer 1, whose inputs are static features.
	if run.hRecv != nil && l > 1 {
		grad := run.hRecv.Grad
		if grad == nil {
			grad = ws.alloc(true, run.hRecv.Value.Rows(), run.hRecv.Value.Cols())
		}
		sc.Switch(obs.StageMirrorScatter, l)
		for _, j := range ws.peerOrder() {
			verts := lp.recv[j]
			if len(verts) == 0 {
				continue
			}
			base := int(lp.recvOffset[j]) - lp.numPrevRows
			if ws.eng.opts.Broadcast {
				// ROC-style: a full-width gradient block aligned with the
				// master's owned list, zero-padded.
				ownerOwned := ws.eng.plans[j].owned
				block := ws.alloc(true, len(ownerOwned), grad.Cols())
				for r, v := range verts {
					pos := searchVertex(ownerOwned, v)
					copy(block.Row(pos), grad.Row(base+r))
				}
				ws.eng.fabric.Send(&comm.Message{
					From: ws.id, To: j, Kind: comm.KindGrad,
					Epoch: epoch, Layer: l, Vertices: ownerOwned, Rows: block,
				})
				continue
			}
			rows := ws.arena.GetCopy(grad.RowSlice(base, base+len(verts)))
			ws.eng.fabric.Send(&comm.Message{
				From: ws.id, To: j, Kind: comm.KindGrad,
				Epoch: epoch, Layer: l, Vertices: verts, Rows: rows,
			})
		}
		sc.Switch(obs.StageBackward, l)
	}
}

// receiveMirrorGrads waits for the gradient chunks of the masters this
// worker sent at layer l and accumulates them into seed's owned rows.
// Layer-1 sends carry features and produce no gradients.
func (ws *workerState) receiveMirrorGrads(epoch, l int, seed *tensor.Tensor, sc *obs.StageClock) {
	if l <= 1 {
		return
	}
	lp := &ws.plan.layers[l-1]
	ownedPos := ws.plan.prevIndex[l-1]
	// Waiting on mirror gradients is scatter-side time of the layer that sent
	// the mirrors; the caller flips the clock back to backward-compute.
	sc.Switch(obs.StageMirrorScatter, l)
	for _, j := range ws.peerOrder() {
		verts := lp.send[j]
		if len(verts) == 0 {
			continue
		}
		msg := ws.mb.Wait(comm.KindGrad, epoch, l, 0, j)
		if ws.eng.opts.Broadcast {
			// Full-width block aligned with my owned rows (which are the
			// first rows of every layout).
			for r := range msg.Vertices {
				dst := seed.Row(r)
				src := msg.Rows.Row(r)
				for c, g := range src {
					dst[c] += g
				}
			}
			continue
		}
		for r, v := range verts {
			dst := seed.Row(int(ownedPos[v]))
			src := msg.Rows.Row(r)
			for c, g := range src {
				dst[c] += g
			}
		}
	}
}

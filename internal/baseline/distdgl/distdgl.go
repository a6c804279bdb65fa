// Package distdgl reimplements the qualitative behaviour of DistDGL, the
// DepCache-with-sampling baseline of the paper's evaluation (§5): the graph
// and features live in a partitioned store; each worker trains on
// mini-batches of its own labeled vertices, sampling a bounded neighborhood
// per batch ((10, 25) fanout by default) and fetching the features of remote
// frontier vertices over the network; parameters synchronise per batch.
//
// The sampling pipeline — not the NN compute — dominates each step, which
// reproduces the profile the paper measured for DistDGL: low GPU
// utilisation, high network traffic, and reduced final accuracy relative to
// full-graph training.
package distdgl

import (
	"fmt"
	"math"
	"time"

	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/metrics"
	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
	"neutronstar/internal/sampler"
	"neutronstar/internal/tensor"
)

// Options configures the trainer.
type Options struct {
	Workers   int
	BatchSize int
	// Fanouts per layer, input-first; default (25, 10): at most 10 sampled
	// neighbors for a seed, at most 25 for each of those.
	Fanouts   []int
	Model     nn.ModelKind
	Hidden    int
	LR        float32
	Seed      uint64
	Profile   comm.NetworkProfile
	Collector *metrics.Collector
}

func (o Options) withDefaults(ds *dataset.Dataset) Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{25, 10}
	}
	if o.Model == "" {
		o.Model = nn.GCN
	}
	if o.Hidden <= 0 {
		o.Hidden = ds.Spec.HiddenDim
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	return o
}

// EpochStats reports one epoch of mini-batch training.
type EpochStats struct {
	Epoch    int
	Loss     float64 // mean batch loss across workers
	Duration time.Duration
	Batches  int
}

// Trainer is a DistDGL-like distributed sampling trainer.
type Trainer struct {
	ds     *dataset.Dataset
	opts   Options
	part   *partition.Partition
	fabric *comm.Fabric
	ws     []*worker
	epoch  int
	// batchesPerEpoch is the global maximum so every worker joins every
	// all-reduce even when its local batch stream is exhausted.
	batchesPerEpoch int

	edgeInvSqrt []float32 // 1/sqrt(din+1) per vertex, for GCN normalisation
	selfNorm    []float32
}

type worker struct {
	id    int
	tr    *Trainer
	model *nn.Model
	opt   nn.Optimizer
	it    *sampler.BatchIterator
	rng   *tensor.RNG
	mb    *comm.Mailbox
}

// New builds the trainer: partitions the graph, replicates the model and
// prepares per-worker batch iterators over owned training vertices.
func New(ds *dataset.Dataset, opts Options) (*Trainer, error) {
	opts = opts.withDefaults(ds)
	if len(opts.Fanouts) != 2 {
		return nil, fmt.Errorf("distdgl: fanouts must cover the 2-layer model, got %v", opts.Fanouts)
	}
	part, err := partition.New(partition.Chunk, ds.Graph, opts.Workers)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		ds: ds, opts: opts, part: part,
		fabric: comm.NewFabric(opts.Workers, opts.Profile, opts.Collector),
	}
	_, t.selfNorm = graph.GCNNormCoefficients(ds.Graph)
	t.edgeInvSqrt = make([]float32, ds.NumVertices())
	for v := 0; v < ds.NumVertices(); v++ {
		t.edgeInvSqrt[v] = invSqrt(ds.Graph.InDegree(int32(v)) + 1)
	}
	dims := []int{ds.Spec.FeatureDim, opts.Hidden, ds.Spec.NumClasses}
	for i := 0; i < opts.Workers; i++ {
		model, err := nn.NewModel(opts.Model, dims, 0, opts.Seed+7)
		if err != nil {
			t.fabric.Close()
			return nil, err
		}
		var trainIDs []int32
		for _, v := range part.Parts[i] {
			if ds.TrainMask[v] {
				trainIDs = append(trainIDs, v)
			}
		}
		rng := tensor.NewRNG(opts.Seed ^ (uint64(i)+1)*0x51ED270)
		w := &worker{
			id: i, tr: t, model: model, opt: nn.NewAdam(opts.LR),
			it:  sampler.NewBatchIterator(trainIDs, opts.BatchSize, rng),
			rng: rng, mb: t.fabric.Mailbox(i),
		}
		t.ws = append(t.ws, w)
		if nb := w.it.NumBatches(); nb > t.batchesPerEpoch {
			t.batchesPerEpoch = nb
		}
	}
	return t, nil
}

// Close releases the fabric.
func (t *Trainer) Close() { t.fabric.Close() }

// BatchesPerEpoch returns the synchronised batch count per epoch.
func (t *Trainer) BatchesPerEpoch() int { return t.batchesPerEpoch }

// RunEpoch trains one epoch of synchronous mini-batches across workers.
func (t *Trainer) RunEpoch() EpochStats {
	start := time.Now()
	losses := make(chan float64, len(t.ws))
	for _, w := range t.ws {
		go func(w *worker) { losses <- w.runEpoch(t.epoch) }(w)
	}
	var sum float64
	for range t.ws {
		sum += <-losses
	}
	t.epoch++
	return EpochStats{
		Epoch: t.epoch, Loss: sum / float64(len(t.ws)),
		Duration: time.Since(start), Batches: t.batchesPerEpoch,
	}
}

// Evaluate computes full-graph accuracy with the current parameters.
func (t *Trainer) Evaluate(mask []bool) float64 {
	logits := engine.ReferenceForward(t.ds.Graph, t.ws[0].model, t.ds.Features)
	pred := tensor.ArgMaxRows(logits)
	correct, total := 0, 0
	for v, m := range mask {
		if !m {
			continue
		}
		total++
		if int32(pred[v]) == t.ds.Labels[v] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// runEpoch runs the worker's mini-batches, returning its mean batch loss.
func (w *worker) runEpoch(epoch int) float64 {
	t := w.tr
	coll := t.opts.Collector
	w.it.Reset()
	var lossSum float64
	batches := 0
	for b := 0; b < t.batchesPerEpoch; b++ {
		step := epoch*t.batchesPerEpoch + b
		batch := w.it.Next()
		if len(batch) > 0 {
			lossSum += w.trainBatch(step, batch, coll)
			batches++
		}
		// Synchronous data parallelism: everyone joins every all-reduce.
		w.allReduce(step)
		w.opt.Step(w.model.Params())
		nn.ZeroGrads(w.model.Params())
	}
	if batches == 0 {
		return 0
	}
	return lossSum / float64(batches)
}

// trainBatch samples, fetches remote features, and runs forward/backward.
func (w *worker) trainBatch(step int, batch []int32, coll *metrics.Collector) float64 {
	t := w.tr

	// --- Sampling phase (the DistDGL bottleneck) ---
	stop := coll.Track(w.id, metrics.Sample)
	blocks := sampler.Sample(t.ds.Graph, batch, t.opts.Fanouts, w.rng)
	stop()

	// --- Remote feature fetch for the input frontier ---
	feats := w.fetchFeatures(step, blocks[0].Srcs, coll)

	// --- Compute phase ---
	stop = coll.Track(w.id, metrics.Compute)
	defer stop()
	type run struct {
		tape *autograd.Tape
		in   *autograd.Variable
		out  *autograd.Variable
	}
	var runs []run
	h := feats
	for li, layer := range w.model.Layers {
		blk := blocks[li]
		tape := autograd.NewTape()
		in := tape.Leaf(h, li > 0, "h")
		rows := in
		if pt, ok := layer.(nn.PreTransformer); ok {
			rows = pt.PreTransform(tape, in, true, w.rng)
		}
		edgeNorm := make([]float32, blk.NumEdges())
		selfNorm := make([]float32, len(blk.Dsts))
		for e := range blk.SrcIdx {
			u := blk.Srcs[blk.SrcIdx[e]]
			v := blk.Dsts[blk.DstIdx[e]]
			edgeNorm[e] = t.edgeInvSqrt[u] * t.edgeInvSqrt[v]
		}
		for d, v := range blk.Dsts {
			selfNorm[d] = t.selfNorm[v]
		}
		ctx := &nn.ForwardCtx{
			Tape:     tape,
			EdgeSrc:  tape.Gather(rows, blk.SrcIdx),
			Self:     tape.Gather(rows, blk.SelfIdx),
			Offsets:  blk.Offsets,
			EdgeDst:  blk.DstIdx,
			EdgeNorm: edgeNorm,
			SelfNorm: selfNorm,
			Training: true,
			RNG:      w.rng,
		}
		out := layer.Forward(ctx)
		runs = append(runs, run{tape: tape, in: in, out: out})
		h = out.Value
	}
	// Loss over the batch seeds (the top block's destinations).
	top := runs[len(runs)-1]
	seeds := blocks[len(blocks)-1].Dsts
	labels := make([]int32, len(seeds))
	mask := make([]bool, len(seeds))
	for i, v := range seeds {
		labels[i] = t.ds.Labels[v]
		mask[i] = true
	}
	loss, _ := top.tape.NLLLossMasked(top.tape.LogSoftmax(top.out), labels, mask)
	top.tape.Backward(loss, nil)
	for l := len(runs) - 2; l >= 0; l-- {
		seed := runs[l+1].in.Grad
		if seed == nil {
			seed = tensor.New(runs[l].out.Value.Rows(), runs[l].out.Value.Cols())
		}
		runs[l].tape.Backward(runs[l].out, seed)
	}
	for _, p := range w.model.Params() {
		p.CollectGrad()
	}
	return float64(loss.Value.At(0, 0))
}

// fetchFeatures assembles the features of the input frontier. Owned rows
// come from local storage; remote rows cross the fabric from their owner's
// partition of the distributed feature store. (The owner's rows are read
// directly — the transfer cost, which is what matters, is charged to the
// owner's egress and this worker's ingress.)
func (w *worker) fetchFeatures(step int, frontier []int32, coll *metrics.Collector) *tensor.Tensor {
	t := w.tr
	dim := t.ds.Spec.FeatureDim
	out := tensor.New(len(frontier), dim)
	byOwner := make(map[int][]int, t.opts.Workers) // owner -> frontier positions
	for i, v := range frontier {
		owner := int(t.part.Assign[v])
		if owner == w.id {
			copy(out.Row(i), t.ds.Features.Row(int(v)))
		} else {
			byOwner[owner] = append(byOwner[owner], i)
		}
	}
	stop := coll.Track(w.id, metrics.Comm)
	defer stop()
	for owner, positions := range byOwner {
		rows := tensor.New(len(positions), dim)
		verts := make([]int32, len(positions))
		for k, pos := range positions {
			verts[k] = frontier[pos]
			copy(rows.Row(k), t.ds.Features.Row(int(frontier[pos])))
		}
		t.fabric.Send(&comm.Message{
			From: owner, To: w.id, Kind: comm.KindSample,
			Epoch: step, Layer: 0, Seq: 0, Vertices: verts, Rows: rows,
		})
		msg := w.mb.Wait(comm.KindSample, step, 0, 0, owner)
		for k, pos := range positions {
			copy(out.Row(pos), msg.Rows.Row(k))
		}
	}
	return out
}

// allReduce synchronises gradients across workers with the ring collective.
func (w *worker) allReduce(step int) {
	params := w.model.Params()
	total := 0
	for _, p := range params {
		total += p.Grad.Len()
	}
	buf := make([]float32, total)
	off := 0
	for _, p := range params {
		copy(buf[off:], p.Grad.Data())
		off += p.Grad.Len()
	}
	stop := w.tr.opts.Collector.Track(w.id, metrics.Comm)
	comm.RingAllReduce(w.tr.fabric, w.id, w.tr.opts.Workers, 1<<20+step, buf)
	stop()
	off = 0
	for _, p := range params {
		copy(p.Grad.Data(), buf[off:off+p.Grad.Len()])
		off += p.Grad.Len()
	}
}

func invSqrt(x int) float32 {
	return float32(1 / math.Sqrt(float64(x)))
}

// Package costmodel quantifies the two costs NeutronStar trades off
// (paper §3): the redundant-computation cost t_r of caching a dependency's
// multi-hop subtree (Eq. 1) and the communication cost t_c of fetching its
// representation every layer (Eq. 2). Environment factors T_v, T_e and T_c
// are probed on a small test graph exactly as Algorithm 4 line 1 prescribes,
// or constructed directly when an experiment wants to force a regime
// (the paper does the same in Figure 11 by disabling probing).
package costmodel

import (
	"time"

	"neutronstar/internal/autograd"
	"neutronstar/internal/tensor"
)

// Costs holds the probed environment factors, all in seconds per tensor
// element (a row element of dimension d costs T*d).
type Costs struct {
	// Tv is the per-dimension cost of a vertex-associated computation.
	Tv float64
	// Te is the per-dimension cost of an edge-associated computation.
	Te float64
	// Tc is the per-dimension cost of communicating one vertex row.
	Tc float64
}

// CommCost returns t_c^l(u) = Tc · d^(l-1) (Eq. 2): the cost of fetching one
// dependency row of the given dimension.
func (c Costs) CommCost(dim int) float64 { return c.Tc * float64(dim) }

// Probe measures T_v and T_e by timing a small tape-based training kernel —
// the same differentiable gather → edge op → scatter-add → dense transform →
// backward path the engines execute — so the factors include the autograd
// bookkeeping and allocation costs a bare micro-kernel would miss. T_c
// derives from the network profile (bytesPerSec, latencyPerMsg); a zero
// bytesPerSec means an unthrottled in-memory fabric, for which the channel
// overhead is approximated.
//
// Probing is intentionally crude — so is the paper's: it only needs enough
// fidelity to rank dependencies, not to predict absolute runtimes.
func Probe(bytesPerSec float64, latencyPerMsg time.Duration) Costs {
	const (
		probeVerts = 2048
		probeDim   = 64
		probeDeg   = 8
		reps       = 3
	)
	rng := tensor.NewRNG(0xC057)
	h := tensor.RandNormal(probeVerts, probeDim, 0, 1, rng)
	w := tensor.RandNormal(probeDim, probeDim, 0, 1, rng)
	numEdges := probeVerts * probeDeg
	src := make([]int32, numEdges)
	dst := make([]int32, numEdges)
	norm := make([]float32, numEdges)
	for i := range src {
		src[i] = int32(rng.Intn(probeVerts))
		dst[i] = int32(rng.Intn(probeVerts))
		norm[i] = 0.5
	}
	seed := tensor.New(probeVerts, probeDim)
	seed.Fill(1)

	// Edge path: gather + per-edge scale + scatter-add, forward and backward.
	start := time.Now()
	for r := 0; r < reps; r++ {
		tape := autograd.NewTape()
		hv := tape.Leaf(h, true, "h")
		edges := tape.MulColVec(tape.Gather(hv, src), norm)
		agg := tape.ScatterAddRows(edges, dst, probeVerts)
		tape.Backward(agg, seed)
	}
	te := time.Since(start).Seconds() / float64(reps*numEdges*probeDim)

	// Vertex path: dense transform, forward and backward.
	start = time.Now()
	for r := 0; r < reps; r++ {
		tape := autograd.NewTape()
		hv := tape.Leaf(h, true, "h")
		wv := tape.Constant(w, "w")
		out := tape.MatMul(hv, wv)
		tape.Backward(out, seed)
	}
	tv := time.Since(start).Seconds() / float64(reps*probeVerts*probeDim)

	// Communication runs in both directions (representations forward,
	// gradients backward), matching the doubled compute measured above, and
	// every communicated row additionally pays its share of per-layer
	// synchronisation (mailbox waits, pack/unpack, barrier slack) that pure
	// byte accounting misses; the synchronisation coefficient was calibrated
	// once against the Fig 2a sweep.
	const bidirectional = 2
	const syncOverhead = 2
	tc := bidirectional * syncOverhead * commCostPerElement(bytesPerSec, latencyPerMsg)
	return Costs{Tv: tv, Te: te, Tc: tc}
}

// commCostPerElement converts a network profile into T_c. Each float32
// element is 4 bytes and crosses both the sender's egress and the receiver's
// ingress pacer; per-message latency is amortised over a typical chunk.
func commCostPerElement(bytesPerSec float64, latencyPerMsg time.Duration) float64 {
	if bytesPerSec <= 0 {
		// Unthrottled in-process fabric: channel hop + copy, measured to be
		// on the order of tens of nanoseconds per element.
		return 25e-9
	}
	const bytesPerElement = 4
	const typicalChunkElements = 32 * 1024
	perElement := 2 * bytesPerElement / bytesPerSec
	perElement += latencyPerMsg.Seconds() / typicalChunkElements
	return perElement
}

package engine

import (
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
)

// allReduceGrads sums every parameter gradient across workers with a ring
// all-reduce (the AllReduceUpdate of Fig. 6). Every worker finishes with
// bit-identical summed gradients, which keeps the model replicas in exact
// sync after the deterministic optimiser step.
func (ws *workerState) allReduceGrads(epoch int, params []*nn.Param) {
	m := ws.eng.opts.Workers
	if m == 1 {
		return
	}
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
	comm.RingAllReduce(ws.eng.fabric, ws.id, m, epoch, buf)
	off = 0
	for _, p := range params {
		copy(p.Grad.Data(), buf[off:off+p.Grad.Len()])
		off += p.Grad.Len()
	}
}

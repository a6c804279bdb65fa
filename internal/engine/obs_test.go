package engine

import (
	"fmt"
	"math"
	"testing"

	"neutronstar/internal/metrics"
	"neutronstar/internal/obs"
)

// TestStageSpansMatchCells checks that the collector's spans and the flight
// recorder's stage cells are one stream: per worker and per epoch, the
// Compute-class span time equals the forward+backward cell time and the
// Comm-class span time equals the four exchange stages' cell time, exactly,
// and every span carries its layer. The identity holds per (stage, layer)
// cell too, on every dataflow: chunk-overlapped DepComm, the hybrid planner,
// tensor-parallel layers and the parameter-server update.
func TestStageSpansMatchCells(t *testing.T) {
	ds := testDataset(t, 120, 6, 3)
	for _, opts := range []Options{
		{Workers: 3, Mode: DepComm, Overlap: true, Ring: true},
		{Workers: 2, Mode: Hybrid},
		{Workers: 3, Mode: DepTP},
		{Workers: 3, Mode: DepCache, ParamServer: true},
	} {
		name := fmt.Sprintf("%s/overlap=%v/ps=%v", opts.Mode, opts.Overlap, opts.ParamServer)
		t.Run(name, func(t *testing.T) {
			coll := metrics.NewCollector()
			rec := obs.NewFlightRecorder()
			opts.Collector, opts.Recorder = coll, rec
			eng, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			seen := 0
			for epoch := 1; epoch <= 2; epoch++ {
				eng.RunEpoch()
				all := coll.Tracer().Snapshot()
				spans := all[seen:] // RunEpoch is synchronous: these are this epoch's
				seen = len(all)
				last, _ := rec.Last()
				checkSpansMatchCells(t, epoch, spans, &last)
			}
		})
	}
}

func checkSpansMatchCells(t *testing.T, epoch int, spans []obs.SpanData, r *obs.EpochRecord) {
	t.Helper()
	type key struct {
		worker int
		stage  string
		layer  int
	}
	spanNs := map[key]int64{}
	classNs := map[[2]int]int64{} // (worker, kind) → ns
	for _, sp := range spans {
		layer, ok := sp.Attr("layer").(int)
		if !ok {
			t.Fatalf("epoch %d: span without a layer: %+v", epoch, sp)
		}
		if sp.Duration() <= 0 {
			t.Fatalf("epoch %d: empty span %+v", epoch, sp)
		}
		spanNs[key{sp.Worker, sp.Name, layer}] += int64(sp.Duration())
		classNs[[2]int{sp.Worker, sp.Class}] += int64(sp.Duration())
	}
	cellNs := map[key]int64{}
	kindNs := map[[2]int]int64{}
	for _, c := range r.Cells {
		ns := int64(math.Round(c.Seconds * 1e9))
		if ns == 0 {
			continue
		}
		var stage obs.Stage
		for stage = 0; stage < obs.NumStages && stage.String() != c.Stage; stage++ {
		}
		k, ok := metrics.StageKind(stage)
		if !ok {
			continue // barrier and checkpoint are never spans
		}
		cellNs[key{c.Worker, c.Stage, c.Layer}] += ns
		kindNs[[2]int{c.Worker, int(k)}] += ns
	}
	if len(cellNs) == 0 {
		t.Fatalf("epoch %d: no busy cells recorded", epoch)
	}
	for k, ns := range cellNs {
		if spanNs[k] != ns {
			t.Errorf("epoch %d worker %d %s layer %d: spans %d ns, cell %d ns",
				epoch, k.worker, k.stage, k.layer, spanNs[k], ns)
		}
	}
	for k, ns := range spanNs {
		if _, ok := cellNs[k]; !ok {
			t.Errorf("epoch %d worker %d %s layer %d: %d ns of spans, no cell",
				epoch, k.worker, k.stage, k.layer, ns)
		}
	}
	for w := 0; w < r.Workers; w++ {
		for _, kind := range []metrics.Kind{metrics.Compute, metrics.Comm} {
			k := [2]int{w, int(kind)}
			if classNs[k] != kindNs[k] {
				t.Errorf("epoch %d worker %d: %s spans %d ns, cells %d ns",
					epoch, w, kind, classNs[k], kindNs[k])
			}
		}
	}
}

// TestCollectorOnlyRunEmitsStageSpans: a Collector without a Recorder (the
// Figure 11/13 experiments) still gets the stage spans, because the engine
// runs its clocks on a private recorder; the caller's view of recording
// stays off.
func TestCollectorOnlyRunEmitsStageSpans(t *testing.T) {
	ds := testDataset(t, 120, 6, 3)
	coll := metrics.NewCollector()
	eng, err := NewEngine(ds, Options{Workers: 2, Mode: DepComm, Collector: coll})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.RunEpoch()
	if coll.Busy(metrics.Compute) <= 0 || coll.Busy(metrics.Comm) <= 0 {
		t.Fatalf("busy compute %v, comm %v", coll.Busy(metrics.Compute), coll.Busy(metrics.Comm))
	}
	stages := map[string]bool{}
	for _, s := range obs.StageNames() {
		stages[s] = true
	}
	for _, sp := range coll.Tracer().Snapshot() {
		if !stages[sp.Name] || sp.Name == "barrier" || sp.Name == "checkpoint" {
			t.Fatalf("unexpected span %+v", sp)
		}
	}
	if eng.CostReport() != nil {
		t.Fatal("CostReport must stay nil without a caller-supplied Recorder")
	}
	// Inference runs without a clock and adds no spans.
	n := len(coll.Tracer().Snapshot())
	eng.Predict()
	if got := len(coll.Tracer().Snapshot()); got != n {
		t.Fatalf("Predict added %d spans", got-n)
	}
}

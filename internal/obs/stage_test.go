package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestStageNamesStable(t *testing.T) {
	// These names are the BENCH.json contract; renaming one is a schema
	// change and must bump bench.SchemaVersion.
	want := []string{"forward", "backward", "dep_fetch_send", "dep_fetch_recv",
		"mirror_scatter", "grad_sync", "barrier", "checkpoint"}
	got := StageNames()
	if len(got) != len(want) {
		t.Fatalf("StageNames: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var rec *FlightRecorder
	rec.BeginEpoch(1, 2, 2)
	rec.AddTraffic(0, StageDepFetchSend, 1, 100, 1)
	rec.AddTime(0, StageBarrier, 0, time.Millisecond)
	rec.EndEpoch(time.Second, 0.5)
	if got := rec.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot: %v", got)
	}
	if rec.Epochs() != 0 {
		t.Fatal("nil recorder must report 0 epochs")
	}
	c := rec.Clock(0)
	if c != nil {
		t.Fatal("nil recorder must hand out nil clocks")
	}
	c.Switch(StageForward, 1) // must not panic
	c.End()
}

func TestFlightRecorderNoOpenEpoch(t *testing.T) {
	rec := NewFlightRecorder()
	// Attribution outside BeginEpoch/EndEpoch (e.g. inference traffic) is
	// dropped, not misfiled into a neighbouring epoch.
	rec.AddTraffic(0, StageDepFetchSend, 1, 999, 1)
	if rec.Clock(0) != nil {
		t.Fatal("Clock must be nil with no open epoch")
	}
	rec.EndEpoch(time.Second, 0) // no-op
	if rec.Epochs() != 0 {
		t.Fatal("no record should exist")
	}
	rec.BeginEpoch(1, 1, 2)
	rec.AddTraffic(0, StageDepFetchSend, 1, 100, 1)
	rec.EndEpoch(time.Second, 0.25)
	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if got := recs[0].StageBytes(StageDepFetchSend.String()); got != 100 {
		t.Fatalf("dep_fetch_send bytes = %d, want 100 (pre-epoch traffic must not leak in)", got)
	}
	if recs[0].Loss != 0.25 || recs[0].Epoch != 1 || recs[0].Workers != 1 || recs[0].Layers != 2 {
		t.Fatalf("record header wrong: %+v", recs[0])
	}
}

func TestStageClockExclusiveAttribution(t *testing.T) {
	rec := NewFlightRecorder()
	rec.BeginEpoch(3, 1, 2)
	start := time.Now()
	sc := rec.Clock(0)
	if sc == nil {
		t.Fatal("clock must be non-nil with an open epoch")
	}
	time.Sleep(10 * time.Millisecond)
	sc.Switch(StageBackward, 2)
	time.Sleep(10 * time.Millisecond)
	sc.Switch(StageGradSync, 0)
	time.Sleep(5 * time.Millisecond)
	sc.End()
	span := time.Since(start).Seconds()
	rec.EndEpoch(time.Since(start), 0)

	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := &recs[0]
	var sum float64
	for _, c := range r.Cells {
		sum += c.Seconds
	}
	// The clock is gap-free: the stage sum must equal the clock's lifetime.
	// Allow 2% plus a small absolute slack for the instants outside the
	// clock's life (Clock() and End() calls themselves).
	if math.Abs(sum-span) > 0.02*span+time.Millisecond.Seconds() {
		t.Fatalf("stage sum %.6fs vs span %.6fs: gap too large", sum, span)
	}
	if r.StageSeconds("forward") < 0.009 {
		t.Fatalf("forward got %.6fs, want ≥ ~10ms", r.StageSeconds("forward"))
	}
	if r.StageSeconds("backward") < 0.009 {
		t.Fatalf("backward got %.6fs, want ≥ ~10ms", r.StageSeconds("backward"))
	}
	if r.StageSeconds("grad_sync") < 0.004 {
		t.Fatalf("grad_sync got %.6fs, want ≥ ~5ms", r.StageSeconds("grad_sync"))
	}
	if got := r.LayerStageSeconds("backward", 2); got < 0.009 {
		t.Fatalf("backward layer 2 got %.6fs", got)
	}
}

func TestStageClockLayerClamp(t *testing.T) {
	rec := NewFlightRecorder()
	rec.BeginEpoch(1, 1, 2)
	// Out-of-range layers clamp to the edge cells instead of corrupting
	// neighbours or panicking (defensive: protocol tags like the param
	// server's phase field must not index out of the layer range).
	rec.AddTraffic(0, StageGradSync, 99, 10, 1)
	rec.AddTraffic(0, StageGradSync, -5, 10, 1)
	rec.AddTraffic(-1, StageGradSync, 0, 10, 1) // bad worker: dropped
	rec.AddTraffic(7, StageGradSync, 0, 10, 1)  // bad worker: dropped
	rec.EndEpoch(time.Second, 0)
	r := rec.Snapshot()[0]
	if got := r.StageBytes("grad_sync"); got != 20 {
		t.Fatalf("grad_sync bytes = %d, want 20", got)
	}
	if got := r.LayerStageSeconds("grad_sync", 0); got != 0 {
		t.Fatalf("unexpected time cells: %v", got)
	}
}

// TestFlightRecorderConcurrent is the race-detector test: per-worker clocks,
// cross-goroutine traffic attribution, snapshots and epoch turnover all run
// concurrently, as they do in the engine.
func TestFlightRecorderConcurrent(t *testing.T) {
	rec := NewFlightRecorder()
	const workers, epochs = 4, 5
	var snapWG sync.WaitGroup
	for e := 1; e <= epochs; e++ {
		rec.BeginEpoch(e, workers, 2)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := rec.Clock(w)
				for i := 0; i < 200; i++ {
					sc.Switch(StageForward, 1)
					rec.AddTraffic(w, StageDepFetchSend, 1, 64, 1)
					sc.Switch(StageDepFetchRecv, 2)
					rec.AddTraffic((w+1)%workers, StageDepFetchRecv, 2, 64, 1)
					sc.Switch(StageBackward, 1)
				}
				sc.End()
			}(w)
		}
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			_ = rec.Snapshot()
			rec.AddTime(0, StageBarrier, 0, time.Microsecond)
		}()
		wg.Wait()
		rec.EndEpoch(time.Millisecond, float64(e))
	}
	snapWG.Wait()
	recs := rec.Snapshot()
	if len(recs) != epochs {
		t.Fatalf("got %d records, want %d", len(recs), epochs)
	}
	for _, r := range recs {
		wantMsgs := int64(workers * 200)
		if got := r.StageMsgs("dep_fetch_send"); got != wantMsgs {
			t.Fatalf("epoch %d: send msgs %d, want %d", r.Epoch, got, wantMsgs)
		}
		if got := r.StageBytes("dep_fetch_recv"); got != wantMsgs*64 {
			t.Fatalf("epoch %d: recv bytes %d, want %d", r.Epoch, got, wantMsgs*64)
		}
		if r.TotalBytes() != 2*wantMsgs*64 {
			t.Fatalf("epoch %d: total bytes %d", r.Epoch, r.TotalBytes())
		}
	}
}

// testSink classes the compute stages 0 and the exchange stages 1, and
// leaves barrier and checkpoint out — the shape internal/metrics hands in.
func testSink(tr *Tracer) *SpanSink {
	k := &SpanSink{Tracer: tr}
	for s := Stage(0); s < NumStages; s++ {
		switch s {
		case StageForward, StageBackward:
			k.Class[s] = 0
		case StageBarrier, StageCheckpoint:
			k.Class[s] = ClassNone
		default:
			k.Class[s] = 1
		}
	}
	return k
}

// cellNanos reads one live time cell of the open epoch.
func cellNanos(rec *FlightRecorder, worker int, s Stage, layer int) int64 {
	return rec.cur.Load().cell(worker, s, layer).nanos.Load()
}

func TestSpanSinkNilTracerIsNoOp(t *testing.T) {
	rec := NewFlightRecorder()
	rec.BeginEpoch(1, 1, 2)
	sc := rec.Clock(0)
	sc.SetSink(&SpanSink{}) // no tracer
	t0 := sc.last
	sc.switchAt(StageDepFetchRecv, 1, t0.Add(time.Millisecond))
	sc.SetSink(nil)
	sc.switchAt(StageBackward, 1, t0.Add(2*time.Millisecond))
	if got := cellNanos(rec, 0, StageForward, 1); got != int64(time.Millisecond) {
		t.Fatalf("forward cell %d: a sink must not change the recorder's accounting", got)
	}
	var nilClock *StageClock
	nilClock.SetSink(testSink(NewTracer())) // must not panic
}

func TestSpanSinkSkipsZeroLengthIntervals(t *testing.T) {
	tr := NewTracer()
	rec := NewFlightRecorder()
	rec.BeginEpoch(1, 1, 2)
	sc := rec.Clock(0)
	sc.SetSink(testSink(tr))
	t0 := sc.last
	sc.switchAt(StageDepFetchSend, 1, t0)                     // zero-length forward
	sc.switchAt(StageDepFetchRecv, 1, t0)                     // zero-length send
	sc.switchAt(StageForward, 1, t0.Add(time.Millisecond))    // 1 ms recv
	sc.switchAt(StageBackward, 2, t0.Add(time.Millisecond))   // zero-length forward
	sc.switchAt(StageBackward, 2, t0.Add(3*time.Millisecond)) // 2 ms backward
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want only the two non-empty intervals", spans)
	}
	for _, sp := range spans {
		if sp.Duration() <= 0 {
			t.Fatalf("empty span emitted: %+v", sp)
		}
	}
}

func TestSpanSinkNeverEmitsBarrierOrCheckpoint(t *testing.T) {
	tr := NewTracer()
	sink := testSink(tr)
	// Even a sink that classes them gets nothing from AddTime: barrier tails
	// and checkpoint saves are measured outside the clock.
	sink.Class[StageBarrier], sink.Class[StageCheckpoint] = 2, 2
	rec := NewFlightRecorder()
	rec.BeginEpoch(1, 2, 2)
	sc := rec.Clock(0)
	sc.SetSink(sink)
	t0 := sc.last
	sc.switchAt(StageGradSync, 0, t0.Add(time.Millisecond))
	rec.AddTime(1, StageBarrier, 0, time.Millisecond)
	rec.AddTime(0, StageCheckpoint, 0, time.Millisecond)
	sc.switchAt(StageBarrier, 0, t0.Add(2*time.Millisecond))
	sc.SetSink(testSink(tr)) // barrier is ClassNone here: the interval is dropped
	sc.switchAt(StageForward, 1, t0.Add(3*time.Millisecond))
	for _, sp := range tr.Snapshot() {
		if sp.Name == "barrier" || sp.Name == "checkpoint" {
			t.Fatalf("unexpected span %+v", sp)
		}
	}
	if got := len(tr.Snapshot()); got != 2 {
		t.Fatalf("spans = %d, want forward and grad_sync", got)
	}
}

// TestSpanSinkOffsetsMatchClock: each span's Start/End are the tracer
// offsets of the clock's own reads, so its duration equals the nanoseconds
// its cell received, and it carries the interval's layer.
func TestSpanSinkOffsetsMatchClock(t *testing.T) {
	tr := NewTracer()
	tr.Now() // start the tracer's clock before the stage clock opens
	rec := NewFlightRecorder()
	rec.BeginEpoch(1, 1, 3)
	sc := rec.Clock(0)
	sc.SetSink(testSink(tr))
	t0 := sc.last
	steps := []struct {
		next  Stage
		layer int
		at    time.Duration
	}{
		{StageDepFetchRecv, 2, 1500 * time.Microsecond},
		{StageForward, 2, 1700 * time.Microsecond},
		{StageMirrorScatter, 3, 4 * time.Millisecond},
		{StageBackward, 3, 4*time.Millisecond + 3},
	}
	prevStage, prevLayer, prevAt := StageForward, 1, time.Duration(0)
	for i, st := range steps {
		sc.switchAt(st.next, st.layer, t0.Add(st.at))
		spans := tr.Snapshot()
		if len(spans) != i+1 {
			t.Fatalf("after step %d: %d spans", i, len(spans))
		}
		sp := spans[i]
		if sp.Name != prevStage.String() || sp.Attr("layer") != prevLayer || sp.Worker != 0 {
			t.Fatalf("step %d: span %+v, want %s layer %d", i, sp, prevStage, prevLayer)
		}
		if sp.Start != tr.Offset(t0.Add(prevAt)) || sp.End != tr.Offset(t0.Add(st.at)) {
			t.Fatalf("step %d: span [%v, %v], want [%v, %v]", i, sp.Start, sp.End,
				tr.Offset(t0.Add(prevAt)), tr.Offset(t0.Add(st.at)))
		}
		if sp.Start < 0 {
			t.Fatalf("step %d: negative offset %v", i, sp.Start)
		}
		prevStage, prevLayer, prevAt = st.next, st.layer, st.at
	}
	// Forward at layers 1 and 2 got one interval each; every span's
	// duration is exactly its cell's nanoseconds.
	for _, sp := range tr.Snapshot() {
		var s Stage
		for s = 0; s < NumStages && s.String() != sp.Name; s++ {
		}
		if got := cellNanos(rec, 0, s, sp.Attr("layer").(int)); got != int64(sp.Duration()) {
			t.Fatalf("%s layer %v: span %d ns, cell %d ns", sp.Name, sp.Attr("layer"), sp.Duration(), got)
		}
	}
}

// TestSpanSinkConcurrentClocks is the race-detector test for the sink: one
// clock per worker goroutine on a shared tracer, and every worker's spans
// land on its own row and sum to its own classed cells.
func TestSpanSinkConcurrentClocks(t *testing.T) {
	tr := NewTracer()
	tr.Now()
	sink := testSink(tr)
	rec := NewFlightRecorder()
	const workers = 4
	rec.BeginEpoch(1, workers, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := rec.Clock(w)
			sc.SetSink(sink)
			for i := 0; i < 200; i++ {
				sc.Switch(StageDepFetchRecv, 1+i%2)
				sc.Switch(StageForward, 1+i%2)
				sc.Switch(StageBarrier, 0)
			}
			sc.End()
		}(w)
	}
	wg.Wait()
	a := rec.cur.Load()
	got := make([]int64, workers)
	for _, sp := range tr.Snapshot() {
		if sp.Worker < 0 || sp.Worker >= workers {
			t.Fatalf("span on unknown row: %+v", sp)
		}
		got[sp.Worker] += int64(sp.Duration())
	}
	for w := 0; w < workers; w++ {
		var want int64
		for s := Stage(0); s < NumStages; s++ {
			if sink.Class[s] == ClassNone {
				continue
			}
			for l := 0; l <= a.layers; l++ {
				want += a.cell(w, s, l).nanos.Load()
			}
		}
		if got[w] != want {
			t.Fatalf("worker %d: spans sum to %d ns, classed cells to %d ns", w, got[w], want)
		}
	}
	rec.EndEpoch(time.Millisecond, 0)
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v", got)
	}
	reg := NewRegistry()
	h := reg.Histogram("ns_test_quantile", "", []float64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	// 10 samples in (0,10], 10 in (10,20], none in (20,40].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	// Median: rank 10 lands exactly at the boundary of bucket 1 → 10.
	if got := h.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p50 = %v, want 10", got)
	}
	// p75: rank 15, 5 into bucket (10,20] of count 10 → 15.
	if got := h.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p75 = %v, want 15", got)
	}
	// p25: rank 5, halfway through bucket (0,10] → 5.
	if got := h.Quantile(0.25); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p25 = %v, want 5", got)
	}
	if got := h.Quantile(1); math.Abs(got-20) > 1e-9 {
		t.Fatalf("p100 = %v, want 20 (top non-empty bucket bound)", got)
	}
	// Clamping.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatalf("p<0 must clamp to p=0: %v vs %v", got, h.Quantile(0))
	}
	// A sample beyond the last finite bound: quantiles in the +Inf bucket
	// report the largest finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); math.Abs(got-40) > 1e-9 {
		t.Fatalf("p100 with +Inf sample = %v, want 40", got)
	}
}

func TestHistogramQuantileNoFiniteBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ns_test_quantile_inf", "", nil)
	h.Observe(3)
	h.Observe(5)
	// Only the +Inf bucket exists: the mean is the only defensible estimate.
	if got := h.Quantile(0.5); math.Abs(got-4) > 1e-9 {
		t.Fatalf("quantile with no finite buckets = %v, want mean 4", got)
	}
}

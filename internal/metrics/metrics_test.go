package metrics

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"neutronstar/internal/obs"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Track(0, Compute)()
	c.AddSent(100)
	c.AddReceived(100)
	if c.BytesSent() != 0 || c.BytesReceived() != 0 || c.MessagesSent() != 0 {
		t.Fatal("nil collector recorded something")
	}
	if c.Busy(Compute) != 0 {
		t.Fatal("nil collector busy nonzero")
	}
	s := c.BuildSeries(time.Millisecond, 4)
	if s.NumBuckets() != 0 {
		t.Fatal("nil collector produced buckets")
	}
}

func TestTrackRecordsBusyTime(t *testing.T) {
	c := NewCollector()
	stop := c.Track(0, Compute)
	time.Sleep(20 * time.Millisecond)
	stop()
	busy := c.Busy(Compute)
	if busy < 15*time.Millisecond || busy > 200*time.Millisecond {
		t.Fatalf("busy = %v", busy)
	}
	if c.Busy(Comm) != 0 {
		t.Fatal("comm busy should be zero")
	}
}

func TestByteCounters(t *testing.T) {
	c := NewCollector()
	c.AddSent(10)
	c.AddSent(5)
	c.AddReceived(7)
	if c.BytesSent() != 15 || c.BytesReceived() != 7 || c.MessagesSent() != 2 {
		t.Fatal("counters wrong")
	}
}

func TestConcurrentTracking(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				stop := c.Track(w, Kind(i%2))
				c.AddSent(1)
				stop()
			}
		}(w)
	}
	wg.Wait()
	if c.MessagesSent() != 400 {
		t.Fatalf("sent = %d", c.MessagesSent())
	}
}

func TestBuildSeriesUtilisation(t *testing.T) {
	c := NewCollector()
	// Worker 0 computes ~30ms, worker 1 communicates ~30ms concurrently.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		stop := c.Track(0, Compute)
		time.Sleep(30 * time.Millisecond)
		stop()
	}()
	go func() {
		defer wg.Done()
		stop := c.Track(1, Comm)
		time.Sleep(30 * time.Millisecond)
		stop()
	}()
	wg.Wait()
	c.AddReceived(1000)
	s := c.BuildSeries(10*time.Millisecond, 2)
	if s.NumBuckets() < 3 {
		t.Fatalf("buckets = %d", s.NumBuckets())
	}
	// With 2 workers and one computing, mean compute util in the busy window
	// should approach 0.5.
	if u := s.MeanUtil(Compute); u <= 0.1 || u > 0.6 {
		t.Fatalf("mean compute util = %v", u)
	}
	if u := s.MeanUtil(Comm); u <= 0.1 || u > 0.6 {
		t.Fatalf("mean comm util = %v", u)
	}
	if s.PeakNetRate() <= 0 {
		t.Fatal("no network rate recorded")
	}
}

func TestSmoothnessCV(t *testing.T) {
	c := NewCollector()
	c.Track(0, Compute)() // start the clock
	c.AddReceived(100)
	s := c.BuildSeries(time.Millisecond, 1)
	// Single bucket: CV undefined, must be 0.
	if s.SmoothnessCV() != 0 {
		t.Fatal("single-sample CV should be 0")
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Comm.String() != "comm" || Sample.String() != "sample" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector()
	stop := c.Track(2, Comm)
	time.Sleep(2 * time.Millisecond)
	stop()
	stop = c.Track(0, Compute)
	stop()
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	// Two workers contribute 2 "M" metadata events each (thread_name +
	// thread_sort_index), followed by the 2 "X" span events.
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0]["ph"] != "M" || events[0]["name"] != "thread_name" {
		t.Fatalf("first event should be thread_name metadata: %+v", events[0])
	}
	args := events[0]["args"].(map[string]any)
	if args["name"] != "worker 0" {
		t.Fatalf("worker 0 row name = %v", args["name"])
	}
	var xs []map[string]any
	for _, ev := range events {
		if ev["ph"] == "X" {
			xs = append(xs, ev)
		}
	}
	if len(xs) != 2 {
		t.Fatalf("X events = %d", len(xs))
	}
	// X events sorted by start time; first is the comm interval on worker 2.
	if xs[0]["name"] != "comm" || xs[0]["tid"].(float64) != 2 {
		t.Fatalf("first X event %+v", xs[0])
	}
	if xs[0]["dur"].(float64) < 1000 {
		t.Fatalf("duration %v too short", xs[0]["dur"])
	}
	// Nil collector emits an empty array, newline-terminated like the
	// non-nil path.
	var nilC *Collector
	buf.Reset()
	if err := nilC.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil trace = %q", buf.String())
	}
}

// TestStageSinkClassesStages: the collector's stage sink turns a stage
// clock's intervals into busy spans classed by the StageKind table, each
// carrying its layer, and leaves out the stages that are not busy time.
func TestStageSinkClassesStages(t *testing.T) {
	wantKind := map[obs.Stage]Kind{
		obs.StageForward: Compute, obs.StageBackward: Compute,
		obs.StageDepFetchSend: Comm, obs.StageDepFetchRecv: Comm,
		obs.StageMirrorScatter: Comm, obs.StageGradSync: Comm,
	}
	c := NewCollector()
	sink := c.StageSink()
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		k, ok := StageKind(s)
		want, busy := wantKind[s]
		if ok != busy || (ok && k != want) {
			t.Fatalf("StageKind(%s) = %v, %v; want %v, %v", s, k, ok, want, busy)
		}
		if busy && sink.Class[s] != int(want) || !busy && sink.Class[s] != obs.ClassNone {
			t.Fatalf("sink class of %s = %d", s, sink.Class[s])
		}
	}

	rec := obs.NewFlightRecorder()
	rec.BeginEpoch(1, 1, 2)
	sc := rec.Clock(0)
	sc.SetSink(sink)
	time.Sleep(time.Millisecond) // forward, layer 1
	sc.Switch(obs.StageDepFetchRecv, 2)
	time.Sleep(time.Millisecond)
	sc.Switch(obs.StageBarrier, 0) // classed ClassNone: never a span
	time.Sleep(time.Millisecond)
	sc.End()
	rec.EndEpoch(time.Second, 0)

	spans := c.Tracer().Snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want forward and dep_fetch_recv only", spans)
	}
	if spans[0].Name != "forward" || spans[0].Class != int(Compute) || spans[0].Attr("layer") != 1 {
		t.Fatalf("first span = %+v", spans[0])
	}
	if spans[1].Name != "dep_fetch_recv" || spans[1].Class != int(Comm) || spans[1].Attr("layer") != 2 {
		t.Fatalf("second span = %+v", spans[1])
	}
	if c.Busy(Compute) != spans[0].Duration() || c.Busy(Comm) != spans[1].Duration() {
		t.Fatalf("busy %v/%v vs spans %+v", c.Busy(Compute), c.Busy(Comm), spans)
	}
	if w := c.BusyByWorker(Compute); w[0] != c.Busy(Compute) {
		t.Fatalf("BusyByWorker = %v, Busy = %v", w, c.Busy(Compute))
	}
	// Nil collector derivatives are no-ops.
	var nilC *Collector
	if nilC.StageSink() != nil || nilC.Tracer() != nil || nilC.Elapsed() != 0 || nilC.BusyByWorker(Compute) != nil {
		t.Fatal("nil collector leaked state")
	}
}

// addSynthetic injects an exact interval so bucket math is deterministic.
func addSynthetic(c *Collector, w int, kind Kind, start, end time.Duration) {
	c.Tracer().Add(obs.SpanData{Worker: w, Class: int(kind), Name: kind.String(), Start: start, End: end})
}

func TestBuildSeriesEmptyCollector(t *testing.T) {
	c := NewCollector()
	s := c.BuildSeries(10*time.Millisecond, 4)
	if s.NumBuckets() != 1 {
		t.Fatalf("empty collector buckets = %d", s.NumBuckets())
	}
	for k := Kind(0); k < numKinds; k++ {
		if s.MeanUtil(k) != 0 {
			t.Fatalf("kind %v util nonzero", k)
		}
	}
	if s.PeakNetRate() != 0 || s.SmoothnessCV() != 0 {
		t.Fatal("empty collector reported rates")
	}
}

func TestBuildSeriesSpanningManyBuckets(t *testing.T) {
	c := NewCollector()
	// One interval covering [5ms, 35ms) across 10ms buckets: partial first
	// and last buckets, fully-covered middle buckets.
	addSynthetic(c, 0, Compute, 5*time.Millisecond, 35*time.Millisecond)
	s := c.BuildSeries(10*time.Millisecond, 1)
	if s.NumBuckets() != 4 {
		t.Fatalf("buckets = %d", s.NumBuckets())
	}
	want := []float64{0.5, 1, 1, 0.5}
	for b, w := range want {
		if got := s.Util[Compute][b]; got < w-1e-9 || got > w+1e-9 {
			t.Fatalf("bucket %d util = %v want %v", b, got, w)
		}
	}
}

func TestBuildSeriesZeroDurationDropped(t *testing.T) {
	c := NewCollector()
	// A zero-duration interval extends the series but contributes no busy
	// time (hi <= lo in every bucket).
	addSynthetic(c, 0, Compute, 25*time.Millisecond, 25*time.Millisecond)
	s := c.BuildSeries(10*time.Millisecond, 1)
	if s.NumBuckets() != 3 {
		t.Fatalf("buckets = %d", s.NumBuckets())
	}
	for b := 0; b < s.NumBuckets(); b++ {
		if s.Util[Compute][b] != 0 {
			t.Fatalf("zero-duration interval counted in bucket %d", b)
		}
	}
}

func TestBuildSeriesIgnoresStructuralSpans(t *testing.T) {
	c := NewCollector()
	addSynthetic(c, 0, Compute, 0, 10*time.Millisecond)
	// A structural epoch group covering the whole run must not alter the
	// utilisation series or Busy totals.
	c.Tracer().Add(obs.SpanData{Worker: 0, Class: obs.ClassNone, Name: "epoch", Start: 0, End: 10 * time.Millisecond})
	s := c.BuildSeries(10*time.Millisecond, 1)
	if got := s.Util[Compute][0]; got < 1-1e-9 || got > 1+1e-9 {
		t.Fatalf("compute util = %v", got)
	}
	if c.Busy(Compute) != 10*time.Millisecond {
		t.Fatalf("busy = %v", c.Busy(Compute))
	}
}

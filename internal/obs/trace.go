// Package obs is NeutronStar-Go's stdlib-only observability substrate. It
// has three parts:
//
//   - a span tracer (this file): named, attributed spans per worker row,
//     exported in Chrome trace-event format for chrome://tracing or
//     Perfetto. A training run's spans are its workers' stage-clock
//     intervals (SpanSink in stage.go), one per phase and layer;
//   - a metric registry (registry.go): counters, gauges and fixed-bucket
//     histograms with label support, exposed in Prometheus text exposition
//     format;
//   - a debug server (server.go): an opt-in net/http server wiring
//     /metrics, /healthz, /status, /critpath, /healthwatch and
//     net/http/pprof to a running process;
//   - causal telemetry (stage.go, critpath.go): per-epoch event DAGs of
//     stage intervals and cross-worker message waits, distilled into the
//     epoch's critical path and straggler indices;
//   - an anomaly watchdog (anomaly.go): threshold rules over epoch records
//     firing structured alerts and a health report.
//
// The flat busy-interval accounting of internal/metrics is built on top of
// the tracer: each busy interval is a span carrying a class (the
// metrics.Kind), and spans of class ClassNone (benchmark probes, request
// stages) share the timeline without perturbing utilisation series.
//
// Every entry point is nil-safe: a nil *Tracer or *Span makes every method
// a no-op, so instrumentation stays in place unconditionally.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span (layer index, byte count, …).
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Value: v} }

// Int builds an int attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: v} }

// Int64 builds an int64 attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, Value: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Value: v} }

// ClassNone marks a structural span — one that groups other spans or marks a
// non-busy interval (a benchmark probe, an epoch call) and must not be
// counted as busy time by class-filtered consumers.
const ClassNone = -1

// SpanData is one finished span. Start/End are offsets from the tracer's
// first event.
type SpanData struct {
	Worker int
	// Class is a caller-defined busy-time taxonomy (internal/metrics uses
	// its Kind values); ClassNone for structural spans.
	Class int
	Name  string
	Start time.Duration
	End   time.Duration
	Attrs []Attr
}

// Duration returns the span length.
func (d SpanData) Duration() time.Duration { return d.End - d.Start }

// Attr returns the value of the named attribute, or nil.
func (d SpanData) Attr(key string) any {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// Tracer accumulates finished spans. The zero value is not usable; call
// NewTracer. A nil *Tracer is legal everywhere and records nothing. Its
// clock starts at the first event so trace timestamps are run-relative.
type Tracer struct {
	startOnce sync.Once
	start     time.Time

	mu    sync.Mutex
	spans []SpanData
	flows []FlowEvent
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Now returns the offset since the tracer's first event, starting the clock
// on first use.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	t.startOnce.Do(func() { t.start = time.Now() })
	return time.Since(t.start)
}

// Offset converts an absolute time to this tracer's run-relative clock,
// starting the clock on first use. It lets externally anchored events (the
// flight recorder's causal offsets) be imported onto the same timeline as
// live spans.
func (t *Tracer) Offset(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	t.startOnce.Do(func() { t.start = time.Now() })
	return at.Sub(t.start)
}

// FlowEvent is one cross-worker arrow in the Chrome trace: a message that
// left FromWorker at At and was consumed on ToWorker at End. ID ties the
// start and finish halves together and must be unique per arrow (the causal
// span id is used in practice).
type FlowEvent struct {
	ID         uint64
	Name       string
	FromWorker int
	At         time.Duration
	ToWorker   int
	End        time.Duration
}

// AddFlow records one cross-worker flow arrow.
func (t *Tracer) AddFlow(f FlowEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flows = append(t.flows, f)
	t.mu.Unlock()
}

// Flows copies all recorded flow events in insertion order.
func (t *Tracer) Flows() []FlowEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]FlowEvent, len(t.flows))
	copy(out, t.flows)
	return out
}

// Span is an open span; End finishes it. A span must be ended by the
// goroutine that started it (attrs are not synchronised before End).
type Span struct {
	tr     *Tracer
	worker int
	class  int
	name   string
	from   time.Duration
	attrs  []Attr
}

// Start opens a span on the given worker timeline. class classifies the
// span for busy-time accounting (ClassNone for structural spans).
func (t *Tracer) Start(worker, class int, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, worker: worker, class: class, name: name, from: t.Now(), attrs: attrs}
}

// Child opens a sub-span on the same worker timeline. (The Chrome trace
// format nests events by time containment within a worker row, so no
// explicit parent link is recorded.)
func (s *Span) Child(class int, name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.Start(s.worker, class, name, attrs...)
}

// SetAttrs appends attributes (for values only known mid-span, e.g. bytes
// received). Must be called before End, from the owning goroutine.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	to := s.tr.Now()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, SpanData{
		Worker: s.worker, Class: s.class, Name: s.name,
		Start: s.from, End: to, Attrs: s.attrs,
	})
	s.tr.mu.Unlock()
}

// Add records an already-finished span verbatim. It exists for synthetic
// spans with exact offsets — deterministic tests, or importing externally
// measured intervals into a trace.
func (t *Tracer) Add(d SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, d)
	t.mu.Unlock()
}

// Snapshot copies all finished spans in completion order.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// WriteChromeTrace exports every finished span in Chrome trace-event format
// (a JSON array loadable in chrome://tracing or Perfetto): one "M" metadata
// event naming each worker row via workerName, one "X" complete event per
// span with its attributes as args, and an "s"/"f" flow-event pair per
// recorded FlowEvent (rendered as a cross-worker arrow). Timestamps are
// microseconds from the tracer's first event. Output always ends with a
// newline, including for a nil tracer (which writes an empty array).
func (t *Tracer) WriteChromeTrace(w io.Writer, workerName func(worker int) string) error {
	spans := t.Snapshot()
	flows := t.Flows()
	events := make([]map[string]any, 0, len(spans)+2*len(flows)+8)

	workers := map[int]bool{}
	for _, sp := range spans {
		workers[sp.Worker] = true
	}
	for _, f := range flows {
		workers[f.FromWorker] = true
		workers[f.ToWorker] = true
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		name := ""
		if workerName != nil {
			name = workerName(id)
		}
		events = append(events, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 0, "tid": id,
			"args": map[string]any{"name": name},
		})
		events = append(events, map[string]any{
			"name": "thread_sort_index", "ph": "M", "pid": 0, "tid": id,
			"args": map[string]any{"sort_index": id},
		})
	}

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, sp := range spans {
		ev := map[string]any{
			"name": sp.Name, "ph": "X",
			"ts":  float64(sp.Start.Microseconds()),
			"dur": float64(sp.Duration().Microseconds()),
			"pid": 0, "tid": sp.Worker,
		}
		if len(sp.Attrs) > 0 {
			args := make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			ev["args"] = args
		}
		events = append(events, ev)
	}
	for _, f := range flows {
		// Clamp the start half to the timeline: a send stamped before the
		// tracer's first event would otherwise render off-screen.
		at := f.At
		if at < 0 {
			at = 0
		}
		end := f.End
		if end < at {
			end = at
		}
		events = append(events, map[string]any{
			"name": f.Name, "cat": "flow", "ph": "s", "id": f.ID,
			"ts": float64(at.Microseconds()), "pid": 0, "tid": f.FromWorker,
		})
		events = append(events, map[string]any{
			"name": f.Name, "cat": "flow", "ph": "f", "bp": "e", "id": f.ID,
			"ts": float64(end.Microseconds()), "pid": 0, "tid": f.ToWorker,
		})
	}
	return json.NewEncoder(w).Encode(events)
}

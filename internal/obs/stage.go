package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// The epoch flight recorder attributes every nanosecond of an epoch's wall
// time, and every byte that crosses the fabric, to a fixed stage taxonomy —
// per worker, per layer, per epoch. It is the measurement substrate for the
// paper's §6 evaluation style breakdowns (computation vs. communication time
// and traffic volume) and for the cost-model validator: Eq. 1–3 predict
// seconds per stage, and the recorder supplies the measured counterpart.
//
// Design constraints, in order:
//
//  1. Correctness of the accounting identity. Per worker, the stage times of
//     one epoch partition the worker's wall time with no gaps: StageClock is
//     an exclusive state machine that attributes elapsed-since-last-switch to
//     the stage being left, so the per-worker sum equals the worker's span
//     by construction, not by hoping every interval was wrapped.
//  2. Low overhead. One clock per worker goroutine (no locks, no maps on the
//     hot path — a Switch is one monotonic clock read and one atomic add);
//     byte attribution is one atomic add per message.
//  3. Nil safety. A nil *FlightRecorder and a nil *StageClock are no-ops, so
//     instrumented paths cost nothing when recording is off — matching the
//     Tracer/Span convention of this package.

// Stage is one slot of the fixed attribution taxonomy.
type Stage uint8

// The stage taxonomy. Time and traffic cells are indexed (worker, stage,
// layer); stages without a meaningful layer use layer cell 0.
const (
	// StageForward is forward-pass compute (vertex/edge kernels, tape
	// bookkeeping, pre-transforms).
	StageForward Stage = iota
	// StageBackward is backward-pass compute (tape backward, loss, seed
	// assembly, gradient collection).
	StageBackward
	// StageDepFetchSend is time spent packing/sending master rows and waiting
	// for sends to drain (GetFromDepNbr, sender side).
	StageDepFetchSend
	// StageDepFetchRecv is time blocked on arriving dependency rows and
	// unpacking them (GetFromDepNbr, receiver side).
	StageDepFetchRecv
	// StageMirrorScatter covers mirror-gradient exchange in the backward pass
	// (PostToDepNbr), both posting and waiting.
	StageMirrorScatter
	// StageGradSync is parameter-gradient synchronisation: ring all-reduce or
	// parameter-server exchange, plus clipping and the optimiser step.
	StageGradSync
	// StageBarrier is the per-worker idle tail between a worker's own finish
	// and the slowest worker's finish — the epoch-synchronous straggler cost.
	StageBarrier
	// StageCheckpoint is snapshot serialisation at the epoch barrier. It is
	// recorded outside the epoch wall time (EpochStats.Duration excludes the
	// save), so it is excluded from the wall-coverage identity.
	StageCheckpoint
	// NumStages bounds the taxonomy.
	NumStages
)

var stageNames = [NumStages]string{
	"forward", "backward", "dep_fetch_send", "dep_fetch_recv",
	"mirror_scatter", "grad_sync", "barrier", "checkpoint",
}

// String returns the stage's stable snake_case name, used in JSON documents
// and the BENCH schema. These names are part of the BENCH.json contract.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageNames returns the taxonomy in stage order.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// stageCell is one (worker, stage, layer) accumulator.
type stageCell struct {
	nanos atomic.Int64
	bytes atomic.Int64
	msgs  atomic.Int64
}

// epochAccum is the live accumulator of one open epoch.
type epochAccum struct {
	epoch   int
	workers int
	layers  int
	cells   []stageCell // workers × NumStages × (layers+1)
	// causal, when non-nil, collects the epoch's event DAG (stage intervals
	// and message wait-matches) for critical-path extraction.
	causal *causalAccum
}

// causalAccum is the live causal-event log of one open epoch.
type causalAccum struct {
	traceID   uint64
	startWall time.Time // monotonic anchor: all offsets are relative to it
	startUnix int64     // matching wall-clock nanos, for message send stamps
	spanSeq   atomic.Uint64
	workers   []workerCausal
}

// workerCausal is one worker's slice of the causal log. Intervals and
// matches are appended from the worker's own goroutine; the mutex makes the
// log safe against scrapes and late fault-layer deliveries regardless.
type workerCausal struct {
	mu        sync.Mutex
	intervals []IntervalEvent
	matches   []MatchEvent
	// curSpan is the id of the worker's currently open stage interval, read
	// racily (atomically) by send stamping — background send goroutines may
	// observe the previous interval, which is an acceptable approximation.
	curSpan atomic.Uint64
}

// IntervalEvent is one closed stage interval of one worker: the compute
// nodes of the epoch's event DAG. Offsets are relative to the epoch start.
type IntervalEvent struct {
	Worker int
	Stage  Stage
	Layer  int
	SpanID uint64
	Start  time.Duration
	End    time.Duration
}

// MatchEvent is one matched cross-worker message wait: the edges of the
// epoch's event DAG. Worker blocked on the message from Sent (the sender's
// stamped send time; equal to WaitStart when the message was untraced)
// until WaitEnd; a wait that found the message already pending has
// WaitEnd ≈ WaitStart. Offsets are relative to the epoch start.
type MatchEvent struct {
	Worker    int
	From      int
	Kind      string
	Layer     int
	Seq       int
	SpanID    uint64
	Sent      time.Duration
	WaitStart time.Duration
	WaitEnd   time.Duration
}

func (a *epochAccum) cell(worker int, s Stage, layer int) *stageCell {
	if worker < 0 || worker >= a.workers || s >= NumStages {
		return nil
	}
	if layer < 0 {
		layer = 0
	}
	if layer > a.layers {
		layer = a.layers
	}
	return &a.cells[(worker*int(NumStages)+int(s))*(a.layers+1)+layer]
}

// StageCell is one non-empty attribution cell of a finished epoch.
type StageCell struct {
	Worker  int     `json:"worker"`
	Stage   string  `json:"stage"`
	Layer   int     `json:"layer"`
	Seconds float64 `json:"seconds"`
	Bytes   int64   `json:"bytes,omitempty"`
	Msgs    int64   `json:"msgs,omitempty"`
}

// EpochRecord is the immutable flight record of one completed epoch. Cells
// holds only non-empty (worker, stage, layer) slots.
type EpochRecord struct {
	Epoch       int         `json:"epoch"`
	WallSeconds float64     `json:"wall_seconds"`
	Loss        float64     `json:"loss"`
	Workers     int         `json:"workers"`
	Layers      int         `json:"layers"`
	Cells       []StageCell `json:"cells"`
	// StragglerIndex is max/mean of per-worker busy seconds (all stages
	// except barrier and checkpoint): 1.0 means perfect balance, 2.0 means
	// the slowest worker did twice the mean work. Zero when unmeasurable.
	StragglerIndex float64 `json:"straggler_index,omitempty"`
	// BarrierShare is the fraction of the cluster's total wall time
	// (workers × wall) spent idling at the epoch barrier — the cost of skew.
	BarrierShare float64 `json:"barrier_share,omitempty"`
	// SlowestWorker is the worker with the most busy seconds this epoch.
	SlowestWorker int `json:"slowest_worker"`
	// CritPath is the epoch's critical path; nil unless causal recording was
	// enabled (see FlightRecorder.EnableCausal).
	CritPath *CritPath `json:"crit_path,omitempty"`
	// CausalStart anchors the causal offsets (Matches, CritPath spans) in
	// absolute time; zero when causal recording was off. Not serialised.
	CausalStart time.Time `json:"-"`
	// Matches holds the epoch's cross-worker wait-match events for flow-event
	// export; populated only under causal recording. Not serialised — the
	// JSON surface carries the distilled CritPath instead.
	Matches []MatchEvent `json:"-"`
}

// StageSeconds sums the stage's time across all workers and layers.
func (r *EpochRecord) StageSeconds(stage string) float64 {
	var s float64
	for _, c := range r.Cells {
		if c.Stage == stage {
			s += c.Seconds
		}
	}
	return s
}

// LayerStageSeconds sums the stage's time at one layer across workers.
func (r *EpochRecord) LayerStageSeconds(stage string, layer int) float64 {
	var s float64
	for _, c := range r.Cells {
		if c.Stage == stage && c.Layer == layer {
			s += c.Seconds
		}
	}
	return s
}

// StageBytes sums the stage's traffic across all workers and layers.
func (r *EpochRecord) StageBytes(stage string) int64 {
	var b int64
	for _, c := range r.Cells {
		if c.Stage == stage {
			b += c.Bytes
		}
	}
	return b
}

// StageMsgs sums the stage's message count across workers and layers.
func (r *EpochRecord) StageMsgs(stage string) int64 {
	var n int64
	for _, c := range r.Cells {
		if c.Stage == stage {
			n += c.Msgs
		}
	}
	return n
}

// TotalBytes sums traffic across every cell. Each logical message is counted
// once on the sender and once on the receiver, so clean-fabric runs report
// exactly 2× the logical wire volume here.
func (r *EpochRecord) TotalBytes() int64 {
	var b int64
	for _, c := range r.Cells {
		b += c.Bytes
	}
	return b
}

// recorderKeep bounds the retained epoch history; beyond it the oldest
// records are dropped (long nstrain runs must not grow without bound).
const recorderKeep = 4096

// FlightRecorder collects per-epoch stage attribution. One recorder serves
// one engine; BeginEpoch/EndEpoch bracket each epoch, worker goroutines feed
// cells through StageClock (time) and AddTraffic (bytes). All methods are
// safe for concurrent use and no-ops on a nil receiver.
type FlightRecorder struct {
	cur atomic.Pointer[epochAccum]

	// id distinguishes this recorder's trace ids from other recorders in the
	// same process; causal switches BeginEpoch to event-DAG collection.
	id     uint64
	causal atomic.Bool

	mu   sync.Mutex
	recs []EpochRecord
}

// recorderSeq allocates process-unique recorder ids for trace-id spaces.
var recorderSeq atomic.Uint64

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{id: recorderSeq.Add(1)}
}

// EnableCausal switches the recorder to causal mode: every following epoch
// also collects its event DAG (per-worker stage intervals plus cross-worker
// message wait-matches) and closes with a critical-path extraction. The
// per-event cost is one mutex-protected append; recording stays cheap enough
// for always-on use but is opt-in because the log grows with message count.
func (r *FlightRecorder) EnableCausal() {
	if r == nil {
		return
	}
	r.causal.Store(true)
}

// CausalEnabled reports whether causal recording is on.
func (r *FlightRecorder) CausalEnabled() bool {
	return r != nil && r.causal.Load()
}

// BeginEpoch opens the accumulator for one epoch over the given cluster
// shape. An already-open epoch is discarded (protocol misuse, not fatal).
func (r *FlightRecorder) BeginEpoch(epoch, workers, layers int) {
	if r == nil || workers <= 0 || layers < 0 {
		return
	}
	a := &epochAccum{
		epoch: epoch, workers: workers, layers: layers,
		cells: make([]stageCell, workers*int(NumStages)*(layers+1)),
	}
	if r.causal.Load() {
		now := time.Now()
		a.causal = &causalAccum{
			traceID:   r.id<<32 | uint64(uint32(epoch)),
			startWall: now,
			startUnix: now.UnixNano(),
			workers:   make([]workerCausal, workers),
		}
	}
	r.cur.Store(a)
}

// OnWaitMatch appends one message wait-match to the open epoch's causal log:
// worker matched the message (kind, layer, seq) from peer from, having
// blocked from waitStart to waitEnd; spanID and sentUnixNano come from the
// message's trace context (zero when the message was untraced). A no-op when
// the recorder is nil, causal recording is off, or no epoch is open.
func (r *FlightRecorder) OnWaitMatch(worker, from int, kind string, layer, seq int,
	spanID uint64, sentUnixNano int64, waitStart, waitEnd time.Time) {
	if r == nil {
		return
	}
	a := r.cur.Load()
	if a == nil || a.causal == nil || worker < 0 || worker >= a.workers {
		return
	}
	ca := a.causal
	m := MatchEvent{
		Worker: worker, From: from, Kind: kind, Layer: layer, Seq: seq,
		SpanID:    spanID,
		WaitStart: waitStart.Sub(ca.startWall),
		WaitEnd:   waitEnd.Sub(ca.startWall),
	}
	if sentUnixNano > 0 {
		m.Sent = time.Duration(sentUnixNano - ca.startUnix)
	} else {
		// Untraced message: the visible blocking interval is all we know.
		m.Sent = m.WaitStart
	}
	wc := &ca.workers[worker]
	wc.mu.Lock()
	wc.matches = append(wc.matches, m)
	wc.mu.Unlock()
}

// CausalSendContext allocates the trace context for one logical message send
// by worker: the epoch's trace id, a fresh span id (which doubles as the
// flow-event id), the sender's currently open stage interval as parent, and
// the send wall-clock stamp. ok is false — and the values zero — when causal
// recording is off or no epoch is open; callers then leave the message
// untraced.
func (r *FlightRecorder) CausalSendContext(worker int) (traceID, spanID, parent uint64, sentUnixNano int64, ok bool) {
	if r == nil {
		return 0, 0, 0, 0, false
	}
	a := r.cur.Load()
	if a == nil || a.causal == nil || worker < 0 || worker >= a.workers {
		return 0, 0, 0, 0, false
	}
	ca := a.causal
	return ca.traceID, ca.spanSeq.Add(1), ca.workers[worker].curSpan.Load(),
		time.Now().UnixNano(), true
}

// EndEpoch closes the open epoch into an immutable record. Attribution
// arriving after the swap (e.g. a late duplicate delivery) is dropped —
// exactly-once counting is decided at the dedup point, not here.
func (r *FlightRecorder) EndEpoch(wall time.Duration, loss float64) {
	if r == nil {
		return
	}
	a := r.cur.Swap(nil)
	if a == nil {
		return
	}
	rec := EpochRecord{
		Epoch: a.epoch, WallSeconds: wall.Seconds(), Loss: loss,
		Workers: a.workers, Layers: a.layers,
	}
	busy := make([]float64, a.workers)
	var barrier float64
	for w := 0; w < a.workers; w++ {
		for s := Stage(0); s < NumStages; s++ {
			for l := 0; l <= a.layers; l++ {
				c := &a.cells[(w*int(NumStages)+int(s))*(a.layers+1)+l]
				nanos, bytes, msgs := c.nanos.Load(), c.bytes.Load(), c.msgs.Load()
				if nanos == 0 && bytes == 0 && msgs == 0 {
					continue
				}
				sec := float64(nanos) / 1e9
				switch s {
				case StageBarrier:
					barrier += sec
				case StageCheckpoint:
					// Outside the epoch wall; neither busy nor barrier.
				default:
					busy[w] += sec
				}
				rec.Cells = append(rec.Cells, StageCell{
					Worker: w, Stage: s.String(), Layer: l,
					Seconds: sec, Bytes: bytes, Msgs: msgs,
				})
			}
		}
	}
	var sum, max float64
	for w, b := range busy {
		sum += b
		if b > max {
			max = b
			rec.SlowestWorker = w
		}
	}
	if mean := sum / float64(a.workers); mean > 0 {
		rec.StragglerIndex = max / mean
	}
	if total := float64(a.workers) * wall.Seconds(); total > 0 {
		rec.BarrierShare = barrier / total
	}
	if ca := a.causal; ca != nil {
		rec.CausalStart = ca.startWall
		intervals := make([][]IntervalEvent, a.workers)
		matches := make([][]MatchEvent, a.workers)
		for w := range ca.workers {
			wc := &ca.workers[w]
			wc.mu.Lock()
			intervals[w] = wc.intervals
			matches[w] = wc.matches
			wc.mu.Unlock()
			rec.Matches = append(rec.Matches, matches[w]...)
		}
		rec.CritPath = extractCritPath(wall, intervals, matches)
	}
	r.mu.Lock()
	if len(r.recs) >= recorderKeep {
		copy(r.recs, r.recs[1:])
		r.recs = r.recs[:len(r.recs)-1]
	}
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// AddTraffic attributes bytes and message counts to a stage cell of the open
// epoch. A no-op when no epoch is open (e.g. inference traffic between
// epochs) — time attribution has the same property via Clock.
func (r *FlightRecorder) AddTraffic(worker int, s Stage, layer int, bytes, msgs int64) {
	if r == nil {
		return
	}
	a := r.cur.Load()
	if a == nil {
		return
	}
	if c := a.cell(worker, s, layer); c != nil {
		c.bytes.Add(bytes)
		c.msgs.Add(msgs)
	}
}

// AddTime attributes a duration directly to a stage cell of the open epoch —
// for intervals measured outside a worker's StageClock (barrier tails,
// checkpoint saves). Non-positive durations are dropped.
func (r *FlightRecorder) AddTime(worker int, s Stage, layer int, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	a := r.cur.Load()
	if a == nil {
		return
	}
	if c := a.cell(worker, s, layer); c != nil {
		c.nanos.Add(int64(d))
	}
}

// Clock starts a stage clock for one worker of the open epoch, initially in
// StageForward at layer 1. Returns nil (a no-op clock) when the recorder is
// nil or no epoch is open. The clock must be used from a single goroutine.
func (r *FlightRecorder) Clock(worker int) *StageClock {
	if r == nil {
		return nil
	}
	a := r.cur.Load()
	if a == nil || worker < 0 || worker >= a.workers {
		return nil
	}
	c := &StageClock{acc: a, worker: worker, stage: StageForward, layer: 1, last: time.Now()}
	if ca := a.causal; ca != nil {
		c.spanID = ca.spanSeq.Add(1)
		ca.workers[worker].curSpan.Store(c.spanID)
	}
	return c
}

// Snapshot returns a copy of every completed epoch record, oldest first.
func (r *FlightRecorder) Snapshot() []EpochRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EpochRecord, len(r.recs))
	copy(out, r.recs)
	return out
}

// Epochs returns the number of completed epoch records.
func (r *FlightRecorder) Epochs() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Last returns the most recently completed epoch record, if any.
func (r *FlightRecorder) Last() (EpochRecord, bool) {
	if r == nil {
		return EpochRecord{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recs) == 0 {
		return EpochRecord{}, false
	}
	return r.recs[len(r.recs)-1], true
}

// StageClock attributes one worker goroutine's wall time exclusively: at any
// instant the worker is in exactly one (stage, layer), and Switch charges the
// elapsed time to the stage being left. The per-worker stage sum therefore
// equals the worker's measured span exactly — there is no "untracked" bucket
// to hide time in. Not safe for concurrent use; nil is a no-op.
type StageClock struct {
	acc    *epochAccum
	worker int
	stage  Stage
	layer  int
	last   time.Time
	// spanID identifies the currently open interval under causal recording.
	spanID uint64
	// sink, when non-nil, mirrors every closed interval into a tracer.
	sink *SpanSink
}

// SpanSink mirrors a stage clock's closed intervals into a Tracer, so the
// clock's one bracket per worker phase also feeds span consumers (the
// utilisation series of internal/metrics, Chrome trace export). Each
// interval becomes one span on the clock's worker row: named by its stage,
// carrying a "layer" attribute, classed by Class, with the clock's own
// timestamps as Start and End — so its duration equals exactly the
// nanoseconds the interval added to its recorder cell. Zero-length intervals
// and stages classed ClassNone are not emitted, and time attributed outside
// a clock (AddTime: barrier tails, checkpoint saves) never reaches a sink.
//
// Offsets come from Tracer.Offset, so the tracer's clock should be started
// (Tracer.Now) before the first stage clock opens; otherwise the earliest
// spans get negative offsets.
type SpanSink struct {
	// Tracer receives the spans; nil makes the sink a no-op.
	Tracer *Tracer
	// Class is the span class of each stage, indexed by Stage. The zero
	// value classes every stage as 0, so set ClassNone explicitly for the
	// stages to leave out.
	Class [NumStages]int
}

// emit records one closed interval [from, to) of stage s at layer on
// worker's row.
func (k *SpanSink) emit(worker int, s Stage, layer int, from, to time.Time) {
	if k == nil || k.Class[s] == ClassNone {
		return
	}
	k.Tracer.Add(SpanData{
		Worker: worker, Class: k.Class[s], Name: s.String(),
		Start: k.Tracer.Offset(from), End: k.Tracer.Offset(to),
		Attrs: []Attr{Int("layer", layer)},
	})
}

// SetSink attaches a span sink to the clock; every interval closed from now
// on is also recorded through it. A nil sink detaches. Nil-safe.
func (c *StageClock) SetSink(s *SpanSink) {
	if c == nil {
		return
	}
	c.sink = s
}

// Switch charges elapsed time to the current stage and enters (s, layer).
func (c *StageClock) Switch(s Stage, layer int) {
	if c == nil || c.acc == nil {
		return
	}
	c.switchAt(s, layer, time.Now())
}

// switchAt is Switch with the clock read supplied: it closes the current
// interval at now.
func (c *StageClock) switchAt(s Stage, layer int, now time.Time) {
	if d := now.Sub(c.last); d > 0 {
		if cell := c.acc.cell(c.worker, c.stage, c.layer); cell != nil {
			cell.nanos.Add(int64(d))
			c.sink.emit(c.worker, c.stage, c.layer, c.last, now)
		}
	}
	if ca := c.acc.causal; ca != nil {
		wc := &ca.workers[c.worker]
		start, end := c.last.Sub(ca.startWall), now.Sub(ca.startWall)
		if end > start {
			wc.mu.Lock()
			wc.intervals = append(wc.intervals, IntervalEvent{
				Worker: c.worker, Stage: c.stage, Layer: c.layer,
				SpanID: c.spanID, Start: start, End: end,
			})
			wc.mu.Unlock()
		}
		c.spanID = ca.spanSeq.Add(1)
		wc.curSpan.Store(c.spanID)
	}
	c.stage, c.layer, c.last = s, layer, now
}

// End charges the final interval and detaches the clock.
func (c *StageClock) End() {
	if c == nil || c.acc == nil {
		return
	}
	c.Switch(c.stage, c.layer)
	c.acc = nil
}

package engine

import (
	"testing"
	"time"

	"neutronstar/internal/comm"
	"neutronstar/internal/metrics"
	"neutronstar/internal/obs"
)

// trainCausal trains a small engine with causal recording enabled and
// returns the epoch records and the collector used.
func trainCausal(t *testing.T, opts Options, epochs int) ([]obs.EpochRecord, *metrics.Collector) {
	t.Helper()
	ds := testDataset(t, 600, 6, 21)
	rec := obs.NewFlightRecorder()
	rec.EnableCausal()
	opts.Recorder = rec
	if opts.Collector == nil {
		opts.Collector = metrics.NewCollector()
	}
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Train(epochs)
	recs := rec.Snapshot()
	if len(recs) != epochs {
		t.Fatalf("recorded %d epochs, want %d", len(recs), epochs)
	}
	return recs, opts.Collector
}

// TestCausalCritPathCoversWall is the acceptance gate for the critical-path
// extractor on a real run: every epoch must carry a path whose span durations
// sum to the epoch wall time within 5%, with chronologically contiguous spans
// and a sane straggler index.
func TestCausalCritPathCoversWall(t *testing.T) {
	recs, _ := trainCausal(t, Options{
		Workers: 4, Mode: Hybrid, Ring: true, LockFree: true, Seed: 5,
	}, 3)
	for _, r := range recs {
		p := r.CritPath
		if p == nil || len(p.Spans) == 0 {
			t.Fatalf("epoch %d: no critical path recorded", r.Epoch)
		}
		if p.WallSeconds <= 0 {
			t.Fatalf("epoch %d: wall %v", r.Epoch, p.WallSeconds)
		}
		if ratio := p.CoveredSeconds / p.WallSeconds; ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("epoch %d: path covers %.4f of the wall (%v of %v), want within 5%%",
				r.Epoch, ratio, p.CoveredSeconds, p.WallSeconds)
		}
		prev := 0.0
		for i, s := range p.Spans {
			if s.StartSeconds != prev {
				t.Fatalf("epoch %d span %d: starts at %v, previous ended at %v — path not contiguous",
					r.Epoch, i, s.StartSeconds, prev)
			}
			if s.EndSeconds < s.StartSeconds {
				t.Fatalf("epoch %d span %d inverted: %+v", r.Epoch, i, s)
			}
			prev = s.EndSeconds
		}
		if r.StragglerIndex < 1 {
			t.Fatalf("epoch %d: straggler index %v < 1 (max/mean cannot be)", r.Epoch, r.StragglerIndex)
		}
		if r.SlowestWorker < 0 || r.SlowestWorker >= r.Workers {
			t.Fatalf("epoch %d: slowest worker %d out of range", r.Epoch, r.SlowestWorker)
		}
	}
}

// TestCausalRunExportsFlowEvents: with a collector attached, every epoch's
// traced cross-worker wait-matches must surface as Chrome flow events, and
// each arrow must end inside a Comm-class stage span of the receiving worker
// — arrows and spans come from the same clock reads, so this holds exactly.
func TestCausalRunExportsFlowEvents(t *testing.T) {
	_, col := trainCausal(t, Options{Workers: 3, Mode: DepComm, Seed: 7}, 2)
	flows := col.Tracer().Flows()
	if len(flows) == 0 {
		t.Fatal("causal multi-worker run exported no flow events")
	}
	spans := col.Tracer().Snapshot()
	for _, f := range flows {
		inComm := false
		for _, sp := range spans {
			if sp.Worker == f.ToWorker && sp.Class == int(metrics.Comm) &&
				sp.Start <= f.End && f.End <= sp.End {
				inComm = true
				break
			}
		}
		if !inComm {
			t.Fatalf("flow ends outside every comm span of worker %d: %+v", f.ToWorker, f)
		}
		if f.ID == 0 {
			t.Fatalf("flow with zero span id: %+v", f)
		}
		if f.FromWorker == f.ToWorker {
			t.Fatalf("self-send surfaced as a flow: %+v", f)
		}
		if f.End < f.At {
			t.Fatalf("flow ends before it starts: %+v", f)
		}
	}
}

// TestCritPathShiftsUnderMessageDelay injects a large fixed delay on rep
// messages and checks the critical path notices: rep traffic must become the
// single largest label on the path — this is the synthetic slow-network
// attribution test. Dominance, not an absolute share, is the assertion: under
// the race detector scheduler latency puts real milliseconds on undelayed
// kinds too, and a clean run's shape is host-load-dependent, so both a fixed
// share bound and a clean-vs-delayed comparison flake.
func TestCritPathShiftsUnderMessageDelay(t *testing.T) {
	spec, err := comm.ParseFaultSpec("rep.delay=10ms,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := trainCausal(t, Options{Workers: 4, Mode: DepComm, Seed: 5, Fault: spec}, 2)
	agg := make(map[string]float64)
	var total float64
	for _, r := range recs {
		for label, sec := range r.CritPath.Breakdown() {
			agg[label] += sec
			total += sec
		}
	}
	top, best := "", 0.0
	for label, sec := range agg {
		if sec > best {
			top, best = label, sec
		}
	}
	if top != "net:rep" {
		t.Fatalf("rep delay did not dominate the path: top label %s at %.2f (all: %v)",
			top, best/total, agg)
	}
	if best/total < 0.25 {
		t.Fatalf("net:rep leads but holds only %.2f of the path: %v", best/total, agg)
	}
}

// TestCausalSameSeedSameStructure: two same-seed runs must agree on the
// critical path's structure — the kind of chain that bounds the epoch.
// Exact span counts and per-epoch dominant labels are NOT asserted: which
// individual wait blocks is wall-clock scheduling, and only the extractor
// itself is bit-deterministic (pinned by TestCritPathDeterministic on
// replayed DAGs). What the seeded protocol does determine is the aggregate
// shape: under a forced rep delay both runs bind substantially on rep
// traffic and are network-bound overall.
func TestCausalSameSeedSameStructure(t *testing.T) {
	// A heavy per-message delay makes every cross-worker rep wait genuinely
	// block, far above scheduling noise (and above race-detector compute
	// inflation), so the dependency kind is forced.
	spec, err := comm.ParseFaultSpec("rep.delay=8ms,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	structure := func() (top string, agg map[string]float64) {
		recs, _ := trainCausal(t, Options{Workers: 3, Mode: DepComm, Seed: 11, Fault: spec}, 2)
		agg = make(map[string]float64)
		for _, r := range recs {
			for label, sec := range r.CritPath.Breakdown() {
				agg[label] += sec
			}
		}
		best := 0.0
		for label, sec := range agg {
			if sec > best {
				top, best = label, sec
			}
		}
		return top, agg
	}
	aTop, aAgg := structure()
	bTop, bAgg := structure()
	// Which individual wait binds varies with host load (a congested
	// all-reduce can outweigh one rep delay), so per-epoch labels and exact
	// shares are not comparable; the aggregate shape is: both runs must be
	// bound by the same dependency kind — the delayed rep traffic.
	if aTop != "net:rep" || bTop != "net:rep" {
		t.Fatalf("same-seed runs not both rep-bound: %s vs %s (%v vs %v)", aTop, bTop, aAgg, bAgg)
	}
}

// TestWatchdogFiresOnInjectedStall wires a Watchdog to a real recorded run
// and then starves it: the stall rule must fire through the Health path the
// /healthwatch endpoint serves.
func TestWatchdogFiresOnInjectedStall(t *testing.T) {
	recs, _ := trainCausal(t, Options{Workers: 2, Mode: Hybrid, Seed: 3}, 2)
	w := obs.NewWatchdog(obs.WatchRules{Stall: 50 * time.Millisecond}, nil, nil)
	for _, r := range recs {
		w.ObserveEpoch(r)
	}
	if rep := w.Health(); !rep.Healthy {
		t.Fatalf("healthy run reported unhealthy: %+v", rep)
	}
	time.Sleep(80 * time.Millisecond)
	rep := w.Health()
	if rep.Healthy || len(rep.Alerts) != 1 || rep.Alerts[0].Rule != obs.RuleStall {
		t.Fatalf("starved watchdog did not fire stall: %+v", rep)
	}
}

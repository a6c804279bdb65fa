package main

import (
	"reflect"
	"testing"
	"time"
)

func TestStreamIsDeterministicInSeed(t *testing.T) {
	a := stream(7, 300, 5*time.Second, 16000)
	b := stream(7, 300, 5*time.Second, 16000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request streams")
	}
	if c := stream(8, 300, 5*time.Second, 16000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request stream")
	}
}

func TestStreamShape(t *testing.T) {
	const rate, n = 400, 16000
	dur := 10 * time.Second
	reqs := stream(3, rate, dur, n)
	if got, want := float64(len(reqs)), rate*dur.Seconds(); got < 0.9*want || got > 1.1*want {
		t.Errorf("%g requests in %v at %g/s, want about %g", got, dur, float64(rate), want)
	}
	sampled := 0
	var last time.Duration
	for i, rq := range reqs {
		if rq.due < last || rq.due >= dur {
			t.Fatalf("request %d due at %v after %v (phase %v)", i, rq.due, last, dur)
		}
		last = rq.due
		if len(rq.verts) != queryVerts {
			t.Fatalf("request %d has %d vertices", i, len(rq.verts))
		}
		for j, v := range rq.verts {
			if v < 0 || v >= n || containsVert(rq.verts[:j], v) {
				t.Fatalf("request %d: bad or repeated vertex %d in %v", i, v, rq.verts)
			}
		}
		if rq.sampled {
			sampled++
		}
	}
	if share := float64(sampled) / float64(len(reqs)); share < sampledShare-0.03 || share > sampledShare+0.03 {
		t.Errorf("sampled share %.3f, want about %g", share, sampledShare)
	}
}

func TestUpdateTimes(t *testing.T) {
	got := updateTimes(3*updateEvery + updateEvery/2)
	want := []time.Duration{updateEvery, 2 * updateEvery, 3 * updateEvery}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("updateTimes = %v, want %v", got, want)
	}
	if got := updateTimes(updateEvery); len(got) != 0 {
		t.Errorf("an update at the very end of the phase: %v", got)
	}
}

// TestBlockTailsIsolateOneSlowSpan checks that a refill that ran long in one
// span of the schedule moves that span's tail and not the median of them.
func TestBlockTailsIsolateOneSlowSpan(t *testing.T) {
	const dur = 30 * time.Second
	p := &phase{}
	for i := 0; i < 3000; i++ {
		due := time.Duration(i) * dur / 3000
		lat := 10.0
		if i%50 == 0 {
			lat = 100 // the tail of every span
		}
		if due >= 2*dur/3 && i%100 < 5 {
			lat = 1000 // one span's long refill
		}
		p.reqs = append(p.reqs, request{due: due})
		p.out = append(p.out, served{lat: lat, ok: true})
	}
	tails := p.blockTails(dur)
	if want := []float64{100, 100, 1000}; !reflect.DeepEqual(tails, want) {
		t.Fatalf("blockTails = %v, want %v", tails, want)
	}
	if got := median(tails); got != 100 {
		t.Errorf("median of span tails = %g, want 100", got)
	}
}

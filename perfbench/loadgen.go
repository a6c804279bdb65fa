package main

import (
	"math/rand"
	"time"
)

// request is one scheduled query of the open-loop stream.
type request struct {
	due     time.Duration // offset from the start of the phase
	verts   []int32
	sampled bool
	seed    uint64 // sampling RNG seed of a sampled query
}

const (
	queryVerts   = 4
	sampledShare = 0.15
	// zipfS skews popularity over vertex ids. RMAT concentrates edges on low
	// ids, so the popular vertices are also the hubs.
	zipfS = 1.1
	// updateEvery is the schedule period of Static.Update, the write beside
	// the reads. Each update empties the embedding cache and costs a burst of
	// hub-closure recomputation that lasts most of a second: at 3 s two
	// thirds of the requests are due outside a refill, and the p99 of all of
	// them lands in the bursts.
	updateEvery = 3 * time.Second
)

// sampleFanouts is the neighbor budget per hop of a sampled query.
var sampleFanouts = []int{10, 10}

// stream draws an open-loop request schedule from seed: Poisson arrivals at
// rate requests per second over dur, each asking for queryVerts distinct
// Zipf-popular vertices out of numVerts, sampled with probability
// sampledShare and exact otherwise.
func stream(seed uint64, rate float64, dur time.Duration, numVerts int) []request {
	r := rand.New(rand.NewSource(int64(seed)))
	z := rand.NewZipf(r, zipfS, 1, uint64(numVerts-1))
	var out []request
	due := time.Duration(0)
	for {
		due += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if due >= dur {
			return out
		}
		rq := request{due: due, sampled: r.Float64() < sampledShare}
		for len(rq.verts) < queryVerts {
			v := int32(z.Uint64())
			if !containsVert(rq.verts, v) {
				rq.verts = append(rq.verts, v)
			}
		}
		if rq.sampled {
			rq.seed = r.Uint64() | 1
		}
		out = append(out, rq)
	}
}

func containsVert(vs []int32, v int32) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}

// updateTimes returns the schedule offsets of the parameter updates in a
// phase of length dur.
func updateTimes(dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := updateEvery; t < dur; t += updateEvery {
		out = append(out, t)
	}
	return out
}

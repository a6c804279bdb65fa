package hybrid

import "testing"

// dec builds a Decision with one layer per pair of (cached, communicated)
// slices, in the order R1, C1, R2, C2, ...
func dec(layers ...[]int32) *Decision {
	d := &Decision{}
	for i := 0; i < len(layers); i += 2 {
		d.R = append(d.R, layers[i])
		d.C = append(d.C, layers[i+1])
	}
	return d
}

func TestDiffDecisionsIdenticalPlans(t *testing.T) {
	a := []*Decision{
		dec([]int32{1, 2}, []int32{3}, []int32{}, []int32{1, 2, 3}),
		dec([]int32{7}, []int32{}, []int32{7}, []int32{}),
	}
	rep := DiffDecisions(a, a)
	if rep.Flips() != 0 {
		t.Fatalf("identical plans flipped: %+v", rep)
	}
	// 3 + 3 slots on worker 0, 1 + 1 on worker 1.
	if rep.Slots != 8 {
		t.Fatalf("slots = %d, want 8", rep.Slots)
	}
}

func TestDiffDecisionsCountsBothDirections(t *testing.T) {
	a := []*Decision{dec([]int32{1, 2}, []int32{3, 4})}
	b := []*Decision{dec([]int32{1, 3}, []int32{2, 4})}
	rep := DiffDecisions(a, b)
	// Dep 2: cached in a, communicated in b. Dep 3: the reverse.
	if rep.CacheToComm != 1 || rep.CommToCache != 1 {
		t.Fatalf("flips = %+v, want 1 each way", rep)
	}
	if rep.Slots != 4 {
		t.Fatalf("slots = %d, want 4", rep.Slots)
	}
}

func TestDiffDecisionsIgnoresExtraWorkersAndLayers(t *testing.T) {
	a := []*Decision{dec([]int32{1}, []int32{2})}
	b := []*Decision{
		dec([]int32{2}, []int32{1}, []int32{9}, []int32{}),
		dec([]int32{5}, []int32{6}),
	}
	rep := DiffDecisions(a, b)
	if rep.CacheToComm != 1 || rep.CommToCache != 1 {
		t.Fatalf("flips = %+v, want 1 each way", rep)
	}
	if rep.Slots != 2 {
		t.Fatalf("slots = %d, want 2 (extra worker and layer ignored)", rep.Slots)
	}
}

func TestDiffDecisionsEmpty(t *testing.T) {
	if rep := DiffDecisions(nil, nil); rep != (FlipReport{}) {
		t.Fatalf("nil diff = %+v", rep)
	}
}

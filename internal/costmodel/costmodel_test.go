package costmodel

import (
	"testing"
	"time"
)

func TestProbePositiveCosts(t *testing.T) {
	c := Probe(100e6, 100*time.Microsecond)
	if c.Tv <= 0 || c.Te <= 0 || c.Tc <= 0 {
		t.Fatalf("non-positive cost: %+v", c)
	}
}

func TestProbeUnthrottledCommCost(t *testing.T) {
	c := Probe(0, 0)
	if c.Tc <= 0 {
		t.Fatal("unthrottled Tc must still be positive")
	}
	fast := Probe(1e9, time.Microsecond)
	slow := Probe(1e6, time.Microsecond)
	if slow.Tc <= fast.Tc {
		t.Fatalf("slower network must cost more: slow %v fast %v", slow.Tc, fast.Tc)
	}
}

func TestCommCostScalesWithDim(t *testing.T) {
	c := Costs{Tc: 2}
	if c.CommCost(10) != 20 || c.CommCost(0) != 0 {
		t.Fatal("CommCost wrong")
	}
}

// TestCostBoundaries is the table of Eq. 2 and collective-volume edge cases:
// zero dimensions, empty volumes, and the degenerate all-zero environment.
func TestCostBoundaries(t *testing.T) {
	c := Costs{Tv: 3, Te: 5, Tc: 7}
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"comm dim 0", c.CommCost(0), 0},
		{"comm dim 1", c.CommCost(1), 7},
		{"collective empty", c.TPCost(0), 0},
		{"collective volume", c.TPCost(6), 6 * 7},
		{"zero env", Costs{}.CommCost(4), 0},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got %g, want %g", tc.name, tc.got, tc.want)
		}
	}
}

package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {100000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 100 samples = %g, want p90 = 90", got)
	}
	if got := tail(xs[:10]); got != median(xs[:10]) {
		t.Errorf("tail of 10 samples = %g, want the median %g", got, median(xs[:10]))
	}
}

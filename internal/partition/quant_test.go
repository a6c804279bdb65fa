package partition

import (
	"math"
	"math/rand"
	"testing"
)

func TestParseRepQuant(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RepQuant
	}{
		{"", RepQuantOff},
		{"off", RepQuantOff},
		{"fp16", RepQuantFP16},
		{"int8", RepQuantInt8},
	} {
		got, err := ParseRepQuant(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseRepQuant(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseRepQuant("bf16"); err == nil {
		t.Fatal("expected an error for an unknown format")
	}
}

// TestRequantizeWithinBound round-trips random rows through each format and
// checks every element against the documented RequantizeErrorBound.
func TestRequantizeWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, q := range []RepQuant{RepQuantOff, RepQuantFP16, RepQuantInt8} {
		for trial := 0; trial < 50; trial++ {
			// Mix magnitudes across trials: unit-scale rows, tiny rows near the
			// fp16 subnormal range, and large rows near its overflow threshold.
			scale := []float32{1, 1e-5, 1e4}[trial%3]
			row := make([]float32, 33)
			for i := range row {
				row[i] = (2*rng.Float32() - 1) * scale
			}
			orig := append([]float32(nil), row...)
			var absmax float64
			for _, x := range orig {
				if a := math.Abs(float64(x)); a > absmax {
					absmax = a
				}
			}
			Requantize(q, row)
			bound := RequantizeErrorBound(q, absmax)
			for i := range row {
				diff := math.Abs(float64(row[i]) - float64(orig[i]))
				if diff > bound {
					t.Fatalf("%s trial %d: element %d moved %g > bound %g (x=%g absmax=%g)",
						q, trial, i, diff, bound, orig[i], absmax)
				}
			}
			// Requantizing twice must be a no-op: the round-trip lands on a
			// representable value.
			again := append([]float32(nil), row...)
			Requantize(q, again)
			for i := range row {
				if again[i] != row[i] {
					t.Fatalf("%s trial %d: requantize not idempotent at %d: %g -> %g",
						q, trial, i, row[i], again[i])
				}
			}
		}
	}
}

// TestF16RoundTripExactness pins the binary16 codec on exactly representable
// values and the special cases.
func TestF16RoundTripExactness(t *testing.T) {
	for _, x := range []float32{0, 1, -1, 0.5, 2, 1024, -0.25, 65504, float32(0x1p-14), float32(0x1p-24)} {
		if got := f16to32(f32to16(x)); got != x {
			t.Fatalf("f16 round trip of representable %g = %g", x, got)
		}
	}
	if got := f16to32(f32to16(100000)); !math.IsInf(float64(got), 1) {
		t.Fatalf("overflow should saturate to +Inf, got %g", got)
	}
	if got := f16to32(f32to16(float32(math.NaN()))); !math.IsNaN(float64(got)) {
		t.Fatalf("NaN should survive, got %g", got)
	}
	if got := f16to32(f32to16(1e-10)); got != 0 {
		t.Fatalf("deep underflow should flush to zero, got %g", got)
	}
}

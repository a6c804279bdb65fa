package testkit

import (
	"math"
	"testing"

	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
)

// TestCacheQuantizedReplicaBound trains plans that cache dependencies with
// quantized cached feature rows against the same plan's exact run.
// Quantization perturbs only the cached copies of boundary features (owners
// keep full precision, and partition.RequantizeErrorBound bounds each
// element's storage error), so the end-to-end trajectory may drift but must
// stay within a loose bound that scales with the format's precision: ~1e-2
// relative for fp16 (2⁻¹¹ storage error amplified through 3 epochs of
// training), ~5e-2 for int8 (absmax/254 per element). These bounds are
// empirical for the pinned workload — they document the magnitude of the
// deviation the knob buys, not a universal guarantee. With quantization off,
// every policy stays inside the 1e-5 oracle (TestCrossPolicyEquivalence);
// this test covers the lossy formats on full caching and on a mixed plan.
func TestCacheQuantizedReplicaBound(t *testing.T) {
	ds := SmallDataset(32, 4, 11)
	const epochs = 3
	for _, mode := range []engine.Mode{engine.DepCache, engine.Hybrid} {
		base := engine.Options{
			Model: nn.GCN, Seed: 3, Costs: oracleCosts,
			Workers: 4, Mode: mode,
		}
		label := string(mode)
		exact, err := trainEngine(ds, label+"-exact", base, epochs)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			quant    partition.RepQuant
			lossTol  float64
			paramTol float64
		}{
			{partition.RepQuantFP16, 1e-2, 1e-2},
			{partition.RepQuantInt8, 5e-2, 5e-2},
		} {
			opts := base
			opts.CacheQuant = tc.quant
			name := label + "-" + string(tc.quant)
			run, err := trainEngine(ds, name, opts, epochs)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareRuns(*exact, *run, tc.lossTol, tc.paramTol); err != nil {
				t.Fatalf("%s exceeded its documented bound: %v", name, err)
			}
			// The run must also be deterministic: quantization is a pure
			// function of the stored features, so repeating it reproduces the
			// trajectory bit for bit.
			again, err := trainEngine(ds, name+"-again", opts, epochs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range run.Losses {
				if run.Losses[i] != again.Losses[i] {
					t.Fatalf("%s: nondeterministic loss at epoch %d: %g vs %g",
						name, i+1, run.Losses[i], again.Losses[i])
				}
			}
			if tc.quant != partition.RepQuantInt8 {
				continue
			}
			// int8 is lossy enough that the hook's effect must be visible — a
			// bit-identical trajectory would mean quantization never ran.
			var maxDiff float64
			for i := range run.Losses {
				maxDiff = math.Max(maxDiff, math.Abs(run.Losses[i]-exact.Losses[i]))
			}
			if maxDiff == 0 {
				t.Fatalf("%s left the trajectory bit-identical; the requantization hook did not run", name)
			}
		}
	}
}

package testkit

import (
	"fmt"
	"reflect"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/partition"
)

// planCost sums the exact modeled per-epoch cost of a plan across workers.
func planCost(p *hybrid.Planner, decs []*hybrid.Decision) float64 {
	var total float64
	for w := range decs {
		c, _ := p.EvaluateCost(w, decs[w])
		total += c
	}
	return total
}

// plannerCostRegimes spans the decision space: comm-dominant (everything
// should cache), balanced (genuinely mixed plans), and compute-dominant
// (everything should communicate or go tensor-parallel).
var plannerCostRegimes = []costmodel.Costs{
	{Tv: 1e-9, Te: 1e-10, Tc: 1e-6},
	oracleCosts,
	{Tv: 1e-7, Te: 1e-8, Tc: 1e-9},
}

// threeWayPlannerProperty checks, on one random dataset, that the 3-way plan
// is never worse on modeled cost than any pure policy or the 2-way greedy,
// and that planning twice yields a deeply equal plan (determinism). A
// violating dataset shrinks to a minimal counterexample like any other
// property.
func threeWayPlannerProperty(workers int, sliceTP bool) Property {
	return func(ds *dataset.Dataset) error {
		m := workers
		if n := ds.Graph.NumVertices(); m > n {
			m = n
		}
		part, err := partition.New(partition.Chunk, ds.Graph, m)
		if err != nil {
			return err
		}
		dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
		for _, costs := range plannerCostRegimes {
			p := &hybrid.Planner{
				Graph: ds.Graph, Part: part, Dims: dims,
				Costs: costs, SliceTP: sliceTP,
			}
			plan, err := p.DecideAll(hybrid.ModeHybrid3)
			if err != nil {
				return err
			}
			got := planCost(p, plan)
			for _, pure := range []struct {
				name string
				mode hybrid.Mode
			}{
				{"allcomm", hybrid.ModeAllComm},
				{"allcache", hybrid.ModeAllCache},
				{"alltp", hybrid.ModeAllTP},
				{"greedy", hybrid.ModeHybrid},
			} {
				ref, err := p.DecideAll(pure.mode)
				if err != nil {
					return err
				}
				if c := planCost(p, ref); got > c*(1+1e-12) {
					return fmt.Errorf("costs %+v: 3-way plan modeled cost %.12g exceeds %s's %.12g",
						costs, got, pure.name, c)
				}
			}
			again, err := p.DecideAll(hybrid.ModeHybrid3)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(plan, again) {
				return fmt.Errorf("costs %+v: 3-way planning nondeterministic across runs", costs)
			}
		}
		return nil
	}
}

// TestThreeWayPlannerNeverWorseOnRandomGraphs hunts random graphs for a 3-way
// plan that loses to a pure policy under its own cost model — which would
// mean the candidate argmin is broken — in both TP dataflows.
func TestThreeWayPlannerNeverWorseOnRandomGraphs(t *testing.T) {
	trials := 5
	if FullSweep() {
		trials = 25
	}
	for _, sliceTP := range []bool{true, false} {
		if ce := Check(trials, 0x7F3, GenSpec{MaxVertices: 20}, threeWayPlannerProperty(3, sliceTP)); ce != nil {
			t.Fatalf("planner property violated (sliceTP=%v):\n%s", sliceTP, ce)
		}
	}
}

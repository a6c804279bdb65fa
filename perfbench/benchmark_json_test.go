package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the harness reads,
// in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []entry
		code []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, code %d", len(c.json), len(c.code))
		}
		for i, m := range c.code {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

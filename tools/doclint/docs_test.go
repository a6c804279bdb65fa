package main

import (
	"strings"
	"testing"
)

func lintSnippet(t *testing.T, content string) []string {
	t.Helper()
	return lintDoc("doc.md", content, modeNameSet(), benchFieldSet())
}

func TestDocPolicyCheckAcceptsRegisteredModes(t *testing.T) {
	clean := "Run `nstrain -engine hybrid3` or `nsbench -json B.json -policy deptp,depcache,hybrid3`.\n"
	if ps := lintSnippet(t, clean); len(ps) != 0 {
		t.Fatalf("clean doc flagged: %v", ps)
	}
}

func TestDocPolicyCheckFlagsUnknownMode(t *testing.T) {
	ps := lintSnippet(t, "Use `-engine hybrid5` for the 5-way planner.\n")
	if len(ps) != 1 || !strings.Contains(ps[0], `"hybrid5"`) {
		t.Fatalf("want one hybrid5 problem, got %v", ps)
	}
	// A bad entry hiding inside a comma-separated list is still caught.
	ps = lintSnippet(t, "`nsbench -policy deptp,depwarp`\n")
	if len(ps) != 1 || !strings.Contains(ps[0], `"depwarp"`) {
		t.Fatalf("want one depwarp problem, got %v", ps)
	}
}

func TestDocSchemaCheckValidatesMarkedRegions(t *testing.T) {
	clean := "intro `not_a_field` unchecked outside markers\n" +
		"<!-- doclint:bench-schema -->\n" +
		"| `schema_version` | `wall_median_seconds` | `flips_to_tp` |\n" +
		"| `serving` | `p99_latency_ms` | `crit_path` |\n" +
		"<!-- doclint:end -->\n"
	if ps := lintSnippet(t, clean); len(ps) != 0 {
		t.Fatalf("valid schema region flagged: %v", ps)
	}
	bad := "<!-- doclint:bench-schema -->\n`wall_median_secs` is the median.\n<!-- doclint:end -->\n"
	ps := lintSnippet(t, bad)
	if len(ps) != 1 || !strings.Contains(ps[0], "wall_median_secs") {
		t.Fatalf("want one wall_median_secs problem, got %v", ps)
	}
}

func TestDocSchemaCheckFlagsUnbalancedMarkers(t *testing.T) {
	ps := lintSnippet(t, "<!-- doclint:bench-schema -->\n`runs`\n")
	if len(ps) != 1 || !strings.Contains(ps[0], "marker") {
		t.Fatalf("want one marker problem, got %v", ps)
	}
}

func TestBenchFieldSetCoversNestedTypes(t *testing.T) {
	fields := benchFieldSet()
	for _, f := range []string{
		"schema_version", "runs", "serving", // top level
		"flips_to_tp", "flips_from_tp", // nested ResidualSummary
		"p50_ms", // map-valued StageQuantiles
		"spans",  // obs.CritPath behind a pointer
	} {
		if !fields[f] {
			t.Fatalf("field set is missing %q; reflection walk incomplete", f)
		}
	}
	if fields["not_a_field"] {
		t.Fatal("field set contains a fabricated name")
	}
}

// Doc-to-code cross-checks (the -docs flag): markdown guides drift from the
// code silently, so two contracts are verified mechanically on every CI run.
//
//  1. Flag-to-doc: every value a document passes to -engine (nstrain) or
//     -policy (nsbench) — including comma-separated lists — must name a mode
//     the engine actually registers (engine.ModeNames()). A doc advertising
//     `-engine hybrid5` fails the lint.
//  2. Schema-to-doc: inside regions bracketed by `<!-- doclint:bench-schema -->`
//     and `<!-- doclint:end -->`, every backticked lowercase token must be a
//     JSON field that exists somewhere in the bench.Doc schema (collected by
//     reflection over the struct tags, nested types included). A doc table
//     describing a renamed or misspelled BENCH.json field fails the lint.
package main

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"

	"neutronstar/internal/bench"
	"neutronstar/internal/engine"
)

var (
	// policyFlagRe captures the value(s) handed to -engine or -policy in doc
	// prose and code blocks: `-engine hybrid3`, `-policy deptp,depcache`. The
	// leading guard keeps hyphenated prose ("cross-policy equivalence") from
	// matching: a flag's dash is never preceded by a word character.
	policyFlagRe = regexp.MustCompile("(^|[^A-Za-z0-9])-(?:engine|policy)[ =]([a-z0-9,]+)")
	// schemaOpenRe / schemaCloseRe bracket a schema-checked region.
	schemaOpenRe  = regexp.MustCompile(`<!--\s*doclint:bench-schema\s*-->`)
	schemaCloseRe = regexp.MustCompile(`<!--\s*doclint:end\s*-->`)
	// backtickTokenRe matches a backticked json-field-shaped token.
	backtickTokenRe = regexp.MustCompile("`([a-z][a-z0-9_]*)`")
)

// modeNameSet indexes engine.ModeNames() for membership checks.
func modeNameSet() map[string]bool {
	set := make(map[string]bool)
	for _, m := range engine.ModeNames() {
		set[m] = true
	}
	return set
}

// benchFieldSet collects every JSON field name reachable from bench.Doc,
// recursing through pointers, slices, maps and nested structs.
func benchFieldSet() map[string]bool {
	set := make(map[string]bool)
	seen := make(map[reflect.Type]bool)
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice ||
			t.Kind() == reflect.Map || t.Kind() == reflect.Array {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && name != "-" {
				set[name] = true
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(bench.Doc{}))
	return set
}

// lintDoc runs both cross-checks over one markdown file's contents.
func lintDoc(path, content string, modes, fields map[string]bool) []string {
	var problems []string
	lineOf := func(off int) int { return 1 + strings.Count(content[:off], "\n") }

	for _, m := range policyFlagRe.FindAllStringSubmatchIndex(content, -1) {
		values := content[m[4]:m[5]]
		for _, v := range strings.Split(values, ",") {
			if v != "" && !modes[v] {
				problems = append(problems, fmt.Sprintf(
					"%s:%d: policy %q is not a registered engine mode (have: %s)",
					path, lineOf(m[0]), v, strings.Join(engine.ModeNames(), ", ")))
			}
		}
	}

	opens := schemaOpenRe.FindAllStringIndex(content, -1)
	closes := schemaCloseRe.FindAllStringIndex(content, -1)
	if len(opens) != len(closes) {
		return append(problems, fmt.Sprintf(
			"%s: %d doclint:bench-schema marker(s) but %d doclint:end marker(s)",
			path, len(opens), len(closes)))
	}
	for i, open := range opens {
		close := closes[i]
		if close[0] < open[1] {
			problems = append(problems, fmt.Sprintf(
				"%s:%d: doclint:end before its doclint:bench-schema", path, lineOf(close[0])))
			continue
		}
		region := content[open[1]:close[0]]
		for _, t := range backtickTokenRe.FindAllStringSubmatchIndex(region, -1) {
			tok := region[t[2]:t[3]]
			if !fields[tok] {
				problems = append(problems, fmt.Sprintf(
					"%s:%d: `%s` is not a field of the BENCH.json schema (v%d)",
					path, lineOf(open[1]+t[0]), tok, bench.SchemaVersion))
			}
		}
	}
	return problems
}

// lintDocs runs the cross-checks over every named markdown file.
func lintDocs(paths []string) ([]string, error) {
	modes, fields := modeNameSet(), benchFieldSet()
	var problems []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		problems = append(problems, lintDoc(path, string(data), modes, fields)...)
	}
	return problems, nil
}

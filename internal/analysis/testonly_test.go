package analysis

import (
	"strings"
	"testing"
)

var testOnlyFixtures = []string{"testonly/cmd/tool", "testonly/facade", "testonly/internal/lib"}

func TestTestOnly(t *testing.T) {
	RunTest(t, TestOnlyAnalyzer, testOnlyFixtures...)
}

// A directive on a declaration production code reaches is stale, which is
// what `geomancy-vet -audit` fails on; a load without a root reports
// nothing and leaves every directive stale rather than guessing.
func TestTestOnlyStaleAndPartial(t *testing.T) {
	load := func(fixtures ...string) *Report {
		patterns := make([]string, len(fixtures))
		for i, p := range fixtures {
			patterns[i] = "./testdata/src/" + p
		}
		pkgs, err := Load("", patterns...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := run([]*Analyzer{TestOnlyAnalyzer}, pkgs, false)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := load(testOnlyFixtures...)
	if len(rep.Stale) != 1 || !strings.HasSuffix(rep.Stale[0].Pos.Filename, "lib.go") {
		t.Fatalf("stale directives = %v, want exactly StaleKept's", rep.Stale)
	}
	if len(rep.Suppressed) != 1 || !strings.Contains(rep.Suppressed[0].Message, "lib.Kept") {
		t.Errorf("suppressed findings = %v, want exactly Kept's", rep.Suppressed)
	}
	if rep := load("testonly/internal/lib"); len(rep.Diagnostics) != 0 {
		t.Errorf("a load with no root reported %d findings, want none", len(rep.Diagnostics))
	}
}

func TestTestOnlyScope(t *testing.T) {
	for path, want := range map[string]bool{
		"geomancy/internal/replaydb": true,
		"geomancy":                   false,
		"geomancy/bench":             false,
		"geomancy/cmd/replaydb":      false,
		"geomancy/internal/analysis/testdata/src/testonly/facade":              false,
		"geomancy/internal/analysis/testdata/src/testonly/internal/lib":        true,
		"geomancy/internal/analysis/testdata/src/testonly/cmd/tool":            false,
		"geomancy/internal/analysis/testdata/src/metricnames/internal/x/inner": true,
	} {
		if got := underInternal(path); got != want {
			t.Errorf("underInternal(%q) = %v, want %v", path, got, want)
		}
	}
	if TestOnlyAnalyzer.Filter("geomancy/internal/analysis") || !TestOnlyAnalyzer.Filter("geomancy/internal/mat") {
		t.Error("the analyzer must skip internal/analysis and run on the rest of internal/")
	}
}

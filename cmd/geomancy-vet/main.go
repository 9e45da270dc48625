// Command geomancy-vet runs Geomancy's custom static-analysis suite —
// determinism, rngsource, ctxflow, metricnames, errcompare, locksafe,
// statecheck, testonly — over the module, in the spirit of `go vet` but enforcing
// the repo's own invariants (see DESIGN.md §Enforced invariants).
//
// Usage:
//
//	go run ./cmd/geomancy-vet [flags] [packages]
//
// Findings print one per line as file:line:col: analyzer: message, and
// any finding makes the exit status 1. Sites that are intentionally
// exempt carry //geomancy:nondeterministic <reason> (determinism),
// //geomancy:allow <analyzer> <reason> (any analyzer), or
// //geomancy:ephemeral <reason> (statecheck) on the same or the
// preceding line.
//
// Flags:
//
//	-list    list the analyzers and exit
//	-json    emit the full report — live, suppressed (with directive
//	         reasons), and stale findings — as JSON on stdout
//	-audit   also fail on stale directives: //geomancy:... comments that
//	         no longer suppress anything and should be removed
//	-github  emit GitHub Actions ::error workflow commands alongside the
//	         plain lines, so findings annotate the PR diff (defaults to
//	         on when GITHUB_ACTIONS=true)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"geomancy/internal/analysis"
)

// jsonFinding is one finding in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// Suppressed marks findings a reasoned directive silenced; Reason is
	// the directive's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// jsonReport is the -json document: every live finding, every
// directive-suppressed finding, and every stale directive.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Stale    []jsonFinding `json:"stale,omitempty"`
}

func toJSON(d analysis.Diagnostic, suppressed bool, reason string) jsonFinding {
	return jsonFinding{
		File:       d.Pos.Filename,
		Line:       d.Pos.Line,
		Col:        d.Pos.Column,
		Analyzer:   d.Analyzer,
		Message:    d.Message,
		Suppressed: suppressed,
		Reason:     reason,
	}
}

// githubAnnotation renders a finding as a GitHub Actions workflow
// command, which the runner turns into an inline PR annotation.
func githubAnnotation(d analysis.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::%s: %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit the full report (live, suppressed, stale) as JSON")
	audit := flag.Bool("audit", false, "also fail on stale //geomancy: directives")
	github := flag.Bool("github", os.Getenv("GITHUB_ACTIONS") == "true",
		"emit GitHub Actions ::error annotations alongside plain findings")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: geomancy-vet [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep, err := analysis.RunFull(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failures := rep.Diagnostics
	if *audit {
		failures = append(failures, rep.Stale...)
	}

	if *asJSON {
		doc := jsonReport{Findings: []jsonFinding{}}
		for _, d := range rep.Diagnostics {
			doc.Findings = append(doc.Findings, toJSON(d, false, ""))
		}
		for _, s := range rep.Suppressed {
			doc.Findings = append(doc.Findings, toJSON(s.Diagnostic, true, s.Reason))
		}
		for _, d := range rep.Stale {
			doc.Stale = append(doc.Stale, toJSON(d, false, ""))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range failures {
			fmt.Println(d)
			if *github {
				fmt.Println(githubAnnotation(d))
			}
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "geomancy-vet: %d finding(s)\n", len(failures))
		os.Exit(1)
	}
}

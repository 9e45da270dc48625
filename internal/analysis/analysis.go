// Package analysis is Geomancy's static-analysis suite: eight custom
// analyzers that mechanically enforce the repo's determinism, context,
// metric-naming, error-handling, lock-safety, serialization-coverage, and
// no-test-only-surface invariants, plus the tiny framework they run on.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, facts) but is self-contained on the
// standard library: packages are loaded through `go list -export` (see
// load.go), type-checked with go/types against compiler export data, and
// each analyzer walks the typed ASTs. Packages are analyzed in dependency
// order, and analyzers may export per-object Facts (see facts.go) that
// later passes over importing packages consume — the cross-package layer
// that makes locksafe, ctxflow, and statecheck interprocedural. If the
// module ever takes x/tools as a dependency, each analyzer's Run is a
// mechanical port.
//
// # Escape hatches
//
// Three comment directives suppress a diagnostic on the same line or the
// line immediately below them, and all require a reason:
//
//	//geomancy:nondeterministic <reason>   (determinism analyzer only)
//	//geomancy:allow <analyzer> <reason>   (any analyzer, by name)
//	//geomancy:ephemeral <reason>          (statecheck: field is derived or
//	                                        rebuilt on restore, not serialized)
//
// A directive without a reason does not count: the framework reports the
// bare directive instead, so allowlists stay self-documenting. A
// directive that suppresses nothing is stale; RunFull reports stale
// directives separately and `geomancy-vet -audit` fails on them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer checks one invariant over a package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //geomancy:allow directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Filter restricts the analyzer to packages for which it returns
	// true; nil runs everywhere. The analysistest runner bypasses it so
	// fixtures need not live under the production import paths.
	Filter func(pkgPath string) bool
	// Run analyzes one package, reporting through pass.Reportf. The
	// returned value is handed to Flush after every package ran.
	Run func(pass *Pass) (any, error)
	// Flush, if non-nil, runs once after every package: module-wide
	// checks (e.g. "every declared metric name is used somewhere") that
	// no single package can decide. Its findings must point into one of
	// the analyzed packages; directives there suppress them as usual.
	Flush func(results []Result) []Diagnostic
}

// Result pairs a package with the value its Run returned.
type Result struct {
	Pkg   *Package
	Value any
	pass  *Pass // reports the Flush findings that point into Pkg
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Directive is one parsed //geomancy:... comment.
type Directive struct {
	Line     int    // line the comment sits on
	File     string // file name (full path)
	Kind     string // "nondeterministic", "allow", or "ephemeral"
	Analyzer string // target analyzer ("" for nondeterministic = determinism)
	Reason   string
	Pos      token.Position
	// Used records whether the directive suppressed at least one finding
	// during a run; directives still unused afterwards are stale.
	Used bool
}

// suppresses reports whether the directive covers analyzer a at line.
// A directive covers its own line and the line immediately below it.
func (d *Directive) suppresses(analyzer string, file string, line int) bool {
	if d.File != file || (d.Line != line && d.Line != line-1) {
		return false
	}
	switch d.Kind {
	case "nondeterministic":
		return analyzer == "determinism"
	case "allow":
		return d.Analyzer == analyzer
	case "ephemeral":
		return analyzer == "statecheck"
	}
	return false
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg        *Package
	diags      *[]Diagnostic
	suppressed *[]SuppressedDiagnostic
	store      *factStore
	// bareReported dedupes "directive missing reason" per directive.
	bareReported map[*Directive]bool
}

// matchingDirective returns the directive governing analyzer findings at
// (file, line): a directive on the line itself wins over one on the line
// above, so adjacent annotated lines each consume their own directive
// (otherwise the upper directive would claim both findings and leave the
// lower one spuriously stale).
func (p *Pass) matchingDirective(file string, line int) *Directive {
	var above *Directive
	for i := range p.pkg.Directives {
		d := &p.pkg.Directives[i]
		if !d.suppresses(p.Analyzer.Name, file, line) {
			continue
		}
		if d.Line == line {
			return d
		}
		if above == nil {
			above = d
		}
	}
	return above
}

// Reportf records a diagnostic at pos unless a directive allowlists the
// site. A matching directive with no reason suppresses the original
// diagnostic but is itself reported once, so it cannot hide findings
// silently.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// report is Reportf for an already-resolved position: the entry point of
// a Flush pass's findings, which carry positions, not token.Pos.
func (p *Pass) report(position token.Position, message string) {
	if d := p.matchingDirective(position.Filename, position.Line); d != nil {
		d.Used = true
		if p.suppressed != nil {
			*p.suppressed = append(*p.suppressed, SuppressedDiagnostic{
				Diagnostic: Diagnostic{
					Pos:      position,
					Analyzer: p.Analyzer.Name,
					Message:  message,
				},
				Reason: d.Reason,
			})
		}
		if d.Reason == "" && !p.bareReported[d] {
			p.bareReported[d] = true
			*p.diags = append(*p.diags, Diagnostic{
				Pos:      d.Pos,
				Analyzer: p.Analyzer.Name,
				Message:  fmt.Sprintf("//geomancy:%s directive is missing a reason", d.Kind),
			})
		}
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  message,
	})
}

// allowlisted reports whether a reasoned directive covers this
// analyzer's findings at pos, marking the directive used. Analyzers
// consult it when deriving facts from a site whose finding a human
// already reviewed — locksafe, for example, does not propagate a
// netIOFact out of an allowlisted I/O call, so one reviewed leaf does
// not re-flag every transitive caller. Bare directives (no reason) do
// not count: they are findings themselves.
func (p *Pass) allowlisted(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	for i := range p.pkg.Directives {
		d := &p.pkg.Directives[i]
		if d.Reason != "" && d.suppresses(p.Analyzer.Name, position.Filename, position.Line) {
			d.Used = true
			return true
		}
	}
	return false
}

// All returns the full Geomancy analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		RngSourceAnalyzer,
		CtxflowAnalyzer,
		MetricNamesAnalyzer,
		ErrCompareAnalyzer,
		LockSafeAnalyzer,
		StateCheckAnalyzer,
		TestOnlyAnalyzer,
	}
}

// SuppressedDiagnostic is a finding a reasoned directive silenced: still
// worth surfacing in machine-readable reports, so allowlists stay
// auditable without failing the run.
type SuppressedDiagnostic struct {
	Diagnostic
	// Reason is the directive's justification text.
	Reason string
}

// Report is the complete outcome of one analysis run.
type Report struct {
	// Diagnostics are the live findings, sorted by position; a non-empty
	// slice means the run failed.
	Diagnostics []Diagnostic
	// Suppressed are findings silenced by reasoned directives.
	Suppressed []SuppressedDiagnostic
	// Stale are //geomancy:... directives that suppressed nothing: each is
	// an "audit" diagnostic pointing at the directive. `geomancy-vet
	// -audit` turns these into failures.
	Stale []Diagnostic
}

// Run applies every analyzer to every package (honoring Filters), then
// the module-wide Flush passes, and returns the diagnostics sorted by
// position. The error reports analyzer crashes, not findings.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	rep, err := RunFull(analyzers, pkgs)
	if rep == nil {
		return nil, err
	}
	return rep.Diagnostics, err
}

// RunUnfiltered is Run with every Filter bypassed — the analysistest
// entry point, so fixture packages need not mimic production paths.
func RunUnfiltered(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	rep, err := run(analyzers, pkgs, false)
	if rep == nil {
		return nil, err
	}
	return rep.Diagnostics, err
}

// RunFull is Run returning the complete Report: live findings, suppressed
// findings with their directive reasons, and stale directives.
func RunFull(analyzers []*Analyzer, pkgs []*Package) (*Report, error) {
	return run(analyzers, pkgs, true)
}

func run(analyzers []*Analyzer, pkgs []*Package, useFilter bool) (*Report, error) {
	rep := &Report{}
	store := newFactStore()
	results := make(map[*Analyzer][]Result)
	// pkgs arrive in dependency order (see Load), so when a package is
	// analyzed every fact its dependencies exported is already in store.
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if useFilter && a.Filter != nil && !a.Filter(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer:     a,
				Fset:         pkg.Fset,
				Files:        pkg.Files,
				Pkg:          pkg.Types,
				TypesInfo:    pkg.TypesInfo,
				pkg:          pkg,
				diags:        &rep.Diagnostics,
				suppressed:   &rep.Suppressed,
				store:        store,
				bareReported: make(map[*Directive]bool),
			}
			value, err := a.Run(pass)
			if err != nil {
				return rep, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			results[a] = append(results[a], Result{Pkg: pkg, Value: value, pass: pass})
		}
	}
	// A Flush finding goes through the pass of the package it points into,
	// so directives suppress it — and go stale — like any other finding.
	for _, a := range analyzers {
		if a.Flush == nil {
			continue
		}
		for _, d := range a.Flush(results[a]) {
			for _, r := range results[a] {
				if r.Pkg.Dir == filepath.Dir(d.Pos.Filename) {
					r.pass.report(d.Pos, d.Message)
				}
			}
		}
	}
	rep.Stale = staleDirectives(pkgs)
	sortDiags(rep.Diagnostics)
	sortDiags(rep.Stale)
	return rep, nil
}

// staleDirectives collects directives no Reportf call used during the
// run just finished. Bare directives are excluded: they already produce a
// "missing a reason" finding, and double-reporting them helps nobody.
func staleDirectives(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for i := range pkg.Directives {
			d := &pkg.Directives[i]
			if d.Used || d.Reason == "" {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      d.Pos,
				Analyzer: "audit",
				Message:  fmt.Sprintf("stale //geomancy:%s directive: it no longer suppresses any finding; remove it", d.Kind),
			})
		}
	}
	return out
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// parseDirectives extracts //geomancy:... comments from a parsed file.
func parseDirectives(fset *token.FileSet, f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//geomancy:")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			// Fixtures may carry a trailing "// want ..." expectation in
			// the same comment; it is not part of the directive.
			if i := strings.Index(text, "// want"); i >= 0 {
				text = text[:i]
			}
			kind, rest, _ := strings.Cut(text, " ")
			d := Directive{
				Line: pos.Line,
				File: pos.Filename,
				Kind: kind,
				Pos:  pos,
			}
			switch kind {
			case "nondeterministic", "ephemeral":
				d.Reason = strings.TrimSpace(rest)
			case "allow":
				d.Analyzer, d.Reason, _ = strings.Cut(strings.TrimSpace(rest), " ")
				d.Reason = strings.TrimSpace(d.Reason)
			default:
				continue // unknown directive family; not ours to police
			}
			out = append(out, d)
		}
	}
	return out
}

// --- shared type-resolution helpers used by several analyzers ---

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for dynamic calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgLevelFunc reports whether fn is the package-level function
// pkgPath.name (not a method).
func isPkgLevelFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() == nil
}

// receiverType returns the receiver type of a method, or nil.
func receiverType(fn *types.Func) types.Type {
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// typeIsFromPkg reports whether t (after unwrapping pointers) is a named
// type declared in package pkgPath, optionally with one of the names.
func typeIsFromPkg(t types.Type, pkgPath string, names ...string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, name := range names {
		if n.Obj().Name() == name {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is the error interface or implements it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if t.String() == "error" {
		return true
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return typeIsFromPkg(t, "context", "Context")
}

// enclosingFuncName formats a FuncDecl's name as Recv.Name or Name.
func enclosingFuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	var b strings.Builder
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		b.WriteString(id.Name)
		b.WriteByte('.')
	}
	b.WriteString(fd.Name.Name)
	return b.String()
}

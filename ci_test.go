package geomancy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameTests: every `go test` command of the CI workflow
// selects tests that exist. Each -run pattern is split into its top-level
// alternatives, anchors and parentheses removed, and every alternative
// must match a Test, Fuzz or Example function declared in the _test.go
// files of the packages the command names; a renamed or deleted test
// would otherwise leave its CI step passing while it runs nothing. A
// command that fuzzes or benchmarks uses -run only to deselect, so there
// the -fuzz target must name a Fuzz function instead.
func TestCIPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for n, line := range strings.Split(string(data), "\n") {
		at := strings.Index(line, "go test ")
		if at < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		commands++
		flags, pkgs := parseGoTest(line[at+len("go test "):])
		names := testFuncs(t, pkgs)
		check := func(flag, prefix string) {
			for _, alt := range alternatives(flags[flag]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s alternative %q: %v", n+1, flag, alt, err)
					continue
				}
				if !matchesAny(re, names, prefix) {
					t.Errorf("ci.yml:%d: %s alternative %q matches no test function in %v", n+1, flag, alt, pkgs)
				}
			}
		}
		switch {
		case flags["-fuzz"] != "":
			check("-fuzz", "Fuzz")
		case flags["-bench"] != "":
		case flags["-run"] != "":
			check("-run", "")
		}
	}
	if commands == 0 {
		t.Fatal("ci.yml holds no go test command")
	}
}

// parseGoTest returns the flags (each flag's value, "" for a bare one) and
// the package patterns of the arguments of one `go test` command line.
func parseGoTest(args string) (map[string]string, []string) {
	var tokens []string
	for i, part := range strings.Split(args, "'") {
		if i%2 == 1 {
			tokens = append(tokens, part) // a quoted argument
		} else {
			tokens = append(tokens, strings.Fields(part)...)
		}
	}
	flags := make(map[string]string)
	var pkgs []string
	for i := 0; i < len(tokens); i++ {
		tok := tokens[i]
		switch {
		case tok == "." || strings.HasPrefix(tok, "./"):
			pkgs = append(pkgs, tok)
		case strings.HasPrefix(tok, "-"):
			name, value, ok := strings.Cut(tok, "=")
			if !ok && i+1 < len(tokens) && takesValue[name] {
				i++
				value = tokens[i]
			}
			flags[name] = value
		}
	}
	return flags, pkgs
}

// takesValue lists the go test flags whose value may follow as the next
// argument.
var takesValue = map[string]bool{"-run": true, "-fuzz": true, "-fuzztime": true, "-bench": true, "-benchtime": true, "-tags": true, "-count": true}

// alternatives splits a -run or -fuzz pattern into its top-level
// alternatives, with the anchors and parentheses removed. Of a pattern
// with subtest levels only the top level is kept.
func alternatives(pattern string) []string {
	pattern, _, _ = strings.Cut(pattern, "/")
	pattern = strings.TrimSuffix(strings.TrimPrefix(pattern, "^"), "$")
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts, start = append(alts, pattern[start:i]), i+1
			}
		}
	}
	if start == 0 && strings.HasPrefix(pattern, "(") && strings.HasSuffix(pattern, ")") {
		return alternatives(pattern[1 : len(pattern)-1])
	}
	alts = append(alts, pattern[start:])
	strip := strings.NewReplacer("^", "", "$", "", "(", "", ")", "")
	for i, alt := range alts {
		alts[i] = strip.Replace(alt)
	}
	return alts
}

// matchesAny reports whether re matches one of names that has prefix.
func matchesAny(re *regexp.Regexp, names []string, prefix string) bool {
	for _, name := range names {
		if strings.HasPrefix(name, prefix) && re.MatchString(name) {
			return true
		}
	}
	return false
}

// testFuncs returns the Test, Fuzz and Example functions declared in the
// _test.go files of the packages pkgs names, "./..." naming every package
// of the module (testdata and hidden directories left out, as go test
// leaves them out).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	parseDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				for _, prefix := range []string{"Test", "Fuzz", "Example"} {
					if strings.HasPrefix(fn.Name.Name, prefix) {
						names = append(names, fn.Name.Name)
					}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		if !recursive {
			parseDir(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if base := d.Name(); path != dir && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			parseDir(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

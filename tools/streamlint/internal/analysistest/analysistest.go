// Package analysistest runs a streamlint analyzer over GOPATH-style fixture
// packages and checks its diagnostics against `// want "regexp"` comment
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line may carry one or more expectations:
//
//	for k := range m { // want `keys .* consumed without sorting`
//
// Each quoted (or backquoted) string is a regular expression that must match
// the message of exactly one diagnostic reported on that line; diagnostics
// with no matching expectation, and expectations with no matching
// diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"streamgnn/tools/streamlint/internal/analysis"
	"streamgnn/tools/streamlint/internal/load"
)

// expectation is one `// want` pattern anchored to a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture package from root (a testdata/src directory), runs
// the analyzer over it, and reports any mismatch between diagnostics and
// expectations as test errors.
func Run(t *testing.T, root string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, path := range pkgPaths {
		pkg, fset, err := load.Fixture(root, path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, path, err)
		}
		expects, err := expectations(fset, pkg.Files)
		if err != nil {
			t.Fatalf("parsing want comments in %s: %v", path, err)
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if !claim(expects, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
			}
		}
	}
}

// RunProgram loads the fixture packages (plus any fixture dependencies they
// import) as one program, runs the whole-program analyzer once over it, and
// checks diagnostics against the `// want` expectations of every loaded
// fixture file — dependency fixtures included, so cross-package cases can
// anchor expectations in either package.
func RunProgram(t *testing.T, root string, a *analysis.ProgramAnalyzer, pkgPaths ...string) {
	t.Helper()
	pkgs, fset, err := load.FixtureProgram(root, pkgPaths...)
	if err != nil {
		t.Fatalf("loading fixture program %v: %v", pkgPaths, err)
	}
	var units []*analysis.Unit
	var files []*ast.File
	for _, p := range pkgs {
		units = append(units, p.Unit())
		files = append(files, p.Files...)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.ProgramPass{
		Analyzer: a,
		Fset:     fset,
		Units:    units,
		Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on %v: %v", a.Name, pkgPaths, err)
	}
	expects, err := expectations(fset, files)
	if err != nil {
		t.Fatalf("parsing want comments in %v: %v", pkgPaths, err)
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// claim marks the first unmatched expectation on (file, line) whose pattern
// matches msg, reporting whether one existed.
func claim(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// expectations extracts every `// want` comment from the files.
func expectations(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				patterns, err := splitPatterns(text)
				if err != nil {
					return nil, fmt.Errorf("%s: %v", pos, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: bad pattern %q: %v", pos, p, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

// splitPatterns parses a sequence of space-separated quoted or backquoted
// strings.
func splitPatterns(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want pattern must be quoted: %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated pattern: %q", s)
		}
		raw := s[:end+2]
		unquoted, err := strconv.Unquote(raw)
		if err != nil {
			return nil, fmt.Errorf("bad pattern %s: %v", raw, err)
		}
		out = append(out, unquoted)
		s = s[end+2:]
	}
}

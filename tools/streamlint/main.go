// Command streamlint is the repository's invariant checker: a multichecker
// over eight repo-specific analyzers built on the stdlib-only analysis
// scaffolding in internal/analysis — the offline build environment cannot
// vendor golang.org/x/tools, so streamlint carries a miniature of its API
// instead. Four analyzers check one package at a time (detorder, poolsafe,
// ckptstate, atomalign); four reason over the whole program through the
// interprocedural call graph in internal/callgraph (lockfree, snapimmut,
// atommix, unreached). unreached also loads the benchmarks module beside the
// repository, whose references into it count as calls.
//
// Two modes:
//
//	go run ./tools/streamlint [-json] ./...   # standalone, over package patterns
//	go vet -vettool=$(which streamlint)       # unit-checker protocol under cmd/go
//
// Standalone mode resolves patterns with `go list -deps -export` and
// type-checks targets against build-cache export data, so it needs no
// network and no pre-installed archives; the whole-program analyzers see
// every matched package at once. Vettool mode implements the cmd/go JSON
// config protocol (-V=full, -flags, then one *.cfg per package unit), which
// also covers _test.go files; there the whole-program analyzers see a
// single-unit program, so their cross-package edges are absent, and
// unreached, which needs the whole program, reports nothing — the standalone
// run is the CI gate for those.
//
// -json additionally writes the diagnostics to stdout as a JSON array of
// {file, line, col, analyzer, message, chain} objects (sorted like the
// human output), for diffable CI artifacts.
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics reported.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"streamgnn/tools/streamlint/internal/analysis"
	"streamgnn/tools/streamlint/internal/checks/atomalign"
	"streamgnn/tools/streamlint/internal/checks/atommix"
	"streamgnn/tools/streamlint/internal/checks/ckptstate"
	"streamgnn/tools/streamlint/internal/checks/detorder"
	"streamgnn/tools/streamlint/internal/checks/lockfree"
	"streamgnn/tools/streamlint/internal/checks/poolsafe"
	"streamgnn/tools/streamlint/internal/checks/snapimmut"
	"streamgnn/tools/streamlint/internal/checks/unreached"
	"streamgnn/tools/streamlint/internal/load"
)

// analyzers is the per-package streamlint suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	detorder.Analyzer,
	poolsafe.Analyzer,
	ckptstate.Analyzer,
	atomalign.Analyzer,
}

// programAnalyzers is the whole-program suite: each Run sees every loaded
// unit at once.
var programAnalyzers = []*analysis.ProgramAnalyzer{
	lockfree.Analyzer,
	snapimmut.Analyzer,
	atommix.Analyzer,
	unreached.Analyzer,
}

func main() {
	args := os.Args[1:]
	// cmd/go probes the vettool twice before use: -V=full for the content
	// ID, -flags for the analyzer flags it may forward.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Printf("streamlint version 1 buildID=streamlint-determinism-suite-v2\n")
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && args[0] == "-help" {
		usage(os.Stdout)
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(args[0]))
	}
	jsonOut := false
	var patterns []string
	for _, a := range args {
		if a == "-json" {
			jsonOut = true
			continue
		}
		patterns = append(patterns, a)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(standalone(patterns, jsonOut))
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: streamlint [-json] [packages]   (or as go vet -vettool)\n\nper-package analyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nwhole-program analyzers:\n")
	for _, a := range programAnalyzers {
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, a.Doc)
	}
}

// runAll applies every per-package analyzer to one package and returns its
// diagnostics.
func runAll(fset *token.FileSet, pkg *load.Package) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	return diags, nil
}

// runProgram applies every whole-program analyzer to the loaded units.
func runProgram(fset *token.FileSet, pkgs []*load.Package) ([]analysis.Diagnostic, error) {
	units := make([]*analysis.Unit, 0, len(pkgs))
	for _, p := range pkgs {
		units = append(units, p.Unit())
	}
	var diags []analysis.Diagnostic
	for _, a := range programAnalyzers {
		pass := &analysis.ProgramPass{
			Analyzer: a,
			Fset:     fset,
			Units:    units,
			Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	return diags, nil
}

// sortDiags orders diagnostics in the canonical file:line:col order.
func sortDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// print writes diagnostics in the canonical file:line:col form, sorted by
// position, and returns how many there were.
func print(fset *token.FileSet, diags []analysis.Diagnostic) int {
	sortDiags(fset, diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return len(diags)
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

// printJSON writes the sorted diagnostics to stdout as a JSON array (always
// an array, [] when clean, so CI diffs are stable).
func printJSON(fset *token.FileSet, diags []analysis.Diagnostic) error {
	sortDiags(fset, diags)
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		out = append(out, jsonDiagnostic{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Chain:    d.Chain,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// standalone loads package patterns and checks them all.
func standalone(patterns []string, jsonOut bool) int {
	pkgs, fset, err := load.Packages("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamlint:", err)
		return 1
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := runAll(fset, pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "streamlint:", err)
			return 1
		}
		diags = append(diags, ds...)
	}
	ds, err := runProgram(fset, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamlint:", err)
		return 1
	}
	diags = append(diags, ds...)
	if jsonOut {
		if err := printJSON(fset, diags); err != nil {
			fmt.Fprintln(os.Stderr, "streamlint:", err)
			return 1
		}
	}
	if print(fset, diags) > 0 {
		return 2
	}
	return 0
}

// vetConfig mirrors the JSON configuration cmd/go hands a vettool for each
// package unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitCheck analyzes one cmd/go vet unit. The whole-program analyzers run
// over a single-unit program here: intra-package chains are still caught,
// cross-package ones need the standalone mode.
func unitCheck(cfgPath string) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "streamlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// cmd/go requires the facts file regardless of findings; streamlint
	// analyzers exchange no facts, so an empty file suffices.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "streamlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "streamlint:", err)
			return 1
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: imp, Error: func(error) {}}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := analysis.NewInfo()
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "streamlint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	pkg := &load.Package{Path: cfg.ImportPath, Files: files, Types: tpkg, Info: info}
	diags, err := runAll(fset, pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamlint:", err)
		return 1
	}
	pds, err := runProgram(fset, []*load.Package{pkg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamlint:", err)
		return 1
	}
	diags = append(diags, pds...)
	if print(fset, diags) > 0 {
		return 2
	}
	return 0
}

// Package load type-checks Go packages for streamlint without any
// dependency beyond the standard library and the go command. Two loaders
// are provided:
//
//   - Packages resolves package patterns with `go list -deps -export`,
//     parses the target packages from source, and satisfies every import —
//     standard library and intra-module alike — from the compiler export
//     data the go command materialized in the build cache. This works fully
//     offline and never type-checks a dependency from source.
//
//   - Fixture loads GOPATH-style fixture trees for analysistest: imports
//     resolve against the fixture root first and fall back to export data
//     for the standard library.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"streamgnn/tools/streamlint/internal/analysis"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Unit returns p as a unit of a whole-program pass.
func (p *Package) Unit() *analysis.Unit {
	return &analysis.Unit{Path: p.Path, Files: p.Files, Pkg: p.Types, Info: p.Info}
}

type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
}

const listFields = "ImportPath,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly"

// goList runs `go list -deps -export -json` over args and decodes the
// package stream.
func goList(dir string, args []string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=" + listFields}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies imports from a path→export-file map using the
// standard library's gc importer.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Packages loads and type-checks the packages matching patterns (resolved
// relative to dir; empty dir means the current directory).
func Packages(dir string, patterns []string) ([]*Package, *token.FileSet, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string)
	var targets []listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			// Cgo packages cannot be parsed as plain Go; none exist in this
			// repository, so skipping is safer than mis-typechecking.
			continue
		}
		files, err := parseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		pkg, info, err := check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{Path: t.ImportPath, Files: files, Types: pkg, Info: info})
	}
	return out, fset, nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := analysis.NewInfo()
	pkg, _ := conf.Check(path, fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return pkg, info, nil
}

// ---- fixture loading (analysistest) ----

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

// stdlibExports materializes export data for the standard-library packages
// fixtures may import. One `go list std` covers them all; the result is
// cached for the life of the test process.
func stdlibExports() (map[string]string, error) {
	stdExportsOnce.Do(func() {
		pkgs, err := goList("", []string{"std"})
		if err != nil {
			stdExportsErr = err
			return
		}
		stdExports = make(map[string]string, len(pkgs))
		for _, p := range pkgs {
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	return stdExports, stdExportsErr
}

// fixtureImporter resolves imports against a GOPATH-style fixture tree
// first, then against standard-library export data.
type fixtureImporter struct {
	root   string // the testdata/src directory
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*Package
}

// Import implements types.Importer.
func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, err := fi.load(path); err != nil {
		return nil, err
	} else if p != nil {
		return p.Types, nil
	}
	return fi.std.Import(path)
}

// load parses and type-checks the fixture package at root/path, or returns
// (nil, nil) when no such directory exists.
func (fi *fixtureImporter) load(path string) (*Package, error) {
	if p, ok := fi.loaded[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil // not a fixture package; caller falls back to stdlib
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil
	}
	files, err := parseFiles(fi.fset, dir, names)
	if err != nil {
		return nil, err
	}
	pkg, info, err := check(fi.fset, path, files, fi)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	p := &Package{Path: path, Files: files, Types: pkg, Info: info}
	fi.loaded[path] = p
	return p, nil
}

// Fixture loads the fixture package at root/<path> (root is a GOPATH-style
// src directory, typically testdata/src).
func Fixture(root, path string) (*Package, *token.FileSet, error) {
	pkgs, fset, err := FixtureProgram(root, path)
	if err != nil {
		return nil, nil, err
	}
	return pkgs[0], fset, nil
}

// FixtureProgram loads the fixture packages at root/<paths> plus every
// fixture dependency they pulled in, as one program sharing a FileSet —
// the whole-program analyzers need all units at once. The requested
// packages come first in request order; dependencies follow sorted by
// import path.
func FixtureProgram(root string, paths ...string) ([]*Package, *token.FileSet, error) {
	std, err := stdlibExports()
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	fi := &fixtureImporter{root: root, fset: fset, std: exportImporter(fset, std), loaded: make(map[string]*Package)}
	var out []*Package
	requested := make(map[string]bool, len(paths))
	for _, path := range paths {
		p, err := fi.load(path)
		if err != nil {
			return nil, nil, err
		}
		if p == nil {
			return nil, nil, fmt.Errorf("no fixture package at %s", filepath.Join(root, path))
		}
		requested[path] = true
		out = append(out, p)
	}
	var deps []string
	for path := range fi.loaded {
		if !requested[path] {
			deps = append(deps, path)
		}
	}
	sort.Strings(deps)
	for _, path := range deps {
		out = append(out, fi.loaded[path])
	}
	return out, fset, nil
}

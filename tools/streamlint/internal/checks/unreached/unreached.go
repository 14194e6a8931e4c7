// Package unreached holds non-test code to one rule: it is code a binary
// runs. A function or interface method declared in a package under an
// internal/ directory that no root reaches through the whole-program call
// graph (internal/callgraph: CHA for interface calls, references counted as
// calls) is reported, to be deleted or moved into the _test.go file that
// uses it.
//
// The roots are:
//   - main of every main package, and every package's initialization (its
//     init functions and package-level var initializers, where registries of
//     constructors live);
//   - every exported function and method of a public package (a non-main
//     package outside internal/), promoted methods and the methods of an
//     internal type an exported alias names included: the module's API;
//   - methods that satisfy a standard-library interface whose methods the
//     standard library calls on the program's behalf (rand.Source, error,
//     fmt.Stringer, http.Handler, sort.Interface, heap.Interface,
//     json.Marshaler, json.Unmarshaler, types.Importer);
//   - every function of the external units the analyzer is built with: for
//     the repository, the benchmarks module, a module of its own whose
//     references into this one count as calls;
//   - declarations exempt from the check: a doc comment with a
//     `Deprecated:` paragraph (a shim kept for an external caller), a
//     package named *test (test support), and `//streamlint:unreached-ok
//     <reason>` on the declaration (the reason must be non-empty).
//
// The check judges only a whole program: one with a main package, whose
// units import no package of their own module (the same first path element)
// that was left out of the pass. One package checked alone, as under the
// vettool protocol, or a slice of the module such as ./internal/... is not
// judged.
package unreached

import (
	"errors"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"streamgnn/tools/streamlint/internal/analysis"
	"streamgnn/tools/streamlint/internal/callgraph"
	"streamgnn/tools/streamlint/internal/load"
)

// Analyzer is the repository's unreached check; the benchmarks module at the
// module root is its external root set.
var Analyzer = New(benchmarkUnits)

const exempt = "unreached-ok"

// New returns an unreached analyzer whose external roots are every function
// of the units that external loads (nil units: none).
func New(external func() ([]*analysis.Unit, error)) *analysis.ProgramAnalyzer {
	return &analysis.ProgramAnalyzer{
		Name: "unreached",
		Doc:  "functions under internal/ must be reached from a main, an init, the public API, a standard-library interface or the benchmarks module",
		Run: func(pass *analysis.ProgramPass) error {
			if !whole(pass.Units) {
				return nil
			}
			ext, err := external()
			if err != nil {
				return err
			}
			run(pass, ext)
			return nil
		},
	}
}

// whole reports whether units are a whole program (see the package doc).
func whole(units []*analysis.Unit) bool {
	loaded := make(map[string]bool, len(units))
	roots := make(map[string]bool)
	hasMain := false
	for _, u := range units {
		loaded[u.Path] = true
		roots[firstElem(u.Path)] = true
		hasMain = hasMain || u.Pkg.Name() == "main"
	}
	for _, u := range units {
		for _, imp := range u.Pkg.Imports() {
			if roots[firstElem(imp.Path())] && !loaded[imp.Path()] {
				return false
			}
		}
	}
	return hasMain
}

func firstElem(path string) string {
	first, _, _ := strings.Cut(path, "/")
	return first
}

// benchmarkUnits loads the non-test packages of the benchmarks module at the
// root of the module that holds the working directory, or none when there
// is no such module.
func benchmarkUnits() ([]*analysis.Unit, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, nil
		}
		dir = parent
	}
	bench := filepath.Join(dir, "benchmarks")
	if _, err := os.Stat(filepath.Join(bench, "go.mod")); errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	pkgs, _, err := load.Packages(bench, []string{"./..."})
	if err != nil {
		return nil, err
	}
	units := make([]*analysis.Unit, 0, len(pkgs))
	for _, p := range pkgs {
		units = append(units, p.Unit())
	}
	return units, nil
}

func run(pass *analysis.ProgramPass, external []*analysis.Unit) {
	all := append(append([]*analysis.Unit{}, pass.Units...), external...)
	graph := callgraph.Build(all)
	isExternal := make(map[*analysis.Unit]bool, len(external))
	for _, u := range external {
		isExternal[u] = true
	}

	var roots []*callgraph.Node
	root := func(fn *types.Func) {
		if n := graph.NodeOf(fn); n != nil {
			roots = append(roots, n)
		}
	}
	for _, u := range all {
		roots = append(roots, graph.InitNode(u))
		public := u.Pkg.Name() != "main" && !isInternal(u.Path)
		rootAll := isExternal[u] || strings.HasSuffix(u.Pkg.Name(), "test")
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := u.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if rootAll || exempted(pass, d.Doc, d.Pos()) ||
						(u.Pkg.Name() == "main" && d.Recv == nil && d.Name.Name == "main") ||
						(public && d.Name.IsExported()) {
						root(fn)
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						obj, _ := u.Info.Defs[spec.(*ast.TypeSpec).Name].(*types.TypeName)
						if obj == nil || types.IsInterface(obj.Type()) {
							continue
						}
						ms := types.NewMethodSet(types.NewPointer(types.Unalias(obj.Type())))
						if !obj.IsAlias() {
							// An alias's methods are its target's, judged
							// where the target is declared.
							for _, fn := range stdlibCalled(ms) {
								root(fn)
							}
						}
						if public && obj.Exported() {
							// Methods promoted from embedded internal types,
							// and those of an internal type a public alias
							// names, are part of the public API.
							for i := 0; i < ms.Len(); i++ {
								if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
									root(fn)
								}
							}
						}
					}
				}
			}
		}
	}

	reached := make(map[*callgraph.Node]bool, len(roots))
	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[n] {
			continue
		}
		reached[n] = true
		for _, e := range n.Out {
			if !reached[e.Callee] {
				roots = append(roots, e.Callee)
			}
		}
	}

	for _, u := range pass.Units {
		if !isInternal(u.Path) || strings.HasSuffix(u.Pkg.Name(), "test") {
			continue
		}
		for _, f := range u.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := u.Info.Defs[d.Name].(*types.Func)
					if fn == nil || d.Name.Name == "_" || d.Name.Name == "init" {
						continue
					}
					if !reached[graph.NodeOf(fn)] && !exempted(pass, d.Doc, d.Pos()) {
						pass.Reportf(d.Name.Pos(), "%s is reached from no main, init, public API, standard-library interface or benchmark: delete it, or move it into the _test.go file that uses it", fn.FullName())
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || exempted(pass, d.Doc, d.Pos()) || exempted(pass, ts.Doc, ts.Pos()) {
							continue
						}
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							reportMethods(pass, u, graph, reached, it)
						}
					}
				}
			}
		}
	}
}

// reportMethods reports the methods an interface declares that no call or
// reference a root reaches selects.
func reportMethods(pass *analysis.ProgramPass, u *analysis.Unit, graph *callgraph.Graph, reached map[*callgraph.Node]bool, it *ast.InterfaceType) {
	for _, m := range it.Methods.List {
		for _, name := range m.Names {
			fn, _ := u.Info.Defs[name].(*types.Func)
			if fn == nil || exempted(pass, m.Doc, m.Pos()) {
				continue
			}
			if n := graph.NodeOf(fn); n == nil || !reached[n] {
				pass.Reportf(name.Pos(), "interface method %s is called and referenced nowhere a root reaches: delete it with its implementations", fn.FullName())
			}
		}
	}
}

// isInternal reports whether an import path has an internal element.
func isInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// exempted reports whether a declaration is a Deprecated: shim or carries a
// justified unreached-ok directive.
func exempted(pass *analysis.ProgramPass, doc *ast.CommentGroup, pos token.Pos) bool {
	if doc != nil && strings.Contains(doc.Text(), "Deprecated:") {
		return true
	}
	return pass.Directive(pos, exempt)
}

// stdlibInterfaces lists the standard-library interfaces whose methods the
// standard library calls on values the program hands it, each as method
// name → signature (see shape).
var stdlibInterfaces = []map[string]string{
	{"Int63": "()int64", "Seed": "(int64)"},                        // math/rand.Source
	{"Error": "()string"},                                          // error
	{"String": "()string"},                                         // fmt.Stringer
	{"ServeHTTP": "(net/http.ResponseWriter,*net/http.Request)"},   // net/http.Handler
	{"Len": "()int", "Less": "(int,int)bool", "Swap": "(int,int)"}, // sort.Interface
	{"Len": "()int", "Less": "(int,int)bool", "Swap": "(int,int)", "Push": "(interface{})", "Pop": "()interface{}"}, // container/heap.Interface
	{"MarshalJSON": "()([]byte,error)"},             // encoding/json.Marshaler
	{"UnmarshalJSON": "([]byte)error"},              // encoding/json.Unmarshaler
	{"Import": "(string)(*go/types.Package,error)"}, // go/types.Importer
}

// stdlibCalled returns the methods of ms that implement one of
// stdlibInterfaces.
func stdlibCalled(ms *types.MethodSet) []*types.Func {
	have := make(map[string]*types.Func, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		if fn, ok := ms.At(i).Obj().(*types.Func); ok {
			have[fn.Name()] = fn
		}
	}
	var out []*types.Func
	for _, iface := range stdlibInterfaces {
		covered := true
		for name, sig := range iface {
			fn := have[name]
			if fn == nil || shape(fn.Type().(*types.Signature)) != sig {
				covered = false
				break
			}
		}
		if covered {
			for name := range iface {
				out = append(out, have[name])
			}
		}
	}
	return out
}

// shape writes a signature's parameter and result types without names,
// aliases resolved: "(int,int)bool", "()([]byte,error)".
func shape(sig *types.Signature) string {
	list := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.Unalias(t.At(i).Type()).String()
		}
		return strings.Join(parts, ",")
	}
	s := "(" + list(sig.Params()) + ")"
	switch sig.Results().Len() {
	case 0:
	case 1:
		s += list(sig.Results())
	default:
		s += "(" + list(sig.Results()) + ")"
	}
	return s
}

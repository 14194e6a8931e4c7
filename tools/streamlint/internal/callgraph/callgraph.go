// Package callgraph builds a whole-program call graph over the units of a
// streamlint ProgramPass, in the CHA (class-hierarchy analysis) style:
// static calls resolve to their one callee, interface method calls fan out
// to the matching method of every named type in the program whose method
// set covers the interface. The graph is deliberately an over-approximation
// — CHA ignores which concrete types actually reach a call site — because
// the analyzers built on it (lockfree, snapimmut) enforce safety
// invariants, where false edges cost a review and missing edges cost a
// race.
//
// Nodes are keyed by types.Func.FullName() strings rather than *types.Func
// identity: the standalone loader type-checks each target package from
// source but resolves its imports from compiler export data, so the same
// function is represented by distinct objects in different type-checker
// universes. FullName ("(*sync.Mutex).Lock", "streamgnn/internal/query.
// AnswerBatch") is stable across them.
//
// Package-level var initializers run when the package initializes, so the
// calls and references in them are edges of the package's init node
// ("<path>.init"), which exists for every unit whether or not it declares
// an init function. Instantiations of a generic function or method are
// keyed by their generic origin.
//
// Soundness limits, shared by every client: calls through plain function
// values (fields, parameters, closures passed around) produce no edge;
// reflection and unsafe are invisible; function literals are attributed to
// their enclosing declared function (a closure's body is reached whenever
// its creator runs — conservative for reachability checks). Method values
// and other references to functions outside call position produce KindRef
// edges, which reachability clients should treat as potential calls.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"streamgnn/tools/streamlint/internal/analysis"
)

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind int

const (
	// KindStatic is a direct call to a known function or concrete method.
	KindStatic EdgeKind = iota
	// KindDynamic is a CHA-resolved edge from an interface method call to
	// one possible concrete implementation.
	KindDynamic
	// KindRef is a reference outside call position: a method value bound to
	// a variable, a function passed as an argument. The function may run
	// later, so reachability analyses treat refs as calls.
	KindRef
)

// Edge is one caller→callee relationship at one source position.
type Edge struct {
	Site   token.Pos
	Kind   EdgeKind
	Callee *Node
}

// Node is one function in the program. Decl and Unit are nil for functions
// known only through export data (no source body was loaded); such nodes
// still exist so clients can test their FullName against forbidden sets.
// A package's init node has a Unit but no Func, and a Decl only when the
// package declares an init function.
type Node struct {
	FullName string
	Func     *types.Func
	Decl     *ast.FuncDecl
	Unit     *analysis.Unit
	Out      []Edge
}

// Graph is the whole-program call graph.
type Graph struct {
	nodes map[string]*Node
}

// NodeOf returns the node for fn, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.FullName()]
}

// Nodes returns every node sorted by FullName, for deterministic iteration.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName < out[j].FullName })
	return out
}

// Build constructs the call graph over units. Construction order — units,
// then files, then declarations, then AST traversal — is fully
// deterministic, so edge order (and therefore every chain a client prints)
// is reproducible run to run.
func Build(units []*analysis.Unit) *Graph {
	g := &Graph{nodes: make(map[string]*Node)}

	// Pass 1: register every declared function, and collect the named types
	// declared in source — the CHA candidate set for interface dispatch.
	var named []*types.Named
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := u.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					n := g.ensure(fn)
					n.Decl = d
					n.Unit = u
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						obj, _ := u.Info.Defs[ts.Name].(*types.TypeName)
						if obj == nil || obj.IsAlias() {
							continue
						}
						if nt, ok := obj.Type().(*types.Named); ok {
							named = append(named, nt)
						}
					}
				}
			}
		}
	}

	// Pass 2: walk every function body and every package-level var
	// initializer and record edges.
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := u.Info.Defs[d.Name].(*types.Func)
					if fn == nil || d.Body == nil {
						continue
					}
					g.addEdges(g.ensure(fn), u, d.Body, named)
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, v := range spec.(*ast.ValueSpec).Values {
							g.addEdges(g.InitNode(u), u, v, named)
						}
					}
				}
			}
		}
	}
	return g
}

// InitNode returns the node that stands for u's initialization: its init
// functions and its package-level var initializers.
func (g *Graph) InitNode(u *analysis.Unit) *Node {
	key := u.Path + ".init"
	n := g.nodes[key]
	if n == nil {
		n = &Node{FullName: key, Unit: u}
		g.nodes[key] = n
	}
	return n
}

// ensure returns the node for fn, creating a bodiless one if needed.
func (g *Graph) ensure(fn *types.Func) *Node {
	fn = fn.Origin()
	key := fn.FullName()
	n := g.nodes[key]
	if n == nil {
		n = &Node{FullName: key, Func: fn}
		g.nodes[key] = n
	}
	return n
}

// addEdges records every call and function reference in body as outgoing
// edges of caller. Function literals are not given their own nodes: their
// bodies are traversed as part of the enclosing declaration, so a deferred
// closure or a goroutine body contributes edges to its creator.
func (g *Graph) addEdges(caller *Node, u *analysis.Unit, body ast.Node, named []*types.Named) {
	// callFuns marks the Fun expression of each call so the reference walk
	// below does not double-report it as a KindRef edge.
	callFuns := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		callFuns[fun] = true
		fn := analysis.CalleeFunc(u.Info, call)
		if fn == nil {
			return true // indirect call, conversion, or builtin
		}
		if iface := interfaceRecv(u.Info, fun); iface != nil {
			// Interface dispatch: an edge to the interface method itself
			// (its FullName may be in a client's forbidden set) plus CHA
			// edges to every candidate implementation.
			g.link(caller, call.Pos(), KindStatic, fn)
			for _, impl := range implementations(iface, fn.Name(), named) {
				g.link(caller, call.Pos(), KindDynamic, impl)
			}
			return true
		}
		g.link(caller, call.Pos(), KindStatic, fn)
		return true
	})

	// Reference walk: method values and function identifiers outside call
	// position. The Sel ident of every selector is skipped — the selector
	// node itself accounts for it, whether as a call or a reference.
	selIdents := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		var fn *types.Func
		var site token.Pos
		switch e := n.(type) {
		case *ast.SelectorExpr:
			selIdents[e.Sel] = true
			if callFuns[e] {
				return true
			}
			fn, _ = u.Info.Uses[e.Sel].(*types.Func)
			site = e.Pos()
		case *ast.Ident:
			if callFuns[e] || selIdents[e] {
				return true
			}
			fn, _ = u.Info.Uses[e].(*types.Func)
			site = e.Pos()
		default:
			return true
		}
		if fn == nil {
			return true
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if iface := interfaceRecv(u.Info, sel); iface != nil {
				g.link(caller, site, KindRef, fn)
				for _, impl := range implementations(iface, fn.Name(), named) {
					g.link(caller, site, KindRef, impl)
				}
				return true
			}
		}
		g.link(caller, site, KindRef, fn)
		return true
	})
}

func (g *Graph) link(caller *Node, site token.Pos, kind EdgeKind, callee *types.Func) {
	caller.Out = append(caller.Out, Edge{Site: site, Kind: kind, Callee: g.ensure(callee)})
}

// interfaceRecv returns the interface type a method expression selects
// through, or nil when fun is not an interface method selection.
func interfaceRecv(info *types.Info, fun ast.Expr) *types.Interface {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return nil
	}
	recv := selection.Recv()
	if iface, ok := recv.Underlying().(*types.Interface); ok {
		return iface
	}
	return nil
}

// implementations returns, for every candidate named type whose method set
// covers iface, the concrete method with the given name. Matching is by
// method-set names rather than types.Implements: named types loaded from
// source and the same types seen through export data are distinct objects,
// so identity-based checks fail across universes. Name matching
// over-approximates (two interfaces with the same method names conflate),
// which is the safe direction for invariant checking.
func implementations(iface *types.Interface, method string, named []*types.Named) []*types.Func {
	want := make(map[string]bool, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		want[iface.Method(i).Name()] = true
	}
	var out []*types.Func
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(nt))
		have := make(map[string]*types.Func, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok {
				have[fn.Name()] = fn
			}
		}
		covered := true
		for name := range want {
			if have[name] == nil {
				covered = false
				break
			}
		}
		if covered && have[method] != nil {
			out = append(out, have[method])
		}
	}
	return out
}

// Package snapimmut enforces snapshot immutability: a tensor.Matrix,
// tensor.RowView or dgnn.EmbStore value obtained from a Publish() or
// Freeze() call, or read out of a QuerySnapshot (a field, or a method such
// as View() that returns one), must never be mutated — not by a mutating
// method (Set, Zero, Fill, Splice, SetRow, ...), not by a store through an
// aliasing view (Row(i)[j] = v, m.Data[k] = v), not by copy() into it, and
// not by passing it to a function that mutates the corresponding parameter.
// The serving design publishes embeddings copy-on-write (DESIGN.md §13): a
// published RowView shares the store's pages, and the step loop clones a
// page before its next write to it, so a consumer-side write through a
// view's row corrupts every concurrently served query without any lock to
// catch it.
//
// The check is interprocedural: a fixpoint over the whole-program call
// graph computes, for every function with source, which of its parameters
// (receiver included) it mutates — a store through the parameter or one of
// its field/index/Row aliases, a copy() into it, or handing it to another
// mutator. Interface calls union the summaries of every CHA candidate.
// Taint then flows forward through local assignments from the two source
// shapes; Clone() breaks the taint, Row()/Matrix()/View() carry it.
//
// Limits: taint is tracked per function in source order (no back-edges), a
// callee with no loaded source has an unknown summary and is assumed
// read-only except for the well-known mutator names on tracked types, and
// values laundered through interface{} or containers escape tracking. The
// sanctioned clone-once COW path is waived with
// `//streamlint:cow-exempt <reason>` on the mutation line or the line
// above; the justification must be non-empty.
package snapimmut

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"streamgnn/tools/streamlint/internal/analysis"
	"streamgnn/tools/streamlint/internal/callgraph"
)

// Analyzer is the snapimmut check.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "snapimmut",
	Doc:  "values derived from Publish() or a QuerySnapshot must not be mutated (COW snapshots)",
	Run:  run,
}

const directive = "cow-exempt"

// trackedType names the value types whose published instances are immutable.
var trackedType = map[string]bool{"Matrix": true, "RowView": true, "EmbStore": true}

// aliasMethod results alias their receiver's storage; cloneMethod results
// are fresh copies.
var (
	aliasMethod = map[string]bool{"Row": true, "Matrix": true, "View": true}
	cloneMethod = map[string]bool{"Clone": true}
)

// bodilessMut is the fallback for callees with no loaded source (vettool
// single-unit mode): the known mutating methods of the tracked types.
var bodilessMut = map[string]bool{
	"Set": true, "Zero": true, "Fill": true,
	"Splice": true, "SetFull": true, "Invalidate": true, "Restore": true,
	"SetRow": true, "Grow": true, "Privatize": true, "Thaw": true,
}

// sourceMethod names the calls whose result is a published value.
var sourceMethod = map[string]string{"Publish": "derived from Publish()", "Freeze": "derived from Freeze()"}

const snapshotType = "QuerySnapshot"

// summary records which of a function's parameters it mutates. Slot 0 is
// the receiver when the function is a method; parameters follow.
type summary struct {
	hasRecv bool
	mut     []bool
}

func (s *summary) argSlot(i int) int {
	if s.hasRecv {
		return i + 1
	}
	return i
}

func (s *summary) equal(o *summary) bool {
	if o == nil || len(s.mut) != len(o.mut) {
		return false
	}
	for i := range s.mut {
		if s.mut[i] != o.mut[i] {
			return false
		}
	}
	return true
}

func run(pass *analysis.ProgramPass) error {
	graph := callgraph.Build(pass.Units)
	summaries := mutationSummaries(graph)

	for _, u := range pass.Units {
		for _, f := range u.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				scanFunc(pass, u, fd, graph, summaries)
			}
		}
	}
	return nil
}

// mutationSummaries runs the interprocedural fixpoint: a function's summary
// can only grow (bits flip from false to true), so iterating until no
// summary changes terminates.
func mutationSummaries(graph *callgraph.Graph) map[string]*summary {
	nodes := graph.Nodes()
	sums := make(map[string]*summary)
	for changed, rounds := true, 0; changed && rounds < 32; rounds++ {
		changed = false
		for _, n := range nodes {
			if n.Decl == nil || n.Decl.Body == nil || n.Unit == nil {
				continue
			}
			s := analyzeFunc(n, graph, sums)
			if !s.equal(sums[n.FullName]) {
				sums[n.FullName] = s
				changed = true
			}
		}
	}
	return sums
}

// paramSlots maps each parameter object (receiver first) to its slot.
func paramSlots(u *analysis.Unit, fd *ast.FuncDecl) (map[types.Object]int, *summary) {
	slots := make(map[types.Object]int)
	s := &summary{}
	add := func(name *ast.Ident) {
		if obj := u.Info.Defs[name]; obj != nil {
			slots[obj] = len(s.mut)
		}
		s.mut = append(s.mut, false)
	}
	if fd.Recv != nil {
		s.hasRecv = true
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				add(name)
			}
			if len(field.Names) == 0 {
				s.mut = append(s.mut, false) // anonymous receiver
			}
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				add(name)
			}
			if len(field.Names) == 0 {
				s.mut = append(s.mut, false)
			}
		}
	}
	return slots, s
}

// calleesAt indexes a node's call/dispatch edges by site, so the scan can
// resolve interface calls to their CHA candidates.
func calleesAt(n *callgraph.Node) map[token.Pos][]*callgraph.Node {
	out := make(map[token.Pos][]*callgraph.Node)
	for _, e := range n.Out {
		if e.Kind == callgraph.KindRef {
			continue
		}
		out[e.Site] = append(out[e.Site], e.Callee)
	}
	return out
}

// analyzeFunc computes one function's mutation summary under the current
// fixpoint state.
func analyzeFunc(n *callgraph.Node, graph *callgraph.Graph, sums map[string]*summary) *summary {
	u, fd := n.Unit, n.Decl
	slots, s := paramSlots(u, fd)
	sites := calleesAt(n)

	// aliases maps local objects to the parameter slot they alias.
	aliases := make(map[types.Object]int)
	slotOf := func(e ast.Expr) int {
		return rootSlot(u.Info, e, slots, aliases)
	}
	mark := func(slot int) {
		if slot >= 0 && slot < len(s.mut) {
			s.mut[slot] = true
		}
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if slot := storeTarget(u.Info, lhs, slots, aliases); slot >= 0 {
					mark(slot)
				}
			}
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := u.Info.Defs[id]
					if obj == nil {
						obj = u.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if slot := slotOf(st.Rhs[i]); slot >= 0 {
						aliases[obj] = slot
					} else {
						delete(aliases, obj)
					}
				}
			}
		case *ast.IncDecStmt:
			if slot := storeTarget(u.Info, st.X, slots, aliases); slot >= 0 {
				mark(slot)
			}
		case *ast.CallExpr:
			if isCopyBuiltin(u.Info, st) && len(st.Args) > 0 {
				mark(slotOf(st.Args[0]))
				return true
			}
			callees := sites[st.Pos()]
			fn := analysis.CalleeFunc(u.Info, st)
			// Receiver mutation: x.M(...) where M mutates its receiver.
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok && fn != nil && fn.Type().(*types.Signature).Recv() != nil {
				if slot := slotOf(sel.X); slot >= 0 {
					if calleesMutate(callees, sums, 0, fn, true) {
						mark(slot)
					}
				}
			}
			// Argument mutation: f(x) where f mutates that parameter.
			for i, arg := range st.Args {
				if slot := slotOf(arg); slot >= 0 {
					if calleesMutateArg(callees, sums, i) {
						mark(slot)
					}
				}
			}
		}
		return true
	})
	return s
}

// calleesMutate reports whether any callee mutates the given slot; for
// bodiless callees (no summary) it falls back to the well-known mutator
// names when askRecv is set.
func calleesMutate(callees []*callgraph.Node, sums map[string]*summary, slot int, fn *types.Func, askRecv bool) bool {
	known := false
	for _, c := range callees {
		if sum := sums[c.FullName]; sum != nil {
			known = true
			if slot < len(sum.mut) && sum.mut[slot] {
				return true
			}
		}
	}
	if !known && askRecv && fn != nil && bodilessMut[fn.Name()] {
		return true
	}
	return false
}

func calleesMutateArg(callees []*callgraph.Node, sums map[string]*summary, arg int) bool {
	for _, c := range callees {
		if sum := sums[c.FullName]; sum != nil {
			slot := sum.argSlot(arg)
			if slot < len(sum.mut) && sum.mut[slot] {
				return true
			}
		}
	}
	return false
}

// storeTarget returns the parameter slot a store through lhs mutates, or
// -1. A plain identifier rebinds a variable rather than mutating storage,
// so only index/field/pointer stores count.
func storeTarget(info *types.Info, lhs ast.Expr, slots map[types.Object]int, aliases map[types.Object]int) int {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
		return rootSlot(info, e, slots, aliases)
	}
	return -1
}

// rootSlot resolves the parameter slot an expression's storage is rooted
// in, following field/index/slice paths and the aliasing methods.
func rootSlot(info *types.Info, e ast.Expr, slots map[types.Object]int, aliases map[types.Object]int) int {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return -1
		}
		if slot, ok := slots[obj]; ok {
			return slot
		}
		if slot, ok := aliases[obj]; ok {
			return slot
		}
	case *ast.SelectorExpr:
		return rootSlot(info, e.X, slots, aliases)
	case *ast.IndexExpr:
		return rootSlot(info, e.X, slots, aliases)
	case *ast.SliceExpr:
		return rootSlot(info, e.X, slots, aliases)
	case *ast.StarExpr:
		return rootSlot(info, e.X, slots, aliases)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return rootSlot(info, e.X, slots, aliases)
		}
	case *ast.CallExpr:
		if fn := analysis.CalleeFunc(info, e); fn != nil && aliasMethod[fn.Name()] {
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				return rootSlot(info, sel.X, slots, aliases)
			}
		}
	}
	return -1
}

func isCopyBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "copy" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// ---- consumer-side taint scan ----

// taint records where a tracked value came from, for the diagnostic text.
type taint struct {
	origin string
}

// scanFunc flows taint forward through one function body and reports every
// mutation of a tainted value.
func scanFunc(pass *analysis.ProgramPass, u *analysis.Unit, fd *ast.FuncDecl, graph *callgraph.Graph, sums map[string]*summary) {
	fn, _ := u.Info.Defs[fd.Name].(*types.Func)
	var sites map[token.Pos][]*callgraph.Node
	if fn != nil {
		if n := graph.NodeOf(fn); n != nil {
			sites = calleesAt(n)
		}
	}
	tainted := make(map[types.Object]taint)

	taintEval := func(e ast.Expr) (taint, bool) {
		return taintOf(u.Info, e, tainted)
	}

	report := func(pos token.Pos, what string, tn taint) {
		if pass.Directive(pos, directive) {
			return
		}
		pass.Reportf(pos, "%s %s; published snapshot state is copy-on-write — clone before mutating or annotate //streamlint:cow-exempt <reason>", what, tn.origin)
	}

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch st := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				switch ast.Unparen(lhs).(type) {
				case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
					if tn, ok := taintEval(lhs); ok {
						report(lhs.Pos(), "store into a value", tn)
					}
				}
			}
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := u.Info.Defs[id]
					if obj == nil {
						obj = u.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if tn, ok := taintEval(st.Rhs[i]); ok {
						tainted[obj] = tn
					} else {
						delete(tainted, obj)
					}
				}
			}
		case *ast.CallExpr:
			if isCopyBuiltin(u.Info, st) && len(st.Args) > 0 {
				if tn, ok := taintEval(st.Args[0]); ok {
					report(st.Pos(), "copy() into a value", tn)
				}
				return true
			}
			fn := analysis.CalleeFunc(u.Info, st)
			callees := sites[st.Pos()]
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok && fn != nil && fn.Type().(*types.Signature).Recv() != nil {
				if tn, ok := taintEval(sel.X); ok && !aliasMethod[fn.Name()] && !cloneMethod[fn.Name()] {
					if calleesMutate(callees, sums, 0, fn, true) {
						report(st.Pos(), fmt.Sprintf("%s mutates a value", fn.FullName()), tn)
					}
				}
			}
			for i, arg := range st.Args {
				if tn, ok := taintEval(arg); ok {
					if calleesMutateArg(callees, sums, i) {
						report(arg.Pos(), fmt.Sprintf("argument %d of %s is mutated by the callee; it is a value", i+1, calleeName(fn)), tn)
					}
				}
			}
		}
		return true
	})
}

func calleeName(fn *types.Func) string {
	if fn == nil {
		return "the called function"
	}
	return fn.FullName()
}

// taintOf decides whether an expression denotes a published/snapshot value.
func taintOf(info *types.Info, e ast.Expr, tainted map[types.Object]taint) (taint, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj != nil {
			tn, ok := tainted[obj]
			return tn, ok
		}
	case *ast.SelectorExpr:
		// Reading a tracked-type field out of a QuerySnapshot is a source.
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			if namedName(sel.Recv()) == snapshotType && trackedType[namedName(sel.Obj().Type())] {
				return taint{origin: "captured in a QuerySnapshot"}, true
			}
		}
		return taintOf(info, e.X, tainted)
	case *ast.IndexExpr:
		return taintOf(info, e.X, tainted)
	case *ast.SliceExpr:
		return taintOf(info, e.X, tainted)
	case *ast.StarExpr:
		return taintOf(info, e.X, tainted)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return taintOf(info, e.X, tainted)
		}
	case *ast.CallExpr:
		fn := analysis.CalleeFunc(info, e)
		if fn == nil {
			return taint{}, false
		}
		if origin, ok := sourceMethod[fn.Name()]; ok {
			return taint{origin: origin}, true
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && aliasMethod[fn.Name()] {
			// A QuerySnapshot's aliasing accessor (View) is a source, like
			// reading the field it returns.
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && namedName(recv.Type()) == snapshotType {
				return taint{origin: "captured in a QuerySnapshot"}, true
			}
			return taintOf(info, sel.X, tainted)
		}
	}
	return taint{}, false
}

// namedName returns the name of the named type under t (behind pointers).
func namedName(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// Package detorder enforces the repository's determinism invariant: seeded
// runs must be bit-identical, so code on seeded paths must not let Go's
// randomized map iteration order, the global (unseeded) math/rand source, or
// wall-clock reads leak into computation.
//
// Three checks, scoped to the packages where the invariant holds
// (internal/core, dgnn, graph, tensor, kde, sampling, query, shard,
// cluster):
//
//  1. A `range` over a map whose body feeds ordered computation — a
//     floating-point accumulation into one variable, an RNG draw, or an
//     append whose slice is not sorted afterwards in the same block — is
//     order-sensitive and flagged. The repository idiom "collect keys,
//     then sort.Ints" is recognized and allowed.
//  2. Calls to package-level math/rand functions draw from the process
//     global source, which is unseeded and lock-shared; seeded paths must
//     draw from an injected *rand.Rand.
//  3. time.Now has no place in a seeded computation (timing lives in the
//     root package's telemetry and in cmd/, which are out of scope).
//
// An explicit `//streamlint:ordered-ok <justification>` on the flagged line
// or the line above waives the check.
package detorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"streamgnn/tools/streamlint/internal/analysis"
)

// Analyzer is the detorder check.
var Analyzer = &analysis.Analyzer{
	Name: "detorder",
	Doc:  "flags map-iteration order, global math/rand and time.Now leaking into seeded deterministic paths",
	Run:  run,
}

// scope lists the import paths whose determinism the engine's seeded-run
// bit-equality tests rely on. Packages outside the module (analysistest
// fixtures) are always in scope.
var scope = map[string]bool{
	"streamgnn/internal/core":     true,
	"streamgnn/internal/dgnn":     true,
	"streamgnn/internal/graph":    true,
	"streamgnn/internal/tensor":   true,
	"streamgnn/internal/kde":      true,
	"streamgnn/internal/sampling": true,
	"streamgnn/internal/query":    true,
	"streamgnn/internal/shard":    true,
	"streamgnn/internal/cluster":  true,
}

const directive = "ordered-ok"

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if (path == "streamgnn" || strings.HasPrefix(path, "streamgnn/")) && !scope[path] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, 0)
			case *ast.RangeStmt:
				checkRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags global math/rand draws and time.Now. rangePos, when
// non-zero, is the position of an enclosing map-range statement whose
// directive also covers the call.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, rangePos token.Pos) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	suppressed := func() bool {
		return pass.Directive(call.Pos(), directive) ||
			(rangePos != token.NoPos && pass.Directive(rangePos, directive))
	}
	switch analysis.PkgPathOf(fn) {
	case "time":
		if fn.Name() == "Now" && !suppressed() {
			pass.Reportf(call.Pos(), "time.Now on a seeded deterministic path; inject a clock or justify with %s%s", analysis.DirectivePrefix, directive)
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && globalRandFuncs[fn.Name()] && !suppressed() {
			pass.Reportf(call.Pos(), "global math/rand.%s draws from the unseeded process-wide source; use an injected *rand.Rand or justify with %s%s", fn.Name(), analysis.DirectivePrefix, directive)
		}
	}
}

// globalRandFuncs are the package-level math/rand functions that touch the
// process-global source (constructors like New and NewSource are fine).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true, "Int64N": true,
	"UintN": true, "Uint64N": true, "N": true,
}

// appendee identifies a slice being appended to: a plain identifier
// (field == nil) or a field selected off a base identifier, like st.Pending.
// Deeper chains collapse to (leftmost base, final field), which is precise
// enough to pair an append with a later sort of the same expression.
type appendee struct {
	base  types.Object
	field *types.Var
}

// checkRange flags order-sensitive bodies of map-range loops.
func checkRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// appends[a] is the first append into an outer slice seen in the body.
	appends := make(map[appendee]token.Pos)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(pass.TypesInfo, n); fn != nil {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isRandRand(recv.Type()) {
					if !suppressedAt(pass, n.Pos(), rng.Pos()) {
						pass.Reportf(n.Pos(), "RNG draw inside map iteration: the number of draws per key is fixed but their assignment to keys follows randomized map order; iterate sorted keys or justify with %s%s", analysis.DirectivePrefix, directive)
					}
				}
			}
			checkCall(pass, n, rng.Pos())
		case *ast.AssignStmt:
			checkAssign(pass, rng, n, appends)
		}
		return true
	})
	for a, pos := range appends {
		if sortedAfter(pass, file, rng, a) {
			continue
		}
		if suppressedAt(pass, pos, rng.Pos()) {
			continue
		}
		pass.Reportf(pos, "%s collects map keys in randomized iteration order and is not sorted afterwards in this block; sort it or justify with %s%s", a.name(), analysis.DirectivePrefix, directive)
	}
}

func (a appendee) name() string {
	if a.field != nil {
		return a.base.Name() + "." + a.field.Name()
	}
	return a.base.Name()
}

func suppressedAt(pass *analysis.Pass, pos, rangePos token.Pos) bool {
	return pass.Directive(pos, directive) || pass.Directive(rangePos, directive)
}

// checkAssign flags floating-point accumulation into a single outer variable
// and records appends to outer slices.
func checkAssign(pass *analysis.Pass, rng *ast.RangeStmt, as *ast.AssignStmt, appends map[appendee]token.Pos) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue // indexed accumulators are per-slot, order-insensitive
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !declaredOutside(obj, rng.Body) {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				if !suppressedAt(pass, as.Pos(), rng.Pos()) {
					pass.Reportf(as.Pos(), "floating-point accumulation into %s inside map iteration is order-sensitive (float addition does not commute bitwise); iterate sorted keys or justify with %s%s", id.Name, analysis.DirectivePrefix, directive)
				}
			}
		}
	case token.ASSIGN, token.DEFINE:
		// s = append(s, ...) into a slice declared outside the loop.
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || pass.TypesInfo.Uses[id] != nil && pass.TypesInfo.Uses[id].Pkg() != nil {
			return
		}
		a, ok := resolveAppendee(pass, as.Lhs[0])
		if !ok || !declaredOutside(a.base, rng.Body) {
			return
		}
		if _, seen := appends[a]; !seen {
			appends[a] = as.Pos()
		}
	}
}

// resolveAppendee maps an append target expression to its appendee: a plain
// identifier, or a selector chain whose leftmost base is an identifier.
func resolveAppendee(pass *analysis.Pass, expr ast.Expr) (appendee, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return appendee{base: obj}, true
		}
	case *ast.SelectorExpr:
		s := pass.TypesInfo.Selections[e]
		if s == nil || s.Kind() != types.FieldVal {
			return appendee{}, false
		}
		base := e.X
		for {
			inner, ok := ast.Unparen(base).(*ast.SelectorExpr)
			if !ok {
				break
			}
			base = inner.X
		}
		id, ok := ast.Unparen(base).(*ast.Ident)
		if !ok {
			return appendee{}, false
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return appendee{base: obj, field: s.Obj().(*types.Var)}, true
		}
	}
	return appendee{}, false
}

// declaredOutside reports whether obj's declaration lies outside the body.
func declaredOutside(obj types.Object, body *ast.BlockStmt) bool {
	return obj.Pos() < body.Pos() || obj.Pos() > body.End()
}

// sortedAfter reports whether, in the innermost block containing the range
// statement, a later statement sorts the slice held by a.
func sortedAfter(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, a appendee) bool {
	block := enclosingBlock(file, rng)
	if block == nil {
		return false
	}
	past := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rng) {
			past = true
			continue
		}
		if !past {
			continue
		}
		if stmtSorts(pass, stmt, a) {
			return true
		}
	}
	return false
}

// sortFuncs are the recognized "sort this slice" calls.
var sortFuncs = map[string]bool{
	"sort.Ints": true, "sort.Float64s": true, "sort.Strings": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// stmtSorts reports whether stmt (at any depth) calls a sort function with
// a's slice as first argument.
func stmtSorts(pass *analysis.Pass, stmt ast.Stmt, a appendee) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if !sortFuncs[analysis.PkgPathOf(fn)+"."+fn.Name()] {
			return true
		}
		if arg, ok := resolveAppendee(pass, call.Args[0]); ok && arg == a {
			found = true
			return false
		}
		return true
	})
	return found
}

// enclosingBlock returns the innermost block statement containing n.
func enclosingBlock(file *ast.File, n ast.Stmt) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if node.Pos() > n.Pos() || node.End() < n.End() {
			return false
		}
		if b, ok := node.(*ast.BlockStmt); ok {
			for _, s := range b.List {
				if s == ast.Stmt(n) {
					best = b
					return false
				}
			}
		}
		return true
	})
	return best
}

// isRandRand reports whether t is math/rand.Rand or a pointer to it.
func isRandRand(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return (p == "math/rand" || p == "math/rand/v2") && named.Obj().Name() == "Rand"
}

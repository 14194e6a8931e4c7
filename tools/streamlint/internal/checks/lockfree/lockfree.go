// Package lockfree enforces the no-stall serving guarantee mechanically:
// any function annotated `//streamlint:lockfree` must not transitively
// acquire a sync.Mutex or sync.RWMutex, and must not call into the engine
// step loop (any function marked `//streamlint:steploop`). The serving-path
// roots — QuerySnapshot.Answer and the serve.Batcher flush path — ride published snapshots precisely so they never contend
// with Step; a lock sneaking into that path silently reintroduces the stall
// the design exists to avoid (DESIGN.md §13).
//
// The check walks the whole-program call graph (see internal/callgraph)
// breadth-first from each annotated root, so diagnostics carry the
// shortest offending call chain. Justified exceptions are waived with
// `//streamlint:lockfree-exempt <reason>` on the callee declaration (the
// whole function is trusted) or on the call site (one edge is trusted);
// the justification must be non-empty.
//
// Known blind spots, inherited from the call graph: calls through plain
// function values produce no edge (the Batcher's answer callback is wired
// at construction and audited by the fixture suite instead), and locks
// taken inside bodiless stdlib functions other than the sync methods
// themselves (e.g. the slow path of sync.Once.Do) are invisible.
package lockfree

import (
	"go/ast"
	"go/types"
	"strings"

	"streamgnn/tools/streamlint/internal/analysis"
	"streamgnn/tools/streamlint/internal/callgraph"
)

// Analyzer is the lockfree check.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "lockfree",
	Doc:  "functions marked //streamlint:lockfree must not transitively acquire sync locks or call the engine step loop",
	Run:  run,
}

const (
	marker     = "lockfree"
	stepMarker = "steploop"
	exempt     = "lockfree-exempt"
)

// forbidden is the set of lock-acquisition functions, by FullName. Unlock
// is deliberately absent: an unlock without a matching lock is a crash the
// race detector and tests catch on the first run, while a silent lock is
// the latent stall this analyzer exists for.
var forbidden = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

type queueItem struct {
	node  *callgraph.Node
	chain []string
}

func run(pass *analysis.ProgramPass) error {
	graph := callgraph.Build(pass.Units)
	for _, u := range pass.Units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !pass.Marked(fd.Pos(), marker) {
					continue
				}
				fn, _ := u.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				if root := graph.NodeOf(fn); root != nil {
					check(pass, graph, root)
				}
			}
		}
	}
	return nil
}

// check walks breadth-first from root, reporting the shortest chain to each
// distinct forbidden callee.
func check(pass *analysis.ProgramPass, graph *callgraph.Graph, root *callgraph.Node) {
	visited := map[*callgraph.Node]bool{root: true}
	reported := map[string]bool{}
	queue := []queueItem{{node: root, chain: []string{root.FullName}}}
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		for _, edge := range item.node.Out {
			callee := edge.Callee
			if pass.Directive(edge.Site, exempt) {
				continue // the call site carries a justified waiver
			}
			if callee.Decl != nil && pass.Directive(callee.Decl.Pos(), exempt) {
				continue // the whole callee carries a justified waiver
			}
			chain := append(append([]string{}, item.chain...), callee.FullName)
			switch {
			case forbidden[callee.FullName]:
				if !reported[callee.FullName+"|"+pass.Fset.Position(edge.Site).String()] {
					reported[callee.FullName+"|"+pass.Fset.Position(edge.Site).String()] = true
					pass.ReportChainf(root.Decl.Name.Pos(), chain,
						"%s is annotated //streamlint:lockfree but transitively acquires %s (at %s): call chain: %s",
						root.FullName, callee.FullName, pass.Fset.Position(edge.Site), strings.Join(chain, " -> "))
				}
			case callee.Decl != nil && pass.Marked(callee.Decl.Pos(), stepMarker):
				if !reported["step|"+callee.FullName] {
					reported["step|"+callee.FullName] = true
					pass.ReportChainf(root.Decl.Name.Pos(), chain,
						"%s is annotated //streamlint:lockfree but transitively calls step-loop function %s: call chain: %s",
						root.FullName, callee.FullName, strings.Join(chain, " -> "))
				}
			case callee.Decl != nil && !visited[callee]:
				visited[callee] = true
				queue = append(queue, queueItem{node: callee, chain: chain})
			}
		}
	}
}

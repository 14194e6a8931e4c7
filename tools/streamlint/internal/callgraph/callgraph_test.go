package callgraph

import (
	"path/filepath"
	"testing"

	"streamgnn/tools/streamlint/internal/analysis"
	"streamgnn/tools/streamlint/internal/load"
)

// buildFixture loads the callgraph fixture package and builds its graph.
func buildFixture(t *testing.T) *Graph {
	t.Helper()
	root := filepath.Join("..", "..", "testdata", "src")
	pkgs, _, err := load.FixtureProgram(root, "callgraph/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var units []*analysis.Unit
	for _, p := range pkgs {
		units = append(units, p.Unit())
	}
	return Build(units)
}

// edges returns the set of callee FullNames reachable from node via edges
// of the given kinds.
func edges(n *Node, kinds ...EdgeKind) map[string]bool {
	want := make(map[EdgeKind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	out := make(map[string]bool)
	for _, e := range n.Out {
		if want[e.Kind] {
			out[e.Callee.FullName] = true
		}
	}
	return out
}

func TestCallGraphEdges(t *testing.T) {
	g := buildFixture(t)
	root := g.Node("callgraph/a.Root")
	if root == nil {
		t.Fatal("Root node missing")
	}
	if root.Decl == nil || root.Unit == nil {
		t.Fatal("Root should carry its declaration and unit")
	}

	static := edges(root, KindStatic)
	// Plain, deferred, goroutine and closure-body calls all attribute to
	// Root: function literals have no node of their own.
	for _, callee := range []string{
		"callgraph/a.plain",
		"callgraph/a.deferred",
		"callgraph/a.spawned",
		"callgraph/a.inClosure",
		"(callgraph/a.Doer).Do",
	} {
		if !static[callee] {
			t.Errorf("missing static edge Root -> %s (have %v)", callee, static)
		}
	}

	// The interface dispatch fans out to both implementations.
	dynamic := edges(root, KindDynamic)
	for _, callee := range []string{"(callgraph/a.A).Do", "(callgraph/a.B).Do"} {
		if !dynamic[callee] {
			t.Errorf("missing dynamic edge Root -> %s (have %v)", callee, dynamic)
		}
	}
	if dynamic["(callgraph/a.T).M"] {
		t.Error("T.M must not be a dispatch candidate for Doer.Do")
	}

	// The method value t.M is a reference edge: not called at the selector,
	// but reachable.
	refs := edges(root, KindRef)
	if !refs["(callgraph/a.T).M"] {
		t.Errorf("missing ref edge Root -> (callgraph/a.T).M (have %v)", refs)
	}
	// Ordinary call callees must not be duplicated as references.
	if refs["callgraph/a.plain"] {
		t.Error("plain() must not produce a ref edge on top of its call edge")
	}
}

func TestCallGraphDeterministic(t *testing.T) {
	g1, g2 := buildFixture(t), buildFixture(t)
	n1, n2 := g1.Nodes(), g2.Nodes()
	if len(n1) != len(n2) {
		t.Fatalf("node counts differ: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i].FullName != n2[i].FullName {
			t.Fatalf("node order differs at %d: %s vs %s", i, n1[i].FullName, n2[i].FullName)
		}
		if len(n1[i].Out) != len(n2[i].Out) {
			t.Fatalf("%s: edge counts differ", n1[i].FullName)
		}
		for j := range n1[i].Out {
			if n1[i].Out[j].Callee.FullName != n2[i].Out[j].Callee.FullName {
				t.Fatalf("%s: edge %d differs", n1[i].FullName, j)
			}
		}
	}
}

// Node returns the node with the given FullName, or nil.
func (g *Graph) Node(fullName string) *Node { return g.nodes[fullName] }

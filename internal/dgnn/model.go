// Package dgnn implements the seven dynamic graph neural network baselines
// of the paper's evaluation — TGCN, DCRNN, GCLSTM, DyGrEncoder, ROLAND,
// WinGNN, and EvolveGCN — behind a single Model interface that supports both
// full-graph forwards and forwards over induced subgraphs (the node-level
// training partitions of Section III-C).
//
// All models are discrete-time: they consume one snapshot view per call and
// carry per-node recurrent state forward with truncated backpropagation
// (window 1), which is the natural regime for online continuous training.
package dgnn

import (
	"fmt"
	"math/rand"

	"streamgnn/internal/autodiff"
	"streamgnn/internal/graph"
	"streamgnn/internal/nn"
	"streamgnn/internal/tensor"
)

// View is a model-facing snapshot of either the full graph or an induced
// subgraph. IDs maps view rows to global node ids; nil means row i is node i.
type View struct {
	N    int
	Feat *tensor.Matrix
	Norm *tensor.CSR
	// RWFn returns the pair of random-walk transition matrices on the view's
	// active rows, for diffusion convolutions, building it on first use: of the
	// models only DCRNN asks.
	RWFn func() *tensor.Diffusion
	IDs  []int
	// Frontier, when non-nil, says the rows are in demand order (RegionView):
	// the forward's result is wanted on the leading Frontier[0] rows only, and
	// the rows within d hops of those are the leading Frontier[d]. A forward
	// then computes each intermediate on the prefix its readers need, returns
	// Frontier[0] rows and commits recurrent state for exactly those. Nil is
	// every row wanted, unless Want lists them: full forwards, training rounds.
	Frontier []int
	// Want, when non-nil on a NoCommit view, lists the rows (ascending) whose
	// embeddings the caller reads: a training round's loss rows. A model may
	// return those rows alone, in that order — DCRNN, GCLSTM and TGCN do — or
	// ignore Want and return every row; the caller tells the two apart by the
	// row count.
	Want []int
	// NoCommit, when set, prevents the forward pass from writing updated
	// recurrent state back (useful for what-if evaluation).
	NoCommit bool
	// CommitRows, when non-nil on a committed view, restricts recurrent-state
	// write-back to these local row indices (ascending). DirtyView sets it:
	// the view spans the whole compute region, but only the exact rows — the
	// dirty nodes' L-hop frontier — may overwrite live state; boundary rows
	// have truncated receptive fields and must not. (A view in demand order
	// says the same with Frontier[0].) The engine's full forward over a graph
	// with held rows sets it to the live rows: held rows keep their state.
	CommitRows []int
	// SnapshotState makes a committed forward gather recurrent state from
	// the BeginStep snapshot instead of the live buffer (writes still land
	// live, masked by CommitRows). The sharded fan-out sets it on every
	// per-shard view: at forward time the snapshot equals the live state
	// (BeginStep just copied it), so values are unchanged, but concurrent
	// shard workers never read a row another worker is committing.
	SnapshotState bool
	// TypedFn lazily builds per-relation normalized adjacencies for
	// relation-aware models (RTGCN); nil for views that cannot provide it.
	TypedFn func(ntypes int) []*tensor.CSR
	// featShared marks Feat as the graph's own store (FullView); see
	// OwnFeat.
	featShared bool
}

// FullView builds the view of a full snapshot. Its features are the graph's
// own attribute store, read in place (graph.Dynamic.Features): the graph
// changes only between steps, never while a forward reads it.
func FullView(g *graph.Dynamic) View {
	return View{
		N:          g.N(),
		Feat:       g.Features(),
		Norm:       g.NormAdj(),
		RWFn:       g.Diffusion,
		TypedFn:    g.TypedAdj,
		featShared: true,
	}
}

// OwnFeat registers the view's features with tp, which recycles them at
// Release: every view's but the full view's are gathered fresh for it, while
// the full view's are the graph's store, which no tape owns.
func (v View) OwnFeat(tp *autodiff.Tape) {
	if !v.featShared {
		tp.Owned(v.Feat)
	}
}

// SubView builds the view of an induced subgraph, every row wanted: Frontier
// stays nil (the region underneath has nothing wanted, which on a view would
// read "no rows").
func SubView(s *graph.Subgraph) View {
	return View{
		N:       s.N(),
		Feat:    s.Features(),
		Norm:    s.NormAdj(),
		RWFn:    s.Diffusion,
		IDs:     s.Nodes,
		TypedFn: s.TypedAdj,
	}
}

// UnionView builds the view of a training round's partitions laid out as one
// disjoint-union graph. IDs repeats a node that several partitions hold, once
// per block, which a NoCommit forward — the only kind a round runs — tolerates:
// its state gathers only read.
func UnionView(u *graph.Union) View {
	return View{
		N:       u.N(),
		Feat:    u.Features(),
		Norm:    u.NormAdj(),
		RWFn:    u.Diffusion,
		IDs:     u.Nodes,
		TypedFn: u.TypedAdj,
	}
}

// DirtyView builds the reference view of an incremental forward — every row
// of the region through every op; the engine runs RegionView, which the
// equivalence test holds to this one bit for bit: the induced subgraph
// of the compute region (the dirty nodes' 2L-hop ball), with recurrent-state
// commit restricted to the exact rows (the dirty nodes' L-hop ball, as local
// indices). Rows listed in commitRows come out bit-identical to a full-graph
// forward for memoryless models, because the subgraph normalization uses
// global degrees and every node within L hops of an exact row is inside the
// region.
func DirtyView(s *graph.Subgraph, commitRows []int) View {
	v := SubView(s)
	v.CommitRows = commitRows
	return v
}

// RegionView builds the view of an incremental forward over a hop-ordered
// region: what DirtyView expresses with a commit mask over ascending rows, in
// the order that lets the forward skip the rows nothing wanted reads. The
// random-walk and typed adjacencies are built only if the model asks.
func RegionView(r *graph.Region) View {
	return View{
		N:        r.N(),
		Feat:     r.Features(),
		Norm:     r.NormAdj(),
		RWFn:     r.Diffusion,
		IDs:      r.Nodes,
		Frontier: r.Frontier,
		TypedFn:  r.TypedAdj,
	}
}

// rows returns how many leading rows an intermediate that the output reads
// across d hops must cover: Frontier[d], and every row where the view has no
// demand order or its frontiers stop short of d.
func (v View) rows(d int) int {
	if d < len(v.Frontier) {
		return v.Frontier[d]
	}
	return v.N
}

// gcnConv is the nn.RowConv of a cell whose gates are GCN convolutions over
// the view's normalized adjacency: a gate on leading rows reads the head of
// the adjacency over its input's rows, and one on the wanted rows (View.Want)
// reads those rows of it, picked once for every gate. The product x·W runs on
// every row of the input either way: the propagation reads it there.
func (v View) gcnConv(tp *autodiff.Tape) nn.RowConv {
	var want *tensor.CSR
	if v.Want != nil {
		want = v.Norm.Pick(v.Want)
	}
	return func(mod nn.Module, in *autodiff.Node, rows nn.Rows) *autodiff.Node {
		adj := want
		if rows.Want == nil {
			adj = v.Norm.Head(rows.N, in.Value.Rows)
		}
		return mod.(*nn.GCNConv).Apply(tp, adj, in)
	}
}

// LocalRows returns the positions in nodes (ascending, unique) of the ids in
// subset (ascending, a subset of nodes) — the local row indices a DirtyView
// commits and an EmbStore splices.
func LocalRows(nodes, subset []int) []int {
	rows := make([]int, 0, len(subset))
	j := 0
	for i, v := range nodes {
		if j < len(subset) && subset[j] == v {
			rows = append(rows, i)
			j++
		}
	}
	if j != len(subset) {
		panic(fmt.Sprintf("dgnn: LocalRows subset has %d ids outside nodes", len(subset)-j))
	}
	return rows
}

// globalID returns the global node id of view row i.
func (v View) globalID(i int) int {
	if v.IDs == nil {
		return i
	}
	return v.IDs[i]
}

// Model is a pluggable dynamic graph neural network.
type Model interface {
	// Name returns the model's published name.
	Name() string
	// Layers returns the GNN depth L; node partitions use L-hop balls.
	Layers() int
	// Hidden returns the embedding dimension.
	Hidden() int
	// Params returns all trainable parameters.
	Params() []*autodiff.Node
	// BeginStep announces that the stream advanced to step t. Models with
	// per-step weight dynamics (EvolveGCN) hook this.
	BeginStep(t int)
	// Forward computes gradient-tracked embeddings (view.N × Hidden) and,
	// unless view.NoCommit, writes updated recurrent state for the view's
	// nodes (detached).
	Forward(tp *autodiff.Tape, v View) *autodiff.Node
	// WrapOptimizer lets the model interpose on parameter updates
	// (WinGNN's random gradient-aggregation window); most models return
	// opt unchanged.
	WrapOptimizer(opt autodiff.Optimizer) autodiff.Optimizer
	// DumpState returns the model's recurrent state for checkpointing.
	DumpState() []StateDump
	// RestoreState checks a checkpoint's recurrent state against the model
	// and returns the install that replaces the live state with it; nothing
	// changes until install runs.
	RestoreState([]StateDump) (install func(), err error)
}

// Infer runs one inference forward of m over v on the inference tape tp
// (autodiff.NewInferenceTape) and returns the embedding matrix. The matrix is
// detached from the tape — the caller owns it, and it never returns to the
// tensor pool — while every intermediate, and v.Feat where the view gathered
// it (see OwnFeat), is recycled before Infer returns.
func Infer(tp *autodiff.Tape, m Model, v View) *tensor.Matrix {
	v.OwnFeat(tp)
	out := tp.Detach(m.Forward(tp, v))
	tp.Release()
	return out
}

// StatePregrower is implemented by models whose committed forwards are safe
// to run concurrently on disjoint node sets once per-node state has been
// prepared up front. PregrowState(n, rows) grows every live recurrent state
// to n nodes and clones the shared pages that hold rows — the rows the
// fan-out will commit — on the calling goroutine, so the parts' gathers and
// row-disjoint writes never touch a page table. Models with per-step *weight*
// dynamics on the committed path (EvolveGCN advances its weight recurrence
// inside Forward) must not implement it; the fan-out runs them serially in
// shard order instead.
type StatePregrower interface {
	PregrowState(n int, rows []int)
}

// Kind enumerates the implemented baselines.
type Kind int

// The seven baselines of the paper's Section VI-C.
const (
	TGCN Kind = iota
	DCRNN
	GCLSTM
	DyGrEncoder
	ROLAND
	WinGNN
	EvolveGCN
	// RTGCN is this repository's relation-aware extension beyond the
	// paper's seven baselines: TGCN with RGCN-style per-relation weights,
	// for the heterogeneous streams of the paper's Example 1.
	RTGCN
)

// String returns the published model name.
// HoldsNodeState reports whether per-node state is all a committed forward
// of the kind advances, so the engine may hold its edgeless rows. A kind not
// listed never is: EvolveGCN also advances weights, WinGNN keeps no state.
func (k Kind) HoldsNodeState() bool {
	switch k {
	case TGCN, DCRNN, GCLSTM, DyGrEncoder, ROLAND, RTGCN:
		return true
	}
	return false
}

func (k Kind) String() string {
	switch k {
	case TGCN:
		return "TGCN"
	case DCRNN:
		return "DCRNN"
	case GCLSTM:
		return "GCLSTM"
	case DyGrEncoder:
		return "DyGrEncoder"
	case ROLAND:
		return "ROLAND"
	case WinGNN:
		return "WinGNN"
	case EvolveGCN:
		return "EvolveGCN"
	case RTGCN:
		return "RTGCN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a model name (case-sensitive published spelling).
func ParseKind(name string) (Kind, error) {
	for k := TGCN; k <= RTGCN; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("dgnn: unknown model %q", name)
}

// Kinds returns all implemented models: the paper's seven baselines plus
// the RTGCN extension.
func Kinds() []Kind {
	return []Kind{TGCN, DCRNN, GCLSTM, DyGrEncoder, ROLAND, WinGNN, EvolveGCN, RTGCN}
}

// New constructs a baseline of the given kind.
func New(kind Kind, rng *rand.Rand, featDim, hidden int) Model {
	switch kind {
	case TGCN:
		return NewTGCN(rng, featDim, hidden)
	case DCRNN:
		return NewDCRNN(rng, featDim, hidden)
	case GCLSTM:
		return NewGCLSTM(rng, featDim, hidden)
	case DyGrEncoder:
		return NewDyGrEncoder(rng, featDim, hidden)
	case ROLAND:
		return NewROLAND(rng, featDim, hidden)
	case WinGNN:
		return NewWinGNN(rng, featDim, hidden)
	case EvolveGCN:
		return NewEvolveGCN(rng, featDim, hidden)
	case RTGCN:
		return NewRTGCN(rng, featDim, hidden, DefaultRelations)
	default:
		panic(fmt.Sprintf("dgnn: unknown kind %d", kind))
	}
}

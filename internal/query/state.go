package query

import (
	"fmt"
	"sort"

	"streamgnn/internal/tensor"
)

// WorkloadState is a checkpointable snapshot of everything a Workload
// accumulates at runtime: revealed supervision targets, the replay ring,
// in-flight (not yet revealed) predictions, resolved outcomes, and the link
// task's evaluation and supervision state. Restoring it — together with the
// model parameters, optimizer moments and the engine's random stream — makes
// a resumed run continue the exact trajectory of the saved one, so a
// graceful-shutdown/resume cycle is invisible in the Stats accounting.
type WorkloadState struct {
	// Revealed holds the revealed targets in ascending node order.
	Revealed []NodeTarget
	Replay   []ReplayExample
	// ReplayPos is the ring cursor of the replay buffer.
	ReplayPos int
	Pending   []PendingPrediction
	Outcomes  []Outcome
	Link      *LinkState
}

// NodeTarget is the revealed target at one node.
type NodeTarget struct {
	Node int
	Target
}

// PendingPrediction is one in-flight prediction awaiting its reveal step.
// Query is the issuing query's name; predictions whose query is no longer
// registered at restore time are dropped (the queries must be re-added
// before the state is restored for an exact resume).
type PendingPrediction struct {
	Query  string
	Anchor int
	Due    int // the step whose arrival reveals the truth
	Score  float64
	Emb    []float64
}

// LinkState is the link-prediction task's checkpointable state. LastEmb is
// the last observed embedding matrix (nil before the first); a restore
// adopts it rather than copying it.
type LinkState struct {
	RngState    uint64
	LastStep    int
	LastEmb     *tensor.Matrix
	RecentPairs []Pair
	Scores      []float64
	Labels      []bool
	Ranks       []int
	ReplayEmb   [][]float64
	ReplayLbl   []float64
}

// DumpState captures the workload's runtime state for checkpointing. Both
// maps are walked in sorted key order, so the checkpoint bytes do not depend
// on map iteration order (checkpoints of identical runs are bit-identical).
func (w *Workload) DumpState() WorkloadState {
	st := WorkloadState{
		Revealed:  make([]NodeTarget, 0, len(w.revealed)),
		ReplayPos: w.replayPos,
	}
	for v, t := range w.revealed {
		st.Revealed = append(st.Revealed, NodeTarget{Node: v, Target: t})
	}
	sort.Slice(st.Revealed, func(i, j int) bool { return st.Revealed[i].Node < st.Revealed[j].Node })
	st.Replay = append(st.Replay, w.replay...)
	dues := make([]int, 0, len(w.pending))
	for due := range w.pending {
		dues = append(dues, due)
	}
	sort.Ints(dues)
	for _, due := range dues {
		for _, p := range w.pending[due] {
			st.Pending = append(st.Pending, PendingPrediction{
				Query: p.q.Name, Anchor: p.anchor, Due: due, Score: p.score,
				Emb: append([]float64(nil), p.emb...),
			})
		}
	}
	st.Outcomes = append([]Outcome(nil), w.outcomes...)
	if w.link != nil {
		st.Link = w.link.dumpState()
	}
	return st
}

// RestoreState checks a snapshot captured with DumpState and returns the
// install that restores it; nothing changes until install runs. Queries (and
// the link task, if any) must be registered before the call; pending
// predictions whose query name is unknown are dropped so that learned state
// saved with a richer workload still loads into a narrower one.
func (w *Workload) RestoreState(st WorkloadState) (func(), error) {
	revealed := make(map[int]Target, len(st.Revealed))
	for i, t := range st.Revealed {
		if i > 0 && t.Node <= st.Revealed[i-1].Node {
			return nil, fmt.Errorf("query: revealed target at node %d out of ascending order", t.Node)
		}
		revealed[t.Node] = t.Target
	}
	if st.ReplayPos < 0 || (len(st.Replay) > 0 && st.ReplayPos >= replayCap) {
		return nil, fmt.Errorf("query: replay cursor %d out of range", st.ReplayPos)
	}
	if st.Link != nil {
		if w.link == nil {
			return nil, fmt.Errorf("query: checkpoint carries link-task state but no link task is attached")
		}
		if m := st.Link.LastEmb; m != nil && !tensor.Holds(m.Rows, m.Cols, len(m.Data)) {
			return nil, fmt.Errorf("query: link-task embeddings %dx%d carry %d values", m.Rows, m.Cols, len(m.Data))
		}
	}
	byName := make(map[string]*EventQuery, len(w.queries))
	for _, q := range w.queries {
		byName[q.Name] = q
	}
	pending := make(map[int][]pendingPred)
	for _, p := range st.Pending {
		if q, ok := byName[p.Query]; ok {
			pending[p.Due] = append(pending[p.Due], pendingPred{
				q: q, anchor: p.Anchor, score: p.Score, emb: append([]float64(nil), p.Emb...),
			})
		}
	}
	return func() {
		w.revealed = revealed
		w.replay = append([]ReplayExample(nil), st.Replay...)
		w.replayPos = st.ReplayPos
		w.pending = pending
		w.outcomes = append([]Outcome(nil), st.Outcomes...)
		w.alerts = nil
		if st.Link != nil {
			w.link.restoreState(st.Link)
		}
	}, nil
}

func (l *LinkPredTask) dumpState() *LinkState {
	st := &LinkState{
		RngState:    l.src.State(),
		LastStep:    l.lastStep,
		RecentPairs: append([]Pair(nil), l.recentPairs...),
		Scores:      append([]float64(nil), l.scores...),
		Labels:      append([]bool(nil), l.labels...),
		Ranks:       append([]int(nil), l.ranks...),
		ReplayLbl:   append([]float64(nil), l.replayLabels...),
	}
	if m := l.lastEmb; m != nil {
		st.LastEmb = &tensor.Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
	}
	for _, e := range l.replayEmb {
		st.ReplayEmb = append(st.ReplayEmb, append([]float64(nil), e...))
	}
	return st
}

func (l *LinkPredTask) restoreState(st *LinkState) {
	l.src.SetState(st.RngState)
	l.lastStep = st.LastStep
	l.lastEmb = st.LastEmb
	l.recentPairs = append(l.recentPairs[:0], st.RecentPairs...)
	l.scores = append([]float64(nil), st.Scores...)
	l.labels = append([]bool(nil), st.Labels...)
	l.ranks = append([]int(nil), st.Ranks...)
	l.replayEmb = nil
	for _, e := range st.ReplayEmb {
		l.replayEmb = append(l.replayEmb, append([]float64(nil), e...))
	}
	l.replayLabels = append([]float64(nil), st.ReplayLbl...)
}

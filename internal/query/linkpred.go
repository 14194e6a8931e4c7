package query

import (
	"math/rand"

	"streamgnn/internal/graph"
	"streamgnn/internal/metrics"
	"streamgnn/internal/rng"
	"streamgnn/internal/tensor"
)

// Pair is one labeled node pair (1 = edge appeared, 0 = negative sample).
type Pair struct {
	U, V  int
	Label float64
}

// LinkPredTask is the continuous link-prediction workload used for the Stack
// Overflow and UCI Messages experiments (Table II): at every step t, the
// embeddings of step t score candidate edges of step t+1; when step t+1
// arrives, the new edges are the positives and uniformly sampled non-edges
// the negatives.
type LinkPredTask struct {
	// NegPerPos is the number of sampled negatives per positive used for
	// accuracy/AUC and for supervision pairs.
	//streamlint:ckpt-exempt evaluation tuning is configuration, set at task construction
	NegPerPos int
	// RankNegs is the candidate-set size for MRR ranks.
	//streamlint:ckpt-exempt evaluation tuning is configuration, set at task construction
	RankNegs int
	// MaxPositives caps the positives evaluated per step.
	//streamlint:ckpt-exempt evaluation tuning is configuration, set at task construction
	MaxPositives int

	src *rng.SplitMix64 // dumpable source behind rng (checkpointing)
	//streamlint:ckpt-exempt stateless wrapper around src, whose word IS the stream state
	rng      *rand.Rand
	lastEmb  *tensor.RowView // frozen: read, never written
	lastStep int

	recentPairs []Pair
	scores      []float64
	labels      []bool
	ranks       []int

	// replay holds the freshest revealed pair examples: the concatenated
	// endpoint embeddings the pair was scored from and its 0/1 label. Like
	// the event replay, it lets every training unit refit the link head on
	// a balanced minibatch (constants; only the head trains through it).
	replayEmb    []([]float64)
	replayLabels []float64

	// The scratch of reveal, reused from step to step: the pairs it scores
	// and the slab replayEmb's rows sit in. The next reveal runs after every
	// reader of this one's — the scoring and the step's learner.
	//streamlint:ckpt-exempt scratch; replayEmb's rows, which alias slab, are checkpointed as copies
	pairSrc, pairDst []int
	//streamlint:ckpt-exempt scratch; replayEmb's rows, which alias slab, are checkpointed as copies
	slab []float64
}

// NewLinkPredTask returns a link-prediction task with standard settings.
func NewLinkPredTask(seed int64) *LinkPredTask {
	src := rng.New(seed)
	return &LinkPredTask{
		NegPerPos:    5,
		RankNegs:     20,
		MaxPositives: 64,
		src:          src,
		rng:          rand.New(src),
		lastStep:     -1,
	}
}

// observeEmbeddings keeps the step-t embeddings used to score step-t+1 edges
// at reveal time. The view is frozen, so it is held rather than copied.
func (l *LinkPredTask) observeEmbeddings(emb *tensor.RowView, step int) {
	l.lastEmb = emb
	l.lastStep = step
}

// reveal evaluates last step's predictions against the edges that actually
// arrived at `step` and refreshes the supervision pair set: everything the
// learner reads. It returns the rest, nil when nothing was revealed: scoring
// the pairs for AUC, accuracy and MRR, which reads h.Link and the frozen
// embeddings the pairs were drawn against.
func (l *LinkPredTask) reveal(g *graph.Dynamic, step int, h *Heads) func() {
	if l.lastEmb == nil || l.lastStep != step-1 {
		return nil
	}
	emb := l.lastEmb // Predict may move lastEmb on while the scoring runs
	n := emb.Rows()
	if n < 2 {
		return nil
	}
	// Positives: edges stamped with this step whose endpoints existed at
	// prediction time. Sources ascend, so recentPairs ascends by U.
	var pos []Pair
	for u := 0; u < n && len(pos) < l.MaxPositives; u++ {
		for _, e := range g.OutEdges(u) {
			if e.Time == int64(step) && e.To < n {
				pos = append(pos, Pair{U: u, V: e.To, Label: 1})
				if len(pos) >= l.MaxPositives {
					break
				}
			}
		}
	}
	if len(pos) == 0 {
		return nil
	}
	// Collect every pair to score — each positive, its accuracy/supervision
	// negatives, then its MRR rank candidates — drawing the random endpoints
	// in exactly the order per-pair scoring drew them, so the RNG stream
	// (and therefore checkpoints and repeat runs) is unchanged. All pairs
	// then go through one pass of the link head instead of
	// len(pos)*(1+NegPerPos+RankNegs) scalar pairScore calls.
	group := 1 + l.NegPerPos + l.RankNegs
	src, dst := l.pairSrc[:0], l.pairDst[:0]
	for _, p := range pos {
		src = append(src, p.U)
		dst = append(dst, p.V)
		for k := 0; k < l.NegPerPos; k++ {
			src = append(src, p.U)
			dst = append(dst, l.rng.Intn(n))
		}
		for k := 0; k < l.RankNegs; k++ {
			src = append(src, p.U)
			dst = append(dst, l.rng.Intn(n))
		}
	}
	l.pairSrc, l.pairDst = src, dst
	// The replay keeps each positive and its NegPerPos negatives: one slab
	// holds all of their head inputs, which replayRow writes and hands out in
	// turn.
	c := 3 * emb.Cols()
	if k := len(pos) * (1 + l.NegPerPos) * c; cap(l.slab) < k {
		l.slab = make([]float64, k)
	}
	rows := l.slab
	replayRow := func(i int) []float64 {
		row := rows[:c:c]
		rows = rows[c:]
		pairRow(row, emb.Row(src[i]), emb.Row(dst[i]))
		return row
	}

	l.recentPairs = l.recentPairs[:0]
	l.replayEmb = l.replayEmb[:0]
	l.replayLabels = l.replayLabels[:0]
	for j, p := range pos {
		base := j * group
		l.recentPairs = append(l.recentPairs, p)
		l.replayEmb = append(l.replayEmb, replayRow(base))
		l.replayLabels = append(l.replayLabels, 1)
		// Sampled negatives for accuracy/AUC and supervision.
		for k := 0; k < l.NegPerPos; k++ {
			l.recentPairs = append(l.recentPairs, Pair{U: p.U, V: dst[base+1+k], Label: 0})
			l.replayEmb = append(l.replayEmb, replayRow(base+1+k))
			l.replayLabels = append(l.replayLabels, 0)
		}
	}
	return func() {
		scores := LinkScores(h, emb, src, dst)
		for base := 0; base < len(scores); base += group {
			// The positive and its sampled negatives, then the rank of the
			// true endpoint among its RankNegs candidates.
			l.scores = append(l.scores, scores[base:base+1+l.NegPerPos]...)
			for k := 0; k <= l.NegPerPos; k++ {
				l.labels = append(l.labels, k == 0)
			}
			l.ranks = append(l.ranks, metrics.RankOf(scores[base], scores[base+1+l.NegPerPos:base+group]))
		}
	}
}

// Scores returns accumulated (score, positive?) evaluation pairs.
func (l *LinkPredTask) Scores() ([]float64, []bool) { return l.scores, l.labels }

// Ranks returns accumulated 1-based MRR ranks.
func (l *LinkPredTask) Ranks() []int { return l.ranks }

// AppendReplay samples up to n of the freshest revealed pair examples,
// appending each pair-head input row to rows and its label to labels (see
// Workload.AppendReplay).
func (l *LinkPredTask) AppendReplay(rng *rand.Rand, n int, rows, labels []float64) ([]float64, []float64) {
	if n > len(l.replayEmb) {
		n = len(l.replayEmb)
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(len(l.replayEmb))
		rows = append(rows, l.replayEmb[j]...)
		labels = append(labels, l.replayLabels[j])
	}
	return rows, labels
}

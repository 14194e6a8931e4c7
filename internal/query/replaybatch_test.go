package query

import (
	"math/rand"

	"streamgnn/internal/tensor"
)

// ReplayBatch is AppendReplay into a matrix of its own, nil when empty: the
// shape the replay tests read a batch in.
func (w *Workload) ReplayBatch(rng *rand.Rand, n int) (emb *tensor.Matrix, truths []float64) {
	return replayMatrix(w.AppendReplay(rng, n, nil, nil))
}

// ReplayBatch is the link task's AppendReplay into a matrix of its own.
func (l *LinkPredTask) ReplayBatch(rng *rand.Rand, n int) (emb *tensor.Matrix, labels []float64) {
	return replayMatrix(l.AppendReplay(rng, n, nil, nil))
}

func replayMatrix(rows, targets []float64) (*tensor.Matrix, []float64) {
	if len(targets) == 0 {
		return nil, nil
	}
	return tensor.FromSlice(len(targets), len(rows)/len(targets), rows), targets
}

package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"streamgnn/internal/graph"
)

// Record is the wire format of one event in the JSONL stream encoding: one
// JSON object per line, ordered by step. It lets real graph streams be
// replayed through the engine and the built-in workloads be exported for
// inspection or use by other tools.
//
//	{"step":3,"op":"node","type":1,"feat":[0.2,1]}
//	{"step":3,"op":"edge","u":10,"v":4,"etype":0,"label":1}
//	{"step":4,"op":"feat","v":10,"feat":[0.4,1]}
//	{"step":4,"op":"label","v":10,"value":1}
type Record struct {
	Step int    `json:"step"`
	Op   string `json:"op"` // "node", "edge", "feat", "label"

	// node
	Type int `json:"type,omitempty"`
	// edge
	U     int      `json:"u,omitempty"`
	V     int      `json:"v"`
	EType int      `json:"etype,omitempty"`
	Label *float64 `json:"label,omitempty"` // edge or node label
	// feat / node
	Feat []float64 `json:"feat,omitempty"`
	// label
	Value float64 `json:"value,omitempty"`
}

// Ops accepted in Record.Op.
const (
	OpNode  = "node"
	OpEdge  = "edge"
	OpFeat  = "feat"
	OpLabel = "label"
)

func (r Record) event() (Event, error) {
	switch r.Op {
	case OpNode:
		return AddNode{Type: NodeType(r.Type), Feat: r.Feat}, nil
	case OpEdge:
		label := math.NaN()
		if r.Label != nil {
			label = *r.Label
		}
		return AddEdge{U: r.U, V: r.V, Type: graph.EdgeType(r.EType), Time: int64(r.Step), Label: label}, nil
	case OpFeat:
		return SetFeature{V: r.V, Feat: r.Feat}, nil
	case OpLabel:
		return SetLabel{V: r.V, Label: r.Value}, nil
	default:
		return nil, fmt.Errorf("stream: unknown op %q", r.Op)
	}
}

// recordOf converts an event back to its wire form (inverse of event).
func recordOf(step int, e Event) (Record, error) {
	switch ev := e.(type) {
	case AddNode:
		return Record{Step: step, Op: OpNode, Type: int(ev.Type), Feat: ev.Feat}, nil
	case AddEdge:
		r := Record{Step: step, Op: OpEdge, U: ev.U, V: ev.V, EType: int(ev.Type)}
		if !math.IsNaN(ev.Label) {
			l := ev.Label
			r.Label = &l
		}
		return r, nil
	case SetFeature:
		return Record{Step: step, Op: OpFeat, V: ev.V, Feat: ev.Feat}, nil
	case SetLabel:
		return Record{Step: step, Op: OpLabel, V: ev.V, Value: ev.Label}, nil
	default:
		return Record{}, fmt.Errorf("stream: unencodable event %T", e)
	}
}

// WriteJSONL encodes batches as JSON Lines.
func WriteJSONL(w io.Writer, batches []Batch) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, b := range batches {
		for _, e := range b.Events {
			rec, err := recordOf(b.Step, e)
			if err != nil {
				return err
			}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// JSONLSource streams batches from a JSONL reader. Records must be ordered
// by non-decreasing step; all records of one step form one batch.
type JSONLSource struct {
	dec      *json.Decoder
	pending  *Record
	lastStep int
	started  bool
	err      error
}

// NewJSONLSource wraps r (typically a file) as a stream source.
func NewJSONLSource(r io.Reader) *JSONLSource {
	return &JSONLSource{dec: json.NewDecoder(bufio.NewReader(r))}
}

// Err returns the first decoding error encountered (io.EOF excluded).
func (s *JSONLSource) Err() error { return s.err }

func (s *JSONLSource) next() (*Record, error) {
	if s.pending != nil {
		r := s.pending
		s.pending = nil
		return r, nil
	}
	var rec Record
	if err := s.dec.Decode(&rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// Next implements Source.
func (s *JSONLSource) Next() (Batch, bool) {
	if s.err != nil {
		return Batch{}, false
	}
	var batch Batch
	haveStep := false
	for {
		rec, err := s.next()
		if err != nil {
			if err != io.EOF {
				s.err = err
			}
			return batch, haveStep
		}
		if s.started && rec.Step < s.lastStep {
			s.err = fmt.Errorf("stream: records out of order (step %d after %d)", rec.Step, s.lastStep)
			return batch, haveStep
		}
		if haveStep && rec.Step != batch.Step {
			s.pending = rec // belongs to the next batch
			return batch, true
		}
		ev, err := rec.event()
		if err != nil {
			s.err = err
			return batch, haveStep
		}
		if !haveStep {
			batch.Step = rec.Step
			haveStep = true
			s.started = true
			s.lastStep = rec.Step
		}
		batch.Events = append(batch.Events, ev)
	}
}

// ReadJSONL decodes an entire JSONL stream into batches.
func ReadJSONL(r io.Reader) ([]Batch, error) {
	src := NewJSONLSource(r)
	var out []Batch
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out, src.Err()
}

// InferFeatDim returns the attribute dimension of the first node event in
// the batches (0 if none).
func InferFeatDim(batches []Batch) int {
	for _, b := range batches {
		for _, e := range b.Events {
			if n, ok := e.(AddNode); ok {
				return len(n.Feat)
			}
		}
	}
	return 0
}

package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WAL is the replica's write-ahead log of applied event batches: one JSON
// line per StepEvents (floats bit-exact via Float64s' base64 form) — a file
// an operator can read, unlike the RPCs' binary frames.
// A restarted replica replays it to rebuild its graph mirror independently
// of the coordinator; anything the log misses is redelivered by the
// coordinator's outbox after the reconnect Hello, deduplicated by step.
type WAL struct {
	w   io.Writer
	buf *bufio.Writer
	enc *json.Encoder
}

// NewWAL returns a WAL appending to w (typically an os.File opened with
// O_APPEND). Batches are flushed to w per append; callers that need
// durability against power loss should pass a file and Sync it themselves.
func NewWAL(w io.Writer) *WAL {
	buf := bufio.NewWriter(w)
	return &WAL{w: w, buf: buf, enc: json.NewEncoder(buf)}
}

// Append writes one applied batch.
func (l *WAL) Append(b StepEvents) error {
	if err := l.enc.Encode(b); err != nil {
		return err
	}
	return l.buf.Flush()
}

// ReplayWAL re-applies every batch in rd to the replica's graph mirror.
// Call it on a configured replica (after RestoreCheckpoint) and before
// SetWAL, so replayed batches are not re-appended to the log.
func (r *Replica) ReplayWAL(rd io.Reader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.configured {
		return fmt.Errorf("cluster: replay needs a configured replica (restore the checkpoint first)")
	}
	if r.wal != nil {
		return fmt.Errorf("cluster: replay with a WAL attached would re-append every batch; attach it after")
	}
	dec := json.NewDecoder(rd)
	for {
		var b StepEvents
		if err := dec.Decode(&b); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("cluster: wal replay: %w", err)
		}
		if err := r.applyBatches([]StepEvents{b}); err != nil {
			return fmt.Errorf("cluster: wal replay: %w", err)
		}
	}
}

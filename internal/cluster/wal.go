package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WAL is the replica's write-ahead log and its whole recovery state: the
// first line is the replica's ReplicaConfig, every further line one applied
// StepEvents (floats bit-exact via Float64s' base64 form) — a file an
// operator can read, unlike the RPCs' binary frames. A restarted replica
// replays it to configure itself and rebuild its graph mirror independently
// of the coordinator; anything the log misses is redelivered by the
// coordinator's outbox after the reconnect Hello, deduplicated by step.
type WAL struct {
	buf *bufio.Writer
	enc *json.Encoder
}

// NewWAL returns a WAL appending to w (typically an os.File opened with
// O_APPEND). Lines are flushed to w per write; callers that need durability
// against power loss should pass a file and Sync it themselves.
func NewWAL(w io.Writer) *WAL {
	buf := bufio.NewWriter(w)
	return &WAL{buf: buf, enc: json.NewEncoder(buf)}
}

// write appends one line: the configuration or an applied batch.
func (l *WAL) write(v any) error {
	if err := l.enc.Encode(v); err != nil {
		return err
	}
	return l.buf.Flush()
}

// ReplayWAL rebuilds the replica from a log written through SetWAL: the first
// line configures an unconfigured replica (or must match a configured one's
// configuration), and every batch after it is re-applied to the graph mirror.
// An empty log leaves the replica as it is. Call it before SetWAL, so
// replayed lines are not appended to the log again.
func (r *Replica) ReplayWAL(rd io.Reader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wal != nil {
		return fmt.Errorf("cluster: replay with a WAL attached would re-append every batch; attach it after")
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields() // a log without its header fails here, not at configure
	var cfg ReplicaConfig
	if err := dec.Decode(&cfg); err != nil {
		if err == io.EOF {
			return nil
		}
		return fmt.Errorf("cluster: wal header: %w", err)
	}
	if r.configured {
		if err := cfg.validateAgainst(r.cfg); err != nil {
			return err
		}
	} else if err := r.configure(cfg); err != nil {
		return err
	}
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

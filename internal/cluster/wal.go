package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
)

// WAL is the replica's write-ahead log and its whole recovery state: a
// sequence of records, each a frame (frame.go) behind its uvarint length.
// The first record is the replica's ReplicaConfig, every further one an
// applied StepEvents. A restarted replica replays it to configure itself and
// rebuild its graph mirror independently of the coordinator; anything the
// log misses is redelivered by the coordinator's outbox after the reconnect
// Hello, deduplicated by step.
type WAL struct {
	w io.Writer
}

// NewWAL returns a WAL appending to w (typically an os.File opened with
// O_APPEND). Each record reaches w in one Write; callers that need
// durability against power loss should pass a file and Sync it themselves.
func NewWAL(w io.Writer) *WAL {
	return &WAL{w: w}
}

// write appends one record: the configuration or an applied batch.
func (l *WAL) write(m frameMessage) error {
	frame, err := encodeFrame(m)
	if err != nil {
		return err
	}
	_, err = l.w.Write(append(binary.AppendUvarint(nil, uint64(len(frame))), frame...))
	return err
}

// readRecord decodes the first record of log into m and returns the rest.
// A record's length must be minimal and fit the log, and its frame decode
// whole, so a log that reads re-writes to the same bytes.
func readRecord(log []byte, m frameMessage) ([]byte, error) {
	n, k := binary.Uvarint(log)
	if k <= 0 || (k > 1 && log[k-1] == 0) || n > uint64(len(log)-k) {
		return nil, fmt.Errorf("cluster: wal: record length truncated, non-minimal or past the end of the log")
	}
	return log[k+int(n):], decodeFrame(log[k:k+int(n)], m)
}

// ReplayWAL rebuilds the replica from a log written through SetWAL: the first
// record configures an unconfigured replica (or must match a configured one's
// configuration), and every batch after it is re-applied to the graph mirror.
// An empty log leaves the replica as it is. Call it before SetWAL, so
// replayed records are not appended to the log again.
func (r *Replica) ReplayWAL(rd io.Reader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wal != nil {
		return fmt.Errorf("cluster: replay with a WAL attached would re-append every batch; attach it after")
	}
	log, err := io.ReadAll(rd)
	if err != nil || len(log) == 0 {
		return err
	}
	var cfg ReplicaConfig
	if log, err = readRecord(log, &cfg); err != nil {
		return fmt.Errorf("cluster: wal header: %w", err)
	}
	if r.configured {
		if err := cfg.validateAgainst(r.cfg); err != nil {
			return err
		}
	} else if err := r.configure(cfg); err != nil {
		return err
	}
	for len(log) > 0 {
		var b StepEvents
		if log, err = readRecord(log, &b); err == nil {
			err = r.applyBatches([]StepEvents{b})
		}
		if err != nil {
			return fmt.Errorf("cluster: wal replay: %w", err)
		}
	}
	return nil
}

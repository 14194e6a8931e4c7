// Cluster mode: -role=coordinator runs the engine and farms per-shard
// forwards out to replica services; -role=replica serves one shard's
// mirror over localhost HTTP (see internal/cluster and DESIGN.md §17).
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamgnn/internal/cluster"
	"streamgnn/internal/obs"
	"streamgnn/internal/stream"
)

// peerList parses -peers: comma-separated replica base URLs, one per shard,
// in shard order.
func (o options) peerList() []string {
	var out []string
	for _, p := range strings.Split(o.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// routingSource wraps the stream source so every batch is replicated to the
// replica outboxes before the engine consumes it — including batches
// replayed during a -resume fast-forward, which is how a restarted
// coordinator redelivers history to replicas that are behind (they
// deduplicate by step).
type routingSource struct {
	src   stream.Source
	coord *cluster.Coordinator
	err   error
}

func (r *routingSource) Next() (stream.Batch, bool) {
	b, ok := r.src.Next()
	if ok && r.err == nil {
		r.err = r.coord.RouteEvents(b.Step, b.Events)
	}
	return b, ok
}

// runReplica is the -role=replica service: a cluster.Replica behind the HTTP
// transport, with an optional WAL and its own checkpoint written on SIGTERM
// — per-replica crash recovery independent of the coordinator's.
func runReplica(opts options) error {
	if opts.listen == "" {
		return errors.New("-role=replica requires -listen")
	}
	rep := cluster.NewReplica()
	if opts.replicaID >= 0 {
		rep.SetExpectShard(opts.replicaID)
	}
	if opts.resume {
		if opts.ckptPath == "" {
			return errors.New("-resume requires -checkpoint")
		}
		f, err := os.Open(opts.ckptPath)
		if err != nil {
			return err
		}
		err = rep.RestoreCheckpoint(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg := rep.Config()
		fmt.Printf("replica restored from %s: shard %d of %d (%s), model %s\n",
			opts.ckptPath, cfg.Shard, cfg.Shards, cfg.Layout, cfg.Model)
		if opts.walPath != "" {
			f, err := os.Open(opts.walPath)
			switch {
			case err == nil:
				replayErr := rep.ReplayWAL(f)
				f.Close()
				if replayErr != nil {
					return replayErr
				}
				fmt.Printf("wal %s replayed; graph mirror at step %d\n", opts.walPath, rep.LastApplied())
			case !errors.Is(err, os.ErrNotExist):
				return err
			}
		}
	}
	if opts.walPath != "" {
		wf, err := os.OpenFile(opts.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer wf.Close()
		rep.SetWAL(cluster.NewWAL(wf))
	}

	mux := http.NewServeMux()
	mux.Handle("/cluster/", cluster.NewHTTPHandler(rep))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeReplicaMetrics(w, rep)
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: opts.listen, Handler: mux}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	fmt.Printf("replica serving cluster RPCs on %s (/cluster/* /healthz /metrics)\n", opts.listen)

	select {
	case <-ctx.Done():
	case err := <-httpErr:
		return err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if opts.ckptPath != "" && rep.Config().Shards > 0 {
		var buf bytes.Buffer
		if err := rep.SaveCheckpoint(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(opts.ckptPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("replica checkpoint written to %s (graph mirror at step %d)\n", opts.ckptPath, rep.LastApplied())
	}
	return nil
}

// writeDemandRows emits the rows this process's incremental forwards covered,
// by hop distance from the rows whose result they kept.
func writeDemandRows(w io.Writer, rows [3]int64) {
	obs.WriteHeader(w, "streamgnn_forward_demand_rows_total", "Rows incremental forwards covered, by depth: 0 the exact rows, 1 within one hop of them, 2 the compute region.", "counter")
	for d, n := range rows {
		obs.WriteIntValue(w, "streamgnn_forward_demand_rows_total", fmt.Sprintf(`depth="%d"`, d), n)
	}
}

// writeReplicaMetrics emits the replica-side streamgnn_cluster_* family.
func writeReplicaMetrics(w io.Writer, rep *cluster.Replica) {
	st := rep.Stats()
	cfg := rep.Config()
	obs.WriteHeader(w, "streamgnn_cluster_replica_shard", "Shard index this replica serves (-1 before configuration).", "gauge")
	shard := int64(-1)
	if cfg.Shards > 0 {
		shard = int64(cfg.Shard)
	}
	obs.WriteIntValue(w, "streamgnn_cluster_replica_shard", "", shard)
	obs.WriteHeader(w, "streamgnn_cluster_replica_events_applied_total", "Replicated events applied to the graph mirror.", "counter")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_events_applied_total", "", st.EventsApplied)
	obs.WriteHeader(w, "streamgnn_cluster_replica_events_total", "Replicated events by ownership (owned vs halo).", "counter")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_events_total", `kind="owned"`, st.OwnedEvents)
	obs.WriteIntValue(w, "streamgnn_cluster_replica_events_total", `kind="halo"`, st.HaloEvents)
	obs.WriteHeader(w, "streamgnn_cluster_replica_forwards_total", "Shard-part forwards executed.", "counter")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_forwards_total", "", st.Forwards)
	writeDemandRows(w, st.DemandRows)
	obs.WriteHeader(w, "streamgnn_cluster_replica_full_syncs_total", "Full model-mirror syncs received.", "counter")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_full_syncs_total", "", st.FullSyncs)
	obs.WriteHeader(w, "streamgnn_cluster_replica_state_patches_total", "Incremental state-row patches applied.", "counter")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_state_patches_total", "", st.Patches)
	obs.WriteHeader(w, "streamgnn_cluster_replica_publishes_total", "Serving-snapshot publishes received.", "counter")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_publishes_total", "", st.Publishes)
	obs.WriteHeader(w, "streamgnn_cluster_replica_answers_total", "Predictive queries answered from the serving mirror.", "counter")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_answers_total", "", st.Answers)
	obs.WriteHeader(w, "streamgnn_cluster_replica_last_applied_step", "Last event step applied to the graph mirror.", "gauge")
	obs.WriteIntValue(w, "streamgnn_cluster_replica_last_applied_step", "", st.LastApplied)
	writeTensorPoolMetrics(w)
}

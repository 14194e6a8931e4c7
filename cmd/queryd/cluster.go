// Cluster mode: -role=coordinator runs the engine and farms per-shard
// forwards out to replica services; -role=replica serves one shard's
// mirror over localhost HTTP (see internal/cluster and DESIGN.md §17).
package main

import (
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
// transport, with an optional WAL — its configuration and every applied event
// batch — from which -resume rebuilds it, independently of the coordinator.
func runReplica(opts options) error {
	if opts.listen == "" {
		return errors.New("-role=replica requires -listen")
	}
	if opts.ckptPath != "" {
		return errors.New("-role=replica keeps no checkpoint: its -wal log is its recovery state")
	}
	if opts.resume && opts.walPath == "" {
		return errors.New("-role=replica -resume requires -wal")
	}
	rep := cluster.NewReplica()
	if opts.replicaID >= 0 {
		rep.SetExpectShard(opts.replicaID)
	}
	if opts.walPath != "" {
		// A fresh replica starts its log over; a resumed one replays it, then
		// appends to it.
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if opts.resume {
			mode = os.O_CREATE | os.O_RDWR | os.O_APPEND
		}
		wf, err := os.OpenFile(opts.walPath, mode, 0o644)
		if err != nil {
			return err
		}
		defer wf.Close()
		if opts.resume {
			if err := rep.ReplayWAL(wf); err != nil {
				return err
			}
			if cfg := rep.Config(); cfg.Shards > 0 {
				fmt.Printf("replica replayed %s: shard %d of %d (%s), model %s, graph mirror at step %d\n",
					opts.walPath, cfg.Shard, cfg.Shards, cfg.Layout, cfg.Model, rep.LastApplied())
			}
		}
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
	return httpSrv.Shutdown(shutCtx)
}

// writeDemandRows emits the rows this process's incremental forwards covered,
// by hop distance from the rows whose result they kept.
func writeDemandRows(w io.Writer, rows [3]int64) {
	obs.WriteCounter(w, "streamgnn_forward_demand_rows_total", "Rows incremental forwards covered, by depth: 0 the exact rows, 1 within one hop of them, 2 the compute region.",
		obs.Indexed("depth", rows[:])...)
}

// writeReplicaMetrics emits the replica-side streamgnn_cluster_* family.
func writeReplicaMetrics(w io.Writer, rep *cluster.Replica) {
	st := rep.Stats()
	shard := -1
	if cfg := rep.Config(); cfg.Shards > 0 {
		shard = cfg.Shard
	}
	obs.WriteGauge(w, "streamgnn_cluster_replica_shard", "Shard index this replica serves (-1 before configuration).", obs.Value(shard))
	obs.WriteCounter(w, "streamgnn_cluster_replica_events_applied_total", "Replicated events applied to the graph mirror.", obs.Value(st.EventsApplied))
	obs.WriteCounter(w, "streamgnn_cluster_replica_events_total", "Replicated events by ownership (owned vs halo).",
		obs.Labeled(`kind="owned"`, st.OwnedEvents), obs.Labeled(`kind="halo"`, st.HaloEvents))
	obs.WriteCounter(w, "streamgnn_cluster_replica_forwards_total", "Shard-part forwards executed.", obs.Value(st.Forwards))
	writeDemandRows(w, st.DemandRows)
	obs.WriteCounter(w, "streamgnn_cluster_replica_full_syncs_total", "Full model-mirror syncs received.", obs.Value(st.FullSyncs))
	obs.WriteCounter(w, "streamgnn_cluster_replica_state_patches_total", "Incremental state-row patches applied.", obs.Value(st.Patches))
	obs.WriteCounter(w, "streamgnn_cluster_replica_publishes_total", "Serving-snapshot publishes received.", obs.Value(st.Publishes))
	obs.WriteCounter(w, "streamgnn_cluster_replica_answers_total", "Predictive queries answered from the serving mirror.", obs.Value(st.Answers))
	obs.WriteGauge(w, "streamgnn_cluster_replica_last_applied_step", "Last event step applied to the graph mirror.", obs.Value(st.LastApplied))
	writeTensorPoolMetrics(w)
}

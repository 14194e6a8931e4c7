// Command queryd is a long-running continuous-monitoring service: it replays
// a graph stream through the engine — one of the built-in workloads, or any
// external stream in the JSONL event encoding (see cmd/streamgen) — answers
// its continuous predictive queries at every step, trains the chosen DGNN
// online with the chosen strategy, and prints alerts, drift warnings and
// rolling metrics — the operational loop of the paper's Figure 2.
//
// Beyond the replay loop it behaves like a real service: an optional admin
// listener serves liveness, stats and Prometheus metrics; SIGINT/SIGTERM
// trigger a graceful shutdown that writes a checkpoint, and -resume restores
// it so the run continues exactly where it stopped.
//
//	queryd -dataset Bitcoin -model TGCN -strategy kde -steps 60
//	queryd -input mystream.jsonl -model ROLAND       # external data
//	queryd -listen :8080 -checkpoint queryd.ckpt     # service mode
//	queryd -checkpoint queryd.ckpt -resume           # continue after restart
//	queryd -role=replica -listen :9201 -replica-id 0 # shard-replica service
//	queryd -role=coordinator -shards 2 -peers http://127.0.0.1:9201,http://127.0.0.1:9202
//
// Cluster mode (DESIGN.md §17) splits the single process into a coordinator
// (the engine, stream replay and training) and one replica service per
// shard: replicas mirror the graph from replicated event batches, execute
// their shard's forward part, and serve fanned-out /query slices from a
// published snapshot — bit-identical to the in-process -shards run.
//
// Admin endpoints (with -listen):
//
//	GET  /healthz  liveness probe ("ok")
//	GET  /stats    JSON snapshot: progress, Stats, Metrics, Telemetry
//	GET  /metrics  Prometheus text format (step/phase latency histograms,
//	               training and cache counters, workload quality gauges,
//	               query-serving latency/batch-size/queue-depth)
//	POST /query    batched predictive-query serving: a JSON batch of event
//	               and link queries, answered against the latest
//	               completed step's immutable snapshot through the
//	               micro-batching admission queue (-batch-max / -batch-wait);
//	               see README "Serving"
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"streamgnn"
	"streamgnn/internal/cluster"
	"streamgnn/internal/obs"
	"streamgnn/internal/query"
	"streamgnn/internal/serve"
	"streamgnn/internal/stream"
	"streamgnn/internal/tensor"
	"streamgnn/internal/workload"
)

func main() {
	var opts options
	flag.StringVar(&opts.dataset, "dataset", "Bitcoin", "workload: "+strings.Join(workload.Names(), ", "))
	flag.StringVar(&opts.input, "input", "", "replay an external JSONL event stream instead of a built-in workload")
	flag.StringVar(&opts.model, "model", "TGCN", "DGNN baseline")
	flag.StringVar(&opts.strategy, "strategy", "kde", "training strategy: full, weighted, kde")
	flag.IntVar(&opts.steps, "steps", 60, "stream steps to replay")
	flag.Int64Var(&opts.seed, "seed", 1, "random seed")
	flag.IntVar(&opts.hidden, "hidden", 16, "embedding dimension")
	flag.BoolVar(&opts.drift, "drift", true, "print drift warnings (Page-Hinkley over query loss)")
	flag.StringVar(&opts.listen, "listen", "", "admin listen address (e.g. :8080); empty disables the HTTP endpoints")
	flag.StringVar(&opts.ckptPath, "checkpoint", "", "checkpoint file written on graceful shutdown (and read by -resume)")
	flag.BoolVar(&opts.resume, "resume", false, "resume from -checkpoint: replay the stream up to the saved step, then continue")
	flag.Float64Var(&opts.rate, "rate", 0, "max replay steps per second; 0 replays at full speed")
	flag.BoolVar(&opts.incremental, "incremental", false, "dirty-region incremental forward inference (see DESIGN.md §10)")
	flag.IntVar(&opts.refreshEvery, "refresh-every", 0, "with -incremental: advance the live rows at least every N steps instead of splicing (recurrent models without a link task hold the rest; 0 = never)")
	flag.IntVar(&opts.interval, "interval", 0, "steps between training steps (0 = engine default of 1; raise so -incremental can reuse cached embeddings between training steps)")
	flag.IntVar(&opts.shards, "shards", 0, "partition the node space into this many shards and fan incremental forwards out per shard (0/1 = unsharded; >1 implies -incremental; see DESIGN.md §12)")
	flag.StringVar(&opts.shardLayout, "shard-layout", "hash", "node-to-shard layout with -shards: hash or range")
	flag.IntVar(&opts.batchMax, "batch-max", 64, "B: flush a /query micro-batch as soon as this many queries are pending")
	flag.DurationVar(&opts.batchWait, "batch-wait", 2*time.Millisecond, "T: flush a /query micro-batch this long after its first query")
	flag.StringVar(&opts.role, "role", "", "cluster role: coordinator or replica; empty runs the single-process service (see DESIGN.md §17)")
	flag.StringVar(&opts.peers, "peers", "", "with -role=coordinator: comma-separated replica base URLs, one per shard in shard order (e.g. http://127.0.0.1:9201,http://127.0.0.1:9202)")
	flag.IntVar(&opts.replicaID, "replica-id", -1, "with -role=replica: pin the shard index this replica serves; -1 accepts the coordinator's assignment")
	flag.StringVar(&opts.walPath, "wal", "", "with -role=replica: write-ahead log of applied event batches, replayed on -resume to rebuild the graph mirror")
	flag.Parse()
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "queryd:", err)
		os.Exit(1)
	}
}

type options struct {
	dataset, input, model, strategy string
	steps                           int
	seed                            int64
	hidden                          int
	drift                           bool
	listen                          string
	ckptPath                        string
	resume                          bool
	rate                            float64
	incremental                     bool
	refreshEvery                    int
	interval                        int
	shards                          int
	shardLayout                     string
	batchMax                        int
	batchWait                       time.Duration
	role                            string
	peers                           string
	replicaID                       int
	walPath                         string
}

func run(opts options) error {
	switch opts.role {
	case "":
		// Single-process service.
	case "replica":
		return runReplica(opts)
	case "coordinator":
		// Falls through to the normal service loop; the coordinator is
		// wired in below, after the engine exists.
	default:
		return fmt.Errorf("unknown -role %q (want coordinator or replica)", opts.role)
	}

	// A resume run must build an engine compatible with the checkpoint, so
	// the saved header overrides the model/strategy/hidden flags.
	var ckptData []byte
	resumeStep := 0
	if opts.resume {
		if opts.ckptPath == "" {
			return errors.New("-resume requires -checkpoint")
		}
		var err error
		ckptData, err = os.ReadFile(opts.ckptPath)
		if err != nil {
			return err
		}
		info, err := streamgnn.PeekCheckpoint(bytes.NewReader(ckptData))
		if err != nil {
			return err
		}
		opts.model, opts.strategy, opts.hidden = info.Model, info.Strategy, info.Hidden
		// Adopt the saved shard layout: LoadCheckpoint rejects a mismatched
		// partition, so the flags must not override it.
		opts.shards, opts.shardLayout = info.Shards, info.ShardLayout
		if opts.shards <= 1 {
			opts.shardLayout = "hash"
		}
		resumeStep = info.Step
		fmt.Printf("resuming %s/%s at step %d from %s\n", info.Model, info.Strategy, info.Step, opts.ckptPath)
	}

	// Coordinator mode: one replica per shard, addressed in shard order.
	// -shards may be omitted (it follows the peer count) but must agree with
	// it when given — and with the checkpoint's partition on resume.
	var peerURLs []string
	if opts.role == "coordinator" {
		peerURLs = opts.peerList()
		if len(peerURLs) == 0 {
			return errors.New("-role=coordinator requires -peers")
		}
		if opts.shards == 0 {
			opts.shards = len(peerURLs)
		}
		if opts.shards != len(peerURLs) {
			return fmt.Errorf("partition has %d shards but -peers names %d replicas", opts.shards, len(peerURLs))
		}
		if opts.shards < 2 {
			return errors.New("coordinator mode needs at least 2 replicas (one per shard)")
		}
	}

	ds, err := loadDataset(opts)
	if err != nil {
		return err
	}
	eng, err := streamgnn.NewEngine(ds.FeatDim, streamgnn.Config{
		Model:              opts.model,
		Strategy:           opts.strategy,
		Hidden:             opts.hidden,
		Seed:               opts.seed,
		WindowSteps:        ds.WindowSteps,
		DriftDetection:     opts.drift,
		IncrementalForward: opts.incremental,
		RefreshEverySteps:  opts.refreshEvery,
		Interval:           opts.interval,
		Shards:             opts.shards,
		ShardLayout:        opts.shardLayout,
	})
	if err != nil {
		return err
	}
	// Register the workload before any checkpoint load: restored pending
	// predictions attach to queries by name, and the link task must exist
	// for its state to land.
	for _, q := range ds.Queries {
		err := eng.AddQuery(streamgnn.Query{
			Name:      q.Name,
			Anchors:   q.Anchors,
			Delta:     q.Delta,
			Threshold: q.Threshold,
			Labeler: func(anchor, step int) (float64, bool) {
				return q.Labeler(eng.Graph(), anchor, step)
			},
		})
		if err != nil {
			return err
		}
	}
	if ds.LinkPred {
		eng.EnableLinkPrediction()
	}

	// Coordinator mode hooks in before the replayer so every stream batch —
	// including the ones replayed during a -resume fast-forward — is routed
	// to the replica outboxes before the engine consumes it.
	var coord *cluster.Coordinator
	var wires []*cluster.HTTPTransport
	src := stream.Source(ds.Source())
	var routed *routingSource
	if opts.role == "coordinator" {
		trans := make([]cluster.Transport, len(peerURLs))
		wires = make([]*cluster.HTTPTransport, len(peerURLs))
		for i, p := range peerURLs {
			wires[i] = &cluster.HTTPTransport{Base: p}
			trans[i] = wires[i]
		}
		if coord, err = cluster.NewCoordinator(eng, trans); err != nil {
			return err
		}
		routed = &routingSource{src: src, coord: coord}
		src = routed
		fmt.Printf("coordinating %d shard replicas: %s\n", len(peerURLs), strings.Join(peerURLs, ", "))
	}

	// The engine owns sliding-window expiry (Config.WindowSteps), so the
	// replayer only applies events.
	rep := stream.NewReplayer(eng.Graph(), src, 0)
	if opts.resume {
		// Rebuild the snapshot by replaying the stream up to the saved step
		// (the checkpoint holds learned and runtime state, not the graph).
		for i := 0; i < resumeStep; i++ {
			if !rep.Advance() {
				return fmt.Errorf("stream ends at step %d, checkpoint is from step %d", i, resumeStep)
			}
		}
		if routed != nil && routed.err != nil {
			return routed.err
		}
		if err := eng.LoadCheckpoint(bytes.NewReader(ckptData)); err != nil {
			return err
		}
	}

	srv := &server{eng: eng, dataset: ds.Name, started: time.Now()}
	answer := serve.Answerer(srv.answerBatch)
	if coord != nil {
		// Fan /query micro-batches out across the replicas' serving mirrors;
		// anything unroutable (or any failed remote slice) is answered
		// locally, so remote serving can accelerate but never change an
		// answer. PublishStep runs under mu right after each Step so the
		// mirrors always serve the latest completed step.
		remoteFns := coord.RemoteAnswerers()
		remotes := make([]serve.Answerer, len(remoteFns))
		for i, f := range remoteFns {
			remotes[i] = serve.Answerer(f)
		}
		answer = serve.NewFanout(answer, serve.Router(coord.Route), remotes)
		srv.afterStep = func() {
			if snap := eng.QuerySnapshot(); snap != nil {
				coord.PublishStep(snap.Step())
			}
		}
		srv.extraMetrics = func(w io.Writer) {
			coord.WriteMetrics(w)
			cluster.WriteWireMetrics(w, wires)
		}
	}
	srv.batcher = serve.NewBatcher(serve.Config{MaxBatch: opts.batchMax, MaxWait: opts.batchWait}, answer)
	defer srv.batcher.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpSrv *http.Server
	httpErr := make(chan error, 1)
	if opts.listen != "" {
		httpSrv = &http.Server{Addr: opts.listen, Handler: srv.mux()}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				httpErr <- err
			}
		}()
		fmt.Printf("admin endpoints on %s (/healthz /stats /metrics)\n", opts.listen)
	}

	fmt.Printf("monitoring %s with %s (%s strategy), %d steps\n\n", ds.Name, opts.model, opts.strategy, ds.Steps)
	interrupted, err := srv.replay(ctx, rep, opts.rate)
	if err != nil {
		return err
	}
	if !interrupted {
		fmt.Printf("\nreplay finished in %v\n", time.Since(srv.started).Round(time.Millisecond))
		srv.printStatus(rep.Step())
		if opts.listen != "" {
			fmt.Println("serving until SIGINT/SIGTERM")
			select {
			case <-ctx.Done():
			case err := <-httpErr:
				return err
			}
		}
	} else {
		fmt.Printf("\nshutdown signal at step %d\n", rep.Step())
	}

	// Quiesce serving before the final checkpoint (the deferred Close above
	// is only a safety net for the error paths — Close is idempotent).
	if err := srv.shutdown(opts.ckptPath); err != nil {
		return err
	}
	if opts.ckptPath != "" {
		fmt.Printf("checkpoint written to %s\n", opts.ckptPath)
	}
	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			return err
		}
	}
	select {
	case err := <-httpErr:
		return err
	default:
	}
	return nil
}

func loadDataset(opts options) (*workload.Dataset, error) {
	if opts.input != "" {
		return loadExternal(opts.input)
	}
	return workload.ByName(opts.dataset, workload.GenConfig{Seed: opts.seed, Steps: opts.steps})
}

// loadExternal wraps a JSONL event file as a dataset with continuous link
// prediction as the workload (external streams carry no query definitions).
func loadExternal(path string) (*workload.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	batches, err := stream.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("no events in %s", path)
	}
	featDim := stream.InferFeatDim(batches)
	if featDim == 0 {
		return nil, fmt.Errorf("%s has no node events to infer the feature dimension from", path)
	}
	return &workload.Dataset{
		Name:     path,
		FeatDim:  featDim,
		Batches:  batches,
		Steps:    batches[len(batches)-1].Step + 1,
		LinkPred: true,
	}, nil
}

// server owns the engine. The replay loop and the HTTP handlers synchronize
// on mu; handlers only hold it long enough to take snapshots.
type server struct {
	mu      sync.Mutex
	eng     *streamgnn.Engine
	dataset string
	started time.Time
	done    bool // replay finished

	// batcher is the /query admission queue. Its answer path reads the
	// engine's atomic serving snapshot, NOT mu: query batches score
	// concurrently with the replay loop's Step.
	batcher *serve.Batcher

	// afterStep, when set, runs under mu right after each successful Step —
	// coordinator mode publishes the new serving snapshot to the replicas.
	afterStep func()
	// extraMetrics, when set, appends extra metric families to /metrics
	// (coordinator mode: the streamgnn_cluster_* family).
	extraMetrics func(io.Writer)
}

// answerBatch answers one flushed micro-batch against the latest published
// serving snapshot, lock-free with respect to the step loop.
func (s *server) answerBatch(reqs []query.Request) []query.Answer {
	snapshot := s.eng.QuerySnapshot()
	if snapshot == nil {
		out := make([]query.Answer, len(reqs))
		for i := range out {
			out[i] = query.Answer{Err: "no step completed yet"}
		}
		return out
	}
	return snapshot.Answer(reqs, nil)
}

// replay drives the engine until the stream ends or ctx is canceled. It
// reports whether it stopped because of a shutdown signal.
func (s *server) replay(ctx context.Context, rep *stream.Replayer, rate float64) (interrupted bool, err error) {
	var pace *time.Ticker
	if rate > 0 {
		pace = time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer pace.Stop()
	}
	for {
		select {
		case <-ctx.Done():
			return true, nil
		default:
		}
		if pace != nil {
			select {
			case <-ctx.Done():
				return true, nil
			case <-pace.C:
			}
		}
		if !rep.Advance() {
			break
		}
		t := rep.Step()
		s.mu.Lock()
		if err := s.eng.Step(); err != nil {
			s.mu.Unlock()
			return false, err
		}
		if s.afterStep != nil {
			s.afterStep()
		}
		alerts := s.eng.TakeAlerts()
		drifted := s.eng.DriftDetected()
		s.mu.Unlock()

		for _, a := range alerts {
			fmt.Printf("[step %3d] ALERT %-38q anchor %4d score %7.2f (for step %d)\n",
				t, a.Query, a.Anchor, a.Score, a.ForStep)
		}
		if drifted {
			fmt.Printf("[step %3d] DRIFT detected — query losses shifted; the online trainer is re-fitting\n", t)
		}
		if t > 0 && t%10 == 0 {
			s.printStatus(t)
		}
	}
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	return false, nil
}

// shutdown quiesces serving and then writes the final checkpoint (when
// ckptPath is non-empty). The order is load-bearing and pinned by a
// regression test: Close first drains the admission queue and waits for
// in-flight micro-batches, so the checkpoint is never captured while
// answers are still being produced — a resumed service starts from state at
// least as fresh as every answer the old process gave.
func (s *server) shutdown(ckptPath string) error {
	s.batcher.Close()
	if ckptPath == "" {
		return nil
	}
	return s.writeCheckpoint(ckptPath)
}

func (s *server) writeCheckpoint(path string) error {
	var buf bytes.Buffer
	s.mu.Lock()
	err := s.eng.SaveCheckpoint(&buf)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func (s *server) printStatus(step int) {
	s.mu.Lock()
	m := s.eng.Metrics()
	nodes, edges := s.eng.NumNodes(), s.eng.NumEdges()
	s.mu.Unlock()
	line := fmt.Sprintf("[step %3d] %d nodes, %d edges", step, nodes, edges)
	if m.EventN > 0 {
		line += fmt.Sprintf(", %d resolved, MSE %.3f, event AUC %.3f", m.EventN, m.MSE, m.EventAUC)
	}
	if m.LinkN > 0 {
		line += fmt.Sprintf(", link AUC %.3f, acc %.3f, MRR %.3f", m.LinkAUC, m.Accuracy, m.MRR)
	}
	fmt.Println(line)
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/query", s.handleQuery)
	return mux
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Queries []query.Request `json:"queries"`
}

// queryResponse is the POST /query reply: one answer per query, in request
// order, plus the stream step of the snapshot that was current when the
// response was assembled.
type queryResponse struct {
	Step    int            `json:"step"`
	Answers []query.Answer `json:"answers"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON query batch", http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, `bad request: empty "queries"`, http.StatusBadRequest)
		return
	}
	snapshot := s.eng.QuerySnapshot()
	if snapshot == nil {
		http.Error(w, "no step completed yet", http.StatusServiceUnavailable)
		return
	}
	answers := s.batcher.Submit(req.Queries)
	if answers == nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(queryResponse{Step: s.eng.QuerySnapshot().Step(), Answers: answers})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statsResponse is the /stats JSON document.
type statsResponse struct {
	Dataset       string              `json:"dataset"`
	Step          int                 `json:"step"`
	Nodes         int                 `json:"nodes"`
	Edges         int                 `json:"edges"`
	ReplayDone    bool                `json:"replay_done"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	Stats         streamgnn.Stats     `json:"stats"`
	Metrics       metricsJSON         `json:"metrics"`
	Telemetry     streamgnn.Telemetry `json:"telemetry"`
}

// metricsJSON mirrors streamgnn.Metrics with NaN-free AUC fields (JSON has
// no NaN; an undefined AUC is reported as null).
type metricsJSON struct {
	N        int      `json:"n"`
	EventN   int      `json:"event_n"`
	EventAUC *float64 `json:"event_auc"`
	MSE      float64  `json:"mse"`
	LinkN    int      `json:"link_n"`
	LinkAUC  *float64 `json:"link_auc"`
	Accuracy float64  `json:"accuracy"`
	MRR      float64  `json:"mrr"`
}

func finiteOrNil(v float64) *float64 {
	if v != v { // NaN
		return nil
	}
	return &v
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := statsResponse{
		Dataset:       s.dataset,
		Step:          s.eng.CurrentStep(),
		Nodes:         s.eng.NumNodes(),
		Edges:         s.eng.NumEdges(),
		ReplayDone:    s.done,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Stats:         s.eng.Stats(),
		Telemetry:     s.eng.Telemetry(),
	}
	m := s.eng.Metrics()
	s.mu.Unlock()
	resp.Metrics = metricsJSON{
		N: m.N, EventN: m.EventN, EventAUC: finiteOrNil(m.EventAUC), MSE: m.MSE,
		LinkN: m.LinkN, LinkAUC: finiteOrNil(m.LinkAUC), Accuracy: m.Accuracy, MRR: m.MRR,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// writeTensorPoolMetrics emits the tensor buffer pool's counters — the same
// three names on the coordinator and on a replica. Fresh bytes growing by more
// than about one embedding matrix per full forward means a forward is
// allocating its intermediates again instead of recycling them.
func writeTensorPoolMetrics(w io.Writer) {
	ps := tensor.ReadPoolStats()
	obs.WriteCounter(w, "streamgnn_tensor_pool_gets_total", "Tensor buffer requests.", obs.Value(ps.Gets))
	obs.WriteCounter(w, "streamgnn_tensor_pool_hits_total", "Tensor buffer requests served from a recycled buffer.", obs.Value(ps.Hits))
	obs.WriteCounter(w, "streamgnn_tensor_fresh_bytes_total", "Tensor buffer bytes taken fresh from the Go heap.", obs.Value(ps.FreshBytes))
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	tel := s.eng.Telemetry()
	st := s.eng.Stats()
	m := s.eng.Metrics()
	step := s.eng.CurrentStep()
	nodes, edges := s.eng.NumNodes(), s.eng.NumEdges()
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer

	obs.WriteCounter(&b, "streamgnn_steps_total", "Completed engine steps.", obs.Value(tel.Steps))
	obs.WriteHistogram(&b, "streamgnn_step_seconds", "Whole-step latency.", obs.Series{Snapshot: tel.Step})
	var phases []obs.Series
	for _, phase := range streamgnn.StepPhases() {
		phases = append(phases, obs.Series{Labels: fmt.Sprintf("phase=%q", phase), Snapshot: tel.Phases[phase]})
	}
	obs.WriteHistogram(&b, "streamgnn_step_phase_seconds", "Per-phase step latency; train overlaps forward and predict on a step that trains.", phases...)
	obs.WriteHistogram(&b, "streamgnn_step_join_wait_seconds", "Time a step waited at its join.", obs.Series{Snapshot: tel.StepJoinWait})

	obs.WriteCounter(&b, "streamgnn_forwards_total", "Forward inference passes, by mode.",
		obs.Labeled(`mode="full"`, tel.FullForwards), obs.Labeled(`mode="incremental"`, tel.IncrementalForwards))
	obs.WriteGauge(&b, "streamgnn_forward_rows", "Rows the last step's forward advanced or recomputed.", obs.Value(tel.ForwardRows))
	obs.WriteCounter(&b, "streamgnn_forward_skipped_rows_total", "Embedding rows forwards held or reused instead of computing.", obs.Value(tel.SkippedRows))
	writeDemandRows(&b, tel.ForwardDemandRows)
	if tel.DirtyFraction.Count > 0 {
		obs.WriteHistogram(&b, "streamgnn_forward_dirty_fraction", "Per-step share of the rows the forward computed.", obs.Series{Snapshot: tel.DirtyFraction})
	}

	writeTensorPoolMetrics(&b)

	if tel.Shards > 1 {
		obs.WriteGauge(&b, "streamgnn_shard_nodes", "Node occupancy per shard.", obs.Indexed("shard", tel.ShardNodes)...)
		obs.WriteCounter(&b, "streamgnn_shard_spliced_rows_total", "Embedding rows contributed per shard by sharded forwards.", obs.Indexed("shard", tel.ShardSplicedRows)...)
		obs.WriteGauge(&b, "streamgnn_cross_shard_edge_fraction", "Fraction of live edges whose endpoints live on different shards.", obs.Value(tel.CrossShardEdgeFraction))
		obs.WriteHistogram(&b, "streamgnn_shard_merge_seconds", "Cross-shard merge-phase latency.", obs.Series{Snapshot: tel.ShardMerge})
	}

	obs.WriteCounter(&b, "streamgnn_train_targets_total", "Training targets consumed, by kind.",
		obs.Labeled(`kind="self_node"`, st.SelfNodeTargets), obs.Labeled(`kind="self_edge"`, st.SelfEdgeTargets),
		obs.Labeled(`kind="sup_node"`, st.SupNodeTargets), obs.Labeled(`kind="sup_pair"`, st.SupPairTargets),
		obs.Labeled(`kind="replay"`, st.ReplayTargets))
	obs.WriteCounter(&b, "streamgnn_train_rounds_total", "Training rounds: disjoint-union evaluations of training units.", obs.Value(tel.TrainRounds))
	obs.WriteCounter(&b, "streamgnn_train_units_total", "Training units evaluated in rounds.", obs.Value(tel.TrainUnits))
	obs.WriteCounter(&b, "streamgnn_train_union_rows_total", "Rows of the rounds' union forwards.", obs.Value(tel.TrainUnionRows))
	obs.WriteCounter(&b, "streamgnn_train_want_rows_total", "Rows of the rounds' union forwards that their losses read.", obs.Value(tel.TrainWantRows))
	var parts []obs.Sample
	for _, part := range streamgnn.TrainRoundParts() {
		parts = append(parts, obs.Labeled(fmt.Sprintf("part=%q", part), tel.TrainRoundSeconds[part]))
	}
	obs.WriteCounter(&b, "streamgnn_train_round_seconds_total", "Time spent in training rounds, by part.", parts...)
	obs.WriteCounter(&b, "streamgnn_trained_partitions_total", "Node partitions trained.", obs.Value(st.TrainedPartitions))
	obs.WriteCounter(&b, "streamgnn_chip_moves_total", "Accepted chip moves (Algorithm 1).", obs.Value(st.ChipMoves))
	obs.WriteGauge(&b, "streamgnn_chip_entropy", "Normalized entropy of the chip distribution.", obs.Value(st.ChipEntropy))

	obs.WriteGauge(&b, "streamgnn_stream_step", "Next stream step to execute.", obs.Value(step))
	obs.WriteGauge(&b, "streamgnn_graph_nodes", "Nodes in the snapshot.", obs.Value(nodes))
	obs.WriteGauge(&b, "streamgnn_graph_edges", "Directed edges in the snapshot.", obs.Value(edges))

	obs.WriteGauge(&b, "streamgnn_resolved_predictions", "Resolved predictions, by task.",
		obs.Labeled(`task="event"`, m.EventN), obs.Labeled(`task="link"`, m.LinkN))
	if m.EventN > 0 && m.EventAUC == m.EventAUC {
		obs.WriteGauge(&b, "streamgnn_event_auc", "AUC over resolved event-query predictions.", obs.Value(m.EventAUC))
	}
	if m.LinkN > 0 && m.LinkAUC == m.LinkAUC {
		obs.WriteGauge(&b, "streamgnn_link_auc", "AUC over link-prediction scores.", obs.Value(m.LinkAUC))
	}

	// Query-serving instruments. The batcher's counters are atomic, so this
	// section deliberately runs outside mu — /metrics never blocks serving.
	obs.WriteCounter(&b, "streamgnn_query_answered_total", "Queries answered through the admission queue.", obs.Value(s.batcher.Queries()))
	obs.WriteCounter(&b, "streamgnn_query_batches_total", "Micro-batches flushed by the admission queue.", obs.Value(s.batcher.Batches()))
	obs.WriteGauge(&b, "streamgnn_query_queue_depth", "Queries admitted but not yet answered.", obs.Value(s.batcher.QueueDepth()))
	lat := s.batcher.LatencySnapshot()
	obs.WriteHistogram(&b, "streamgnn_query_latency_seconds", "Per-query admission-to-answer latency.", obs.Series{Snapshot: lat})
	obs.WriteGauge(&b, "streamgnn_query_latency_quantile_seconds", "Estimated query-latency quantiles.",
		obs.Labeled(`q="0.5"`, lat.Quantile(0.5)), obs.Labeled(`q="0.99"`, lat.Quantile(0.99)))
	obs.WriteHistogram(&b, "streamgnn_query_batch_size", "Flushed micro-batch sizes, in queries per batch.", obs.Series{Snapshot: s.batcher.BatchSizeSnapshot()})

	if s.extraMetrics != nil {
		s.extraMetrics(&b)
	}

	w.Write(b.Bytes())
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamgnn"
	"streamgnn/benchmarks/internal/kit"
	"streamgnn/internal/cluster"
	"streamgnn/internal/query"
	"streamgnn/internal/serve"
	"streamgnn/internal/stream"
	"streamgnn/internal/tensor"
)

// okWithin is the latency limit of query_ok_share.
const okWithin = 50 * time.Millisecond

// queryTimeout is how long a repetition waits for queries still in flight
// after its last step; a query slower than this has failed.
const queryTimeout = 2 * time.Second

// maxInFlight bounds the submit goroutines; a query that arrives while this
// many are waiting is refused, which counts as a failure.
const maxInFlight = 4096

// repMode says how a repetition is run.
type repMode struct {
	// metered turns the tensor allocation meter on and the query load off,
	// so the per-step volume is exact and repeats; its timings are not used.
	metered bool
	// rec, when non-nil, records spans and per-request answer windows.
	rec *kit.Recorder
	// engineCfg, when non-nil, edits the workload's engine configuration
	// (the mechanism matrix); loopback swaps the HTTP transport for the
	// in-process one; unpaced drives an open-loop workload closed-loop with
	// no query load. The three serve the short replays that compare step
	// throughput between configurations.
	engineCfg func(*streamgnn.Config)
	loopback  bool
	unpaced   bool
	// inProcess keeps a sharded engine's fan-out inside the process even on
	// the cluster workload (the mechanism matrix measures Config.Shards, not
	// the deployment).
	inProcess bool
}

// rig is one repetition's system under test: a fresh engine fed by a
// replayer, the admission queue in front of its serving snapshot and, for the
// cluster workload, the coordinator and its replicas.
type rig struct {
	sp   *spec
	in   *inputs
	mode repMode
	rec  *kit.Recorder

	eng     *streamgnn.Engine
	rep     *stream.Replayer
	coord   *cluster.Coordinator
	cl      *clusterRig
	batcher *serve.Batcher

	// curStep is the open engine.step or cluster.publish span, the parent of
	// the RPC spans the step loop causes.
	curStep atomic.Int64
	// snaps keeps the last few serving snapshots by step, so a remote answer
	// can be checked against the snapshot it was pinned to.
	snapMu sync.Mutex
	snaps  [8]*streamgnn.QuerySnapshot

	batches  atomic.Int64 // answered micro-batches, to sample the checks
	checked  atomic.Int64 // sampled answers recomputed
	mismatch atomic.Int64 // ... that differed from the recomputation

	// Traced runs only, indexed by request id - 1: the span of the request's
	// submit and of the micro-batch that answered it, and that batch's
	// answer window.
	submitSpan, answerSpan []int32
	ansStart, ansEnd       []time.Duration
	ansMu                  sync.Mutex
	answerMS, batchSizes   []float64
}

// querySample is one query of the load: how long after it was due it was
// answered, and whether the answer was usable.
type querySample struct {
	latency time.Duration
	ok      bool
}

// repResult is what one repetition measured.
type repResult struct {
	// calibMS are the calibration slices, one after every measured step.
	calibMS []float64
	setup   time.Duration
	steps   int
	wall    time.Duration
	cpu     time.Duration
	// userCPU and sysCPU split the measured phase's CPU by mode, the
	// calibration slices (which stay in user mode) taken out of userCPU.
	userCPU, sysCPU time.Duration

	// Per step index; the same index is the same work in every repetition.
	stepMS  []float64 // Engine.Step latency
	freshMS []float64 // batch due -> serving snapshot containing it published
	cpuMS   []float64 // process CPU from this step's due time to the next one's

	queries []querySample
	failedQ int

	digest  string
	metrics streamgnn.Metrics
	// bothClasses says the resolved event outcomes hold an event and a
	// non-event, which is when their AUC is defined.
	bothClasses bool
	// stepBytes is the tensor meter volume per step (metered repetition).
	stepBytes []int64

	checked, mismatch int64
	genLateMS         []float64
	depthMax          int64

	// Deltas over the measured steps.
	tele0, tele1   streamgnn.Telemetry
	stats0, stats1 streamgnn.Stats
	mem            memDelta
	cl             clusterCounts

	// Traced repetition only.
	phaseMS     map[string][]float64 // per step, by phase; "step" is the whole Step
	queueWaitMS []float64
	answerMS    []float64
	batchSizes  []float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTimes reads the process's CPU time so far, in user and in kernel mode.
// The sum is exact; this kernel splits it by what it finds running at its
// 250 timer ticks a second, so a split is only good over a second or more.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func cpuTime() time.Duration {
	user, sys := cpuTimes()
	return user + sys
}

// newRig builds the system for one repetition and runs its warm-up steps;
// the caller times it as set-up.
func newRig(sp *spec, in *inputs, mode repMode) (*rig, error) {
	r := &rig{sp: sp, in: in, mode: mode, rec: mode.rec}
	r.curStep.Store(-1)
	cfg := sp.cfg
	cfg.WindowSteps = in.ds.WindowSteps
	if mode.engineCfg != nil {
		mode.engineCfg(&cfg)
	}
	eng, err := streamgnn.NewEngine(in.ds.FeatDim, cfg)
	if err != nil {
		return nil, err
	}
	r.eng = eng
	for _, q := range in.ds.Queries {
		q := q
		err := eng.AddQuery(streamgnn.Query{
			Name: q.Name, Anchors: q.Anchors, Delta: q.Delta, Threshold: q.Threshold,
			Labeler: func(anchor, step int) (float64, bool) {
				return q.Labeler(eng.Graph(), anchor, step+in.truthShift)
			},
		})
		if err != nil {
			return nil, err
		}
	}
	if in.ds.LinkPred {
		eng.EnableLinkPrediction()
	}
	// The engine owns sliding-window expiry, so the replayer only applies
	// events (as cmd/queryd does).
	r.rep = stream.NewReplayer(eng.Graph(), &stream.SliceSource{Batches: in.batches}, 0)

	answer := serve.Answerer(r.answerLocal)
	if sp.cluster && cfg.Shards > 1 && !mode.inProcess {
		if err := r.startCluster(cfg.Shards); err != nil {
			r.close()
			return nil, err
		}
		remoteFns := r.coord.RemoteAnswerers()
		remotes := make([]serve.Answerer, len(remoteFns))
		for i, f := range remoteFns {
			remotes[i] = serve.Answerer(f)
		}
		answer = serve.NewFanout(answer, serve.Router(r.coord.Route), remotes)
	}
	if r.rec != nil {
		n := len(in.schedule)
		r.submitSpan, r.answerSpan = make([]int32, n), make([]int32, n)
		r.ansStart, r.ansEnd = make([]time.Duration, n), make([]time.Duration, n)
		answer = r.tracedAnswerer(answer)
	}
	r.batcher = serve.NewBatcher(serve.Config{MaxBatch: 64, MaxWait: 2 * time.Millisecond}, answer)

	for i := 0; i < sp.warm; i++ {
		if _, err := r.step(i); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	return r, nil
}

// close stops everything the rig started and waits for it.
func (r *rig) close() {
	if r.batcher != nil {
		r.batcher.Close()
	}
	if r.cl != nil {
		r.cl.stop()
	}
}

// stepTimes is what one pass of the step loop took.
type stepTimes struct {
	engine    time.Duration // Engine.Step alone
	published time.Time     // the serving snapshot containing the batch is out
}

// step feeds batch i and runs one engine step: route (cluster), advance,
// step, publish (cluster). A traced run wraps each call in a span.
func (r *rig) step(i int) (stepTimes, error) {
	var st stepTimes
	id := int64(i)
	root := r.rec.Begin("step", id, -1)
	defer r.rec.End(root)
	if r.coord != nil {
		b := r.in.batches[i]
		s := r.rec.Begin("cluster.route", id, root)
		err := r.coord.RouteEvents(b.Step, b.Events)
		r.rec.End(s)
		if err != nil {
			return st, err
		}
	}
	s := r.rec.Begin("stream.advance", id, root)
	ok := r.rep.Advance()
	r.rec.End(s)
	if !ok {
		return st, fmt.Errorf("stream ended before step %d", i)
	}
	s = r.rec.Begin("engine.step", id, root)
	r.curStep.Store(int64(s))
	t0 := time.Now()
	err := r.eng.Step()
	st.engine = time.Since(t0)
	r.rec.End(s)
	if err != nil {
		return st, err
	}
	if r.coord != nil {
		snap := r.eng.QuerySnapshot()
		r.snapMu.Lock()
		r.snaps[snap.Step()%len(r.snaps)] = snap
		r.snapMu.Unlock()
		s = r.rec.Begin("cluster.publish", id, root)
		r.curStep.Store(int64(s))
		r.coord.PublishStep(snap.Step())
		r.rec.End(s)
	}
	r.curStep.Store(-1)
	st.published = time.Now()
	return st, nil
}

func (r *rig) snapshotAt(step int) *streamgnn.QuerySnapshot {
	if step < 0 {
		return nil
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if s := r.snaps[step%len(r.snaps)]; s != nil && s.Step() == step {
		return s
	}
	return nil
}

// answerLocal answers one micro-batch off the engine's serving snapshot, as
// cmd/queryd does, and every 16th batch recomputes its first answer alone:
// a batched answer must be bit-equal to the serial one.
func (r *rig) answerLocal(reqs []query.Request) []query.Answer {
	snap := r.eng.QuerySnapshot()
	if snap == nil {
		out := make([]query.Answer, len(reqs))
		for i := range out {
			out[i] = query.Answer{Err: "no step completed yet"}
		}
		return out
	}
	answers := snap.Answer(reqs, nil)
	if r.batches.Add(1)%16 == 0 {
		r.check(answers[0], snap.Answer(reqs[:1], nil)[0])
	}
	return answers
}

func (r *rig) check(got, want query.Answer) {
	r.checked.Add(1)
	if got.OK != want.OK || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		r.mismatch.Add(1)
	}
}

// tracedAnswerer wraps the composed answer function of a traced run: one
// serve.answer span per micro-batch, parented on the submit span of its
// first request, and the answer window of every request in it.
func (r *rig) tracedAnswerer(inner serve.Answerer) serve.Answerer {
	return func(reqs []query.Request) []query.Answer {
		first := reqs[0].Node - 1
		s := r.rec.Begin("serve.answer", int64(first+1), int(r.submitSpan[first]))
		for _, q := range reqs {
			r.answerSpan[q.Node-1] = int32(s)
		}
		start := time.Now()
		answers := inner(reqs)
		end := time.Now()
		r.rec.End(s)
		ws, we := r.rec.Offset(start), r.rec.Offset(end)
		for _, q := range reqs {
			r.ansStart[q.Node-1], r.ansEnd[q.Node-1] = ws, we
		}
		r.ansMu.Lock()
		r.answerMS = append(r.answerMS, ms(end.Sub(start)))
		r.batchSizes = append(r.batchSizes, float64(len(reqs)))
		r.ansMu.Unlock()
		return answers
	}
}

// generator is the open-loop query load: one goroutine that releases each
// scheduled query at its due time into its own submit goroutine, whatever
// the system is doing.
type generator struct {
	r       *rig
	t0      time.Time
	sched   []scheduled
	halt    chan struct{} // closed to stop releasing
	done    chan struct{} // closed when the release loop has exited
	wg      sync.WaitGroup
	sem     chan struct{}
	samples []querySample
	sub     []time.Duration // submit time as a recorder offset (traced)

	// Written by the release loop, read after done.
	sent     int
	lateMS   []float64
	depthMax int64
}

func (r *rig) startGenerator(t0 time.Time) *generator {
	g := &generator{r: r, t0: t0, sched: r.in.schedule,
		halt: make(chan struct{}), done: make(chan struct{}),
		sem:     make(chan struct{}, maxInFlight),
		samples: make([]querySample, len(r.in.schedule)),
		lateMS:  make([]float64, 0, len(r.in.schedule))}
	if r.rec != nil {
		g.sub = make([]time.Duration, len(g.sched))
	}
	go g.release()
	return g
}

func (g *generator) release() {
	defer close(g.done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for j := range g.sched {
		due := g.t0.Add(g.sched[j].due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-g.halt:
				timer.Stop()
				return
			}
		} else {
			select {
			case <-g.halt:
				return
			default:
			}
		}
		g.lateMS = append(g.lateMS, ms(time.Since(due)))
		if d := g.r.batcher.QueueDepth(); d > g.depthMax {
			g.depthMax = d
		}
		g.sent = j + 1
		select {
		case g.sem <- struct{}{}:
		default:
			continue // refused: the zero sample is a failure
		}
		g.wg.Add(1)
		go g.submit(j, due)
	}
}

func (g *generator) submit(j int, due time.Time) {
	defer g.wg.Done()
	defer func() { <-g.sem }()
	rec := g.r.rec
	id := int64(j + 1)
	q := rec.Begin("query", id, -1)
	s := rec.Begin("serve.submit", id, q)
	if rec != nil {
		g.r.submitSpan[j] = int32(s)
		g.sub[j] = rec.Offset(time.Now())
	}
	answers := g.r.batcher.Submit([]query.Request{g.sched[j].req})
	lat := time.Since(due)
	rec.End(s)
	rec.End(q)
	g.samples[j] = querySample{latency: lat, ok: len(answers) == 1 && answers[0].OK}
}

// finish ends the load: a paced run lets the schedule run out, a closed-loop
// one stops releasing at once; then it waits for the queries in flight. If
// they take longer than queryTimeout the admission queue is closed, which
// flushes it and makes the stragglers return.
func (g *generator) finish(letRunOut bool) {
	if !letRunOut {
		close(g.halt)
	}
	<-g.done
	drained := make(chan struct{})
	go func() { g.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(queryTimeout):
		g.r.batcher.Close()
		<-drained
	}
}

// run is the measured phase: steps more engine steps beside the query load.
func (r *rig) run(steps int) (*repResult, error) {
	sp, mode := r.sp, r.mode
	res := &repResult{steps: steps}
	paced := sp.open() && !mode.unpaced
	loaded := !mode.metered && !mode.unpaced
	var period time.Duration
	if paced {
		period = time.Duration(float64(time.Second) / sp.pace)
	}
	if r.rec != nil {
		res.phaseMS = map[string][]float64{}
	}
	if mode.metered {
		tensor.EnableMeter(true)
		tensor.ResetMeter()
		defer tensor.EnableMeter(false)
	}
	res.tele0, res.stats0 = r.eng.Telemetry(), r.eng.Stats()
	prev := res.tele0
	var cl0 clusterCounts
	if r.cl != nil {
		cl0 = r.cl.counts(r.coord)
	}
	mem0 := readMem()
	user0, sys0 := cpuTimes()
	cpu0, t0 := user0+sys0, time.Now()
	var gen *generator
	if loaded {
		gen = r.startGenerator(t0)
	}
	var stepErr error
	cpuMark, calibCPU, calibTotal := cpu0, time.Duration(0), time.Duration(0)
	calibEvery := max(1, steps/calibSlicesPerRep)
	calibEach := max(1, calibSlicesPerRep/steps)
	for k := 0; k < steps; k++ {
		due := time.Now()
		if paced {
			due = t0.Add(time.Duration(k) * period)
			time.Sleep(time.Until(due))
		}
		if k > 0 {
			now := cpuTime()
			res.cpuMS = append(res.cpuMS, ms(now-cpuMark-calibCPU))
			cpuMark, calibCPU = now, 0
		}
		st, err := r.step(sp.warm + k)
		if err != nil {
			stepErr = err
			break
		}
		res.stepMS = append(res.stepMS, ms(st.engine))
		res.freshMS = append(res.freshMS, ms(st.published.Sub(due)))
		if k%calibEvery == 0 {
			c0 := cpuTime()
			for i := 0; i < calibEach; i++ {
				res.calibMS = append(res.calibMS, ms(calibrate()))
			}
			calibCPU = cpuTime() - c0
			calibTotal += calibCPU
		}
		if mode.metered {
			res.stepBytes = append(res.stepBytes, tensor.TotalBytes())
			tensor.ResetMeter()
		}
		if r.rec != nil {
			now := r.eng.Telemetry()
			for _, p := range streamgnn.StepPhases() {
				res.phaseMS[p] = append(res.phaseMS[p], 1e3*(now.Phases[p].Sum-prev.Phases[p].Sum))
			}
			res.phaseMS["step"] = append(res.phaseMS["step"], 1e3*(now.Step.Sum-prev.Step.Sum))
			prev = now
		}
	}
	if gen != nil {
		gen.finish(paced && stepErr == nil)
	}
	user1, sys1 := cpuTimes()
	res.wall, res.cpu = time.Since(t0), user1+sys1-cpu0
	res.userCPU, res.sysCPU = user1-user0-calibTotal, sys1-sys0
	res.cpuMS = append(res.cpuMS, ms(cpu0+res.cpu-cpuMark-calibCPU))
	res.mem = readMem().since(mem0)
	res.tele1, res.stats1 = r.eng.Telemetry(), r.eng.Stats()
	if stepErr != nil {
		return res, stepErr
	}

	if gen != nil {
		res.queries = gen.samples[:gen.sent]
		for _, q := range res.queries {
			if !q.ok || q.latency > queryTimeout {
				res.failedQ++
			}
		}
		res.genLateMS, res.depthMax = gen.lateMS, gen.depthMax
		if r.rec != nil {
			for j := 0; j < gen.sent; j++ {
				if r.ansEnd[j] > 0 {
					res.queueWaitMS = append(res.queueWaitMS, ms(r.ansStart[j]-gen.sub[j]))
				}
			}
			res.answerMS, res.batchSizes = r.answerMS, r.batchSizes
		}
	}
	res.checked, res.mismatch = r.checked.Load(), r.mismatch.Load()
	if r.cl != nil {
		res.cl = r.cl.counts(r.coord).since(cl0)
	}
	res.metrics = r.eng.Metrics()
	var events, quiet bool
	for _, o := range r.eng.Outcomes() {
		events, quiet = events || o.Event, quiet || !o.Event
	}
	res.bothClasses = events && quiet
	res.digest = r.digest()
	return res, nil
}

// digest hashes everything the engine answered: every resolved prediction,
// the quality summary and the final serving embeddings. Query serving reads
// snapshots and cannot change any of it, so every repetition of a run —
// loaded or not, local or over HTTP — must produce the same digest.
func (r *rig) digest() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for _, o := range r.eng.Outcomes() {
		h.Write([]byte(o.Query))
		u64(uint64(o.Anchor))
		u64(uint64(o.Step))
		f64(o.Score)
		f64(o.Truth)
	}
	m := r.eng.Metrics()
	u64(uint64(m.N))
	for _, v := range []float64{m.MSE, m.Accuracy, m.AUC, m.MRR, m.EventAUC, m.LinkAUC} {
		f64(v)
	}
	u64(uint64(r.eng.NumNodes()))
	u64(uint64(r.eng.NumEdges()))
	if snap := r.eng.QuerySnapshot(); snap != nil {
		u64(uint64(snap.Step()))
		for _, v := range snap.Emb().Data {
			f64(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamgnn/internal/cluster"
	"streamgnn/internal/query"
)

// clusterRig is the deployment of the cluster workload: one replica per
// shard, each behind its own localhost HTTP listener inside this process,
// and the client side that counts what crosses the wire.
type clusterRig struct {
	servers []*http.Server
	served  sync.WaitGroup
	client  *http.Client
	pool    *http.Transport

	rpcs              atomic.Int64
	bytesOut, bytesIn atomic.Int64

	mu                            sync.Mutex
	forwardMS, publishMS, replyMS []float64
}

// clusterCounts is what the cluster layer did during a repetition.
type clusterCounts struct {
	rpcs                          int64
	bytesOut, bytesIn             int64
	localFallbacks, fullSyncs     int64
	forwardMS, publishMS, replyMS []float64
}

// startCluster builds P replicas, the transports to them and the
// coordinator that installs itself as the engine's shard forwarder. Connect
// and the first full sync happen lazily, on the first warm-up steps.
func (r *rig) startCluster(shards int) error {
	cl := &clusterRig{pool: &http.Transport{MaxIdleConnsPerHost: 64}}
	r.cl = cl
	cl.client = &http.Client{Transport: countingRoundTripper{cl}, Timeout: 10 * time.Second}
	trans := make([]cluster.Transport, shards)
	for s := 0; s < shards; s++ {
		rep := cluster.NewReplica()
		rep.SetExpectShard(s)
		var inner cluster.Transport = &cluster.Loopback{R: rep}
		if !r.mode.loopback {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("replica %d listener: %w", s, err)
			}
			srv := &http.Server{Handler: cluster.NewHTTPHandler(rep)}
			cl.servers = append(cl.servers, srv)
			cl.served.Add(1)
			go func() {
				defer cl.served.Done()
				if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					fmt.Fprintln(logw, "replica server:", err)
				}
			}()
			inner = &cluster.HTTPTransport{Base: "http://" + ln.Addr().String(), Client: cl.client}
		}
		trans[s] = &timedTransport{inner: inner, r: r}
	}
	coord, err := cluster.NewCoordinator(r.eng, trans)
	if err != nil {
		return err
	}
	r.coord = coord
	return nil
}

// stop shuts the replica servers down and waits until they have exited.
func (cl *clusterRig) stop() {
	// First the client's spare connections: one it dialled and never sent a
	// request on is new to the server, and Shutdown waits five seconds for
	// such a connection before it calls it idle.
	cl.pool.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range cl.servers {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}
	cl.served.Wait()
	cl.pool.CloseIdleConnections()
}

// counts snapshots the cluster counters; fallbacks and full syncs are read
// from the coordinator's own metrics page.
func (cl *clusterRig) counts(coord *cluster.Coordinator) clusterCounts {
	var page strings.Builder
	coord.WriteMetrics(&page)
	c := clusterCounts{
		rpcs: cl.rpcs.Load(), bytesOut: cl.bytesOut.Load(), bytesIn: cl.bytesIn.Load(),
		localFallbacks: promValue(page.String(), "streamgnn_cluster_local_fallbacks_total"),
		fullSyncs:      promValue(page.String(), "streamgnn_cluster_full_syncs_total"),
	}
	cl.mu.Lock()
	c.forwardMS = append([]float64(nil), cl.forwardMS...)
	c.publishMS = append([]float64(nil), cl.publishMS...)
	c.replyMS = append([]float64(nil), cl.replyMS...)
	cl.mu.Unlock()
	return c
}

// since returns what happened after the earlier snapshot c0 (warm-up).
func (c clusterCounts) since(c0 clusterCounts) clusterCounts {
	c.rpcs -= c0.rpcs
	c.bytesOut -= c0.bytesOut
	c.bytesIn -= c0.bytesIn
	c.localFallbacks -= c0.localFallbacks
	c.fullSyncs -= c0.fullSyncs
	c.forwardMS = c.forwardMS[len(c0.forwardMS):]
	c.publishMS = c.publishMS[len(c0.publishMS):]
	c.replyMS = c.replyMS[len(c0.replyMS):]
	return c
}

// promValue reads one unlabelled sample from Prometheus text.
func promValue(page, name string) int64 {
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return int64(v)
		}
	}
	return 0
}

// countingRoundTripper counts the bytes of every request and response body.
type countingRoundTripper struct{ cl *clusterRig }

func (c countingRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		c.cl.bytesOut.Add(req.ContentLength)
	}
	resp, err := c.cl.pool.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.cl.bytesIn}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// timedTransport decorates a coordinator->replica transport: it times every
// RPC (a span in a traced run), counts them, and checks a sample of remote
// answers against the snapshot they were pinned to — a remote answer must be
// bit-equal to the local one.
type timedTransport struct {
	inner cluster.Transport
	r     *rig
}

func (t *timedTransport) timed(name string, id int64, parent int, into *[]float64, call func() error) error {
	cl := t.r.cl
	s := t.r.rec.Begin(name, id, parent)
	t0 := time.Now()
	err := call()
	d := ms(time.Since(t0))
	t.r.rec.End(s)
	cl.rpcs.Add(1)
	if into != nil {
		cl.mu.Lock()
		*into = append(*into, d)
		cl.mu.Unlock()
	}
	return err
}

func (t *timedTransport) Hello(req cluster.HelloRequest) (resp cluster.HelloResponse, err error) {
	err = t.timed("cluster.hello_rpc", -1, int(t.r.curStep.Load()), nil, func() error {
		resp, err = t.inner.Hello(req)
		return err
	})
	return resp, err
}

func (t *timedTransport) Forward(req cluster.ForwardRequest) (resp cluster.ForwardResponse, err error) {
	err = t.timed("cluster.forward_rpc", int64(req.Step), int(t.r.curStep.Load()), &t.r.cl.forwardMS, func() error {
		resp, err = t.inner.Forward(req)
		return err
	})
	return resp, err
}

func (t *timedTransport) Publish(req cluster.PublishRequest) (resp cluster.PublishResponse, err error) {
	err = t.timed("cluster.publish_rpc", int64(req.Step), int(t.r.curStep.Load()), &t.r.cl.publishMS, func() error {
		resp, err = t.inner.Publish(req)
		return err
	})
	return resp, err
}

func (t *timedTransport) Answer(req cluster.AnswerRequest) (resp cluster.AnswerResponse, err error) {
	parent, id := -1, int64(-1)
	if len(req.Reqs) > 0 {
		id = int64(req.Reqs[0].Node)
		if t.r.rec != nil {
			parent = int(t.r.answerSpan[id-1])
		}
	}
	err = t.timed("cluster.answer_rpc", id, parent, &t.r.cl.replyMS, func() error {
		resp, err = t.inner.Answer(req)
		return err
	})
	if err == nil && len(resp.Answers) == len(req.Reqs) && len(req.Reqs) > 0 && t.r.batches.Add(1)%16 == 0 {
		if snap := t.r.snapshotAt(req.Step); snap != nil && len(resp.Answers[0].Score) == 1 {
			got := resp.Answers[0]
			t.r.check(query.Answer{Score: got.Score[0], OK: got.OK}, snap.Answer(req.Reqs[:1], nil)[0])
		}
	}
	return resp, err
}

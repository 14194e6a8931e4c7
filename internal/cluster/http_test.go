package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A replica that accepts the connection and never answers must cost the step
// loop one client timeout, not hang it: Forward returns an error, the
// coordinator marks the replica down and runs its part locally, and
// embeddings, outcomes, metrics and recurrent state stay bit-equal to
// in-process shards=2.
func TestClusterStalledReplicaFallsBack(t *testing.T) {
	var stalled atomic.Bool
	release := make(chan struct{})
	var slow *HTTPTransport
	h := newHarness(t, "TGCN", 13, 48, 2, func(t *testing.T, reps []*Replica) []Transport {
		trans := httpFactory(t, reps)
		inner := NewHTTPHandler(reps[1])
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stalled.Load() {
				<-release
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		t.Cleanup(func() { close(release) }) // runs first: Close waits for the stalled handlers
		slow = &HTTPTransport{Base: srv.URL, Client: &http.Client{Timeout: 50 * time.Millisecond}}
		trans[1] = slow
		return trans
	})
	for s := 0; s < 20; s++ {
		stalled.Store(s >= 8 && s < 11)
		h.step(t, s)
		if s == 8 {
			if h.coord.reps[1].connected.Load() {
				t.Fatal("stalled replica still marked connected")
			}
			t0 := time.Now()
			if _, err := slow.Forward(ForwardRequest{}); err == nil {
				t.Fatal("Forward to a stalled replica returned no error")
			} else if d := time.Since(t0); d > 5*time.Second {
				t.Fatalf("Forward to a stalled replica took %v to fail: %v", d, err)
			}
		}
	}
	h.finish(t)
	if fmt.Sprint(h.flat.Model().DumpState()) != fmt.Sprint(h.eng.Model().DumpState()) {
		t.Fatal("recurrent state diverged across the stall")
	}
	if v := h.coord.tele.localFallbacks.Value(); v == 0 {
		t.Fatal("the stall produced no local fallback")
	}
	if !h.coord.reps[1].connected.Load() {
		t.Fatal("replica 1 never reconnected after the stall")
	}

	// queryd builds its transports without a Client; that default must be
	// bounded too.
	if c := (&HTTPTransport{}).client(); c.Timeout <= 0 {
		t.Fatalf("the nil-Client default has Timeout %v: a stalled replica would hang the step loop", c.Timeout)
	}
}

// The coordinator's /metrics reports what crossed the wire per op and
// direction, counted by the transport itself.
func TestWireBytesMetric(t *testing.T) {
	var wires []*HTTPTransport
	h := newHarness(t, "TGCN", 7, 24, 2, func(t *testing.T, reps []*Replica) []Transport {
		trans := httpFactory(t, reps)
		for _, tr := range trans {
			wires = append(wires, tr.(*HTTPTransport))
		}
		return trans
	})
	for s := 0; s < 4; s++ {
		h.step(t, s)
		h.checkRemoteServing(t, s)
	}
	var page strings.Builder
	WriteWireMetrics(&page, wires)
	for _, op := range rpcNames {
		for _, dir := range []string{"out", "in"} {
			line := fmt.Sprintf("streamgnn_cluster_wire_bytes_total{op=%q,dir=%q} ", op, dir)
			_, rest, ok := strings.Cut(page.String(), line)
			if !ok || strings.HasPrefix(rest, "0\n") {
				t.Fatalf("no bytes counted for %s:\n%s", line, page.String())
			}
		}
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"streamgnn/internal/obs"
)

// The HTTP transport carries the same messages as Loopback, each as one
// binary frame (frame.go) in a POST body and one in the 200 reply, so
// localhost HTTP replicas are held to the same bit-equality bar as
// in-process ones. Application errors come back as a non-200 status with a
// JSON {"error": "..."} body: a sentence for a log or a curl, not data.

// The four RPCs, indexing rpcNames and HTTPTransport's byte counters.
const (
	rpcHello = iota
	rpcForward
	rpcPublish
	rpcAnswer
)

var rpcNames = [...]string{"hello", "forward", "publish", "answer"}

const (
	frameContentType = "application/octet-stream"
	// maxFramePrealloc caps what a peer's announced Content-Length may
	// reserve before its bytes arrive; longer bodies grow as they are read.
	maxFramePrealloc = 16 << 20
)

// NewHTTPHandler serves a Replica's four RPCs under /cluster/.
func NewHTTPHandler(r *Replica) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/hello", func(w http.ResponseWriter, req *http.Request) {
		serveRPC(w, req, r.HandleHello)
	})
	mux.HandleFunc("/cluster/forward", func(w http.ResponseWriter, req *http.Request) {
		serveRPC(w, req, r.HandleForward)
	})
	mux.HandleFunc("/cluster/publish", func(w http.ResponseWriter, req *http.Request) {
		serveRPC(w, req, r.HandlePublish)
	})
	mux.HandleFunc("/cluster/answer", func(w http.ResponseWriter, req *http.Request) {
		serveRPC(w, req, r.HandleAnswer)
	})
	return mux
}

// serveRPC decodes the request frame, and only when all of it decoded hands
// the message to handle: a bad frame never reaches the replica.
func serveRPC[Req, Resp any, PReq framePtr[Req], PResp framePtr[Resp]](w http.ResponseWriter, r *http.Request, handle func(Req) (Resp, error)) {
	if r.Method != http.MethodPost {
		http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
		return
	}
	var req Req
	body, err := readFrame(r.Body, r.ContentLength)
	if err == nil {
		err = decodeFrame(body, PReq(&req))
	}
	if err != nil {
		writeRPCError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := handle(req)
	if err != nil {
		writeRPCError(w, http.StatusConflict, err)
		return
	}
	frame := encodeFrame(PResp(&resp))
	w.Header().Set("Content-Type", frameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// readFrame reads a whole body into one buffer sized by the announced
// length (plus the spare bytes.Buffer wants to see EOF without growing).
func readFrame(r io.Reader, announced int64) ([]byte, error) {
	var buf bytes.Buffer
	if announced > 0 {
		buf.Grow(int(min(announced, maxFramePrealloc)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func writeRPCError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}

// A stalled replica — one that accepts the connection and never answers —
// must surface as an RPC error so the coordinator falls back locally, and
// concurrent Answer RPCs from the serving goroutines must find idle
// connections to reuse: http.DefaultClient gives neither.
const (
	rpcTimeout      = 10 * time.Second
	rpcIdleConnsPer = 64
)

var defaultClient = func() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = rpcIdleConnsPer
	return &http.Client{Transport: tr, Timeout: rpcTimeout}
}()

// HTTPTransport is the coordinator-side client for a replica served by
// NewHTTPHandler at Base (e.g. "http://127.0.0.1:9201").
type HTTPTransport struct {
	Base   string
	Client *http.Client // nil means the package's client: rpcTimeout per request, rpcIdleConnsPer idle connections

	wire [len(rpcNames)][2]atomic.Int64 // body bytes per op: [0] sent, [1] received
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return defaultClient
}

func (t *HTTPTransport) call(op int, req, resp frameMessage) error {
	name := rpcNames[op]
	body := encodeFrame(req)
	url := strings.TrimRight(t.Base, "/") + "/cluster/" + name
	t.wire[op][0].Add(int64(len(body)))
	httpResp, err := t.client().Post(url, frameContentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		var appErr struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		t.wire[op][1].Add(int64(len(raw)))
		if json.Unmarshal(raw, &appErr) == nil && appErr.Error != "" {
			return fmt.Errorf("cluster: %s: %s", name, appErr.Error)
		}
		return fmt.Errorf("cluster: %s: HTTP %d", name, httpResp.StatusCode)
	}
	raw, err := readFrame(httpResp.Body, httpResp.ContentLength)
	t.wire[op][1].Add(int64(len(raw)))
	if err != nil {
		return fmt.Errorf("cluster: %s: reading the reply: %w", name, err)
	}
	return decodeFrame(raw, resp)
}

func (t *HTTPTransport) Hello(req HelloRequest) (HelloResponse, error) {
	var resp HelloResponse
	err := t.call(rpcHello, &req, &resp)
	return resp, err
}

func (t *HTTPTransport) Forward(req ForwardRequest) (ForwardResponse, error) {
	var resp ForwardResponse
	err := t.call(rpcForward, &req, &resp)
	return resp, err
}

func (t *HTTPTransport) Publish(req PublishRequest) (PublishResponse, error) {
	var resp PublishResponse
	err := t.call(rpcPublish, &req, &resp)
	return resp, err
}

func (t *HTTPTransport) Answer(req AnswerRequest) (AnswerResponse, error) {
	var resp AnswerResponse
	err := t.call(rpcAnswer, &req, &resp)
	return resp, err
}

// WriteWireMetrics appends streamgnn_cluster_wire_bytes_total: the RPC body
// bytes trans sent and received, summed over the replicas, per op.
func WriteWireMetrics(w io.Writer, trans []*HTTPTransport) {
	var samples []obs.Sample
	for op, opName := range rpcNames {
		for dir, dirName := range [...]string{"out", "in"} {
			var n int64
			for _, t := range trans {
				n += t.wire[op][dir].Load()
			}
			samples = append(samples, obs.Labeled(fmt.Sprintf("op=%q,dir=%q", opName, dirName), n))
		}
	}
	obs.WriteCounter(w, "streamgnn_cluster_wire_bytes_total", "RPC body bytes the coordinator sent (out) and received (in).", samples...)
}

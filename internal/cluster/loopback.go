package cluster

// Loopback is the in-process Transport: direct method calls into a Replica
// living in the same process, no encoding and no copies of its own. It
// exists to prove the protocol exact — a coordinator driving P loopback
// replicas must produce bit-identical embeddings, answers and checkpoints to
// a single-process engine with Config.Shards = P — and to give tests a place
// to inject failures without sockets.
type Loopback struct {
	R *Replica
	// Fail, when set, is consulted before every RPC with the op name
	// ("hello", "forward", "publish", "answer"); a non-nil return is
	// surfaced as the transport error. Tests use it to knock a replica
	// out for a step range and watch the coordinator fall back locally.
	Fail func(op string) error
}

// call runs handle unless Fail refuses op.
func call[Req, Resp any](l *Loopback, op string, req Req, handle func(Req) (Resp, error)) (resp Resp, err error) {
	if l.Fail != nil {
		if err = l.Fail(op); err != nil {
			return resp, err
		}
	}
	return handle(req)
}

func (l *Loopback) Hello(req HelloRequest) (HelloResponse, error) {
	return call(l, "hello", req, l.R.HandleHello)
}

func (l *Loopback) Forward(req ForwardRequest) (ForwardResponse, error) {
	return call(l, "forward", req, l.R.HandleForward)
}

func (l *Loopback) Publish(req PublishRequest) (PublishResponse, error) {
	return call(l, "publish", req, l.R.HandlePublish)
}

func (l *Loopback) Answer(req AnswerRequest) (AnswerResponse, error) {
	return call(l, "answer", req, l.R.HandleAnswer)
}

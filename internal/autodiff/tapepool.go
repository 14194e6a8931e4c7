package autodiff

// maxPooledTapes bounds the tapes a TapePool keeps; more may be out at once. It
// is well above the borrowers that run at once — a step's shard parts — and a
// kept tape is node shells and a plan, no buffers.
const maxPooledTapes = 64

// TapePool lends inference tapes to forwards that borrow one at a time from
// any goroutine: a step's shard parts. A tape brings back its node
// shells and its learned plan, and the plan decides which ops write in place
// and so how many floats a forward allocates. A sync.Pool would drop tapes at
// garbage collection and keep them per P, which would make that count depend
// on the collector and the scheduler; a TapePool keeps every tape handed back,
// up to maxPooledTapes, and lends them in the order they came back.
type TapePool struct{ free chan *Tape }

// NewTapePool returns an empty pool.
func NewTapePool() *TapePool { return &TapePool{free: make(chan *Tape, maxPooledTapes)} }

// Get returns a tape handed back earlier, or a new inference tape.
func (p *TapePool) Get() *Tape {
	select {
	case t := <-p.free:
		return t
	default:
		return NewInferenceTape()
	}
}

// Put hands a released tape back.
func (p *TapePool) Put(t *Tape) {
	select {
	case p.free <- t:
	default:
	}
}

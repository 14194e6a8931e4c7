// Stub of the real streamgnn/internal/autodiff package, just enough surface
// for poolsafe fixtures (the analyzer matches by import-path suffix).
package autodiff

import "streamgnn/internal/tensor"

// Node is a tape node whose buffers belong to the tape.
type Node struct{ Value *tensor.Matrix }

// Tape records operations and owns the node storage.
type Tape struct{}

// NewTape returns a tape.
func NewTape() *Tape { return &Tape{} }

// Release recycles every node the tape produced.
func (t *Tape) Release() {}

// Add is a tape operation producing a node.
func (t *Tape) Add(a, b *Node) *Node { return &Node{} }

// ScatterRows is a tape operation over two nodes and an index list.
func (t *Tape) ScatterRows(base, src *Node, rows []int) *Node { return &Node{} }

// Head is a tape operation copying a node's leading rows.
func (t *Tape) Head(a *Node, rows int) *Node { return &Node{} }

// MSESeg is a tape operation over a node, a constant and segment ends.
func (t *Tape) MSESeg(pred *Node, target *tensor.Matrix, ends []int) *Node { return &Node{} }

// Forward is a free function taking the tape and producing a node.
func Forward(tp *Tape, x *tensor.Matrix) *Node { return &Node{} }

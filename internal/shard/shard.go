// Package shard partitions the node-id space of a graph stream into P
// disjoint shards, the unit of parallelism of the engine's sharded forward:
// the incremental forward groups its compute region's connected components
// by the shard owning each one's smallest id, forwards each group on its own
// worker (or cluster replica), and merges the rows in shard order.
// Ownership is a pure function of (node id, shard count, layout) — no state,
// no randomness — so a seeded run assigns identical shards on every
// execution and a checkpointed layout can be re-derived exactly on resume.
package shard

import "fmt"

// Layout selects the ownership function mapping node ids to shards.
type Layout int

const (
	// Hash scatters ids with a multiplicative bit-mix: occupancy stays
	// balanced for any id distribution, at the cost of splitting runs of
	// consecutive ids (an L-hop ball of a fresh region) across shards.
	Hash Layout = iota
	// Range assigns blocks of RangeBlock consecutive ids round-robin:
	// neighborhoods of consecutively numbered nodes stay shard-local, so
	// per-shard compute regions overlap less than under Hash.
	Range
)

// RangeBlock is the run length of consecutive ids a Range layout keeps on
// one shard before moving to the next.
const RangeBlock = 256

// String returns the layout's config spelling.
func (l Layout) String() string {
	switch l {
	case Hash:
		return "hash"
	case Range:
		return "range"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ParseLayout resolves a layout name; the empty string means the Hash
// default.
func ParseLayout(name string) (Layout, error) {
	switch name {
	case "", "hash":
		return Hash, nil
	case "range":
		return Range, nil
	default:
		return 0, fmt.Errorf("shard: unknown layout %q (want \"hash\" or \"range\")", name)
	}
}

// Sharding is a fixed partition of the node-id space into P shards.
type Sharding struct {
	P      int
	Layout Layout
}

// New returns a sharding over p shards (p >= 1) with the given layout.
func New(p int, l Layout) (*Sharding, error) {
	if p < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1, got %d", p)
	}
	if l != Hash && l != Range {
		return nil, fmt.Errorf("shard: invalid layout %d", int(l))
	}
	return &Sharding{P: p, Layout: l}, nil
}

// Of returns the shard owning node v, in [0, P).
func (s *Sharding) Of(v int) int {
	if s.P <= 1 {
		return 0
	}
	if s.Layout == Range {
		return (v / RangeBlock) % s.P
	}
	// SplitMix64-style finalizer: a fixed odd multiplier then xor-fold, so
	// nearby ids land on unrelated shards without any stored table.
	x := uint64(v) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	return int(x % uint64(s.P))
}

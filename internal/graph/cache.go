package graph

// PartitionCache is empty: partitions are extracted fresh on every call
// (DESIGN.md §8).
//
// Deprecated: kept only while the benchmark harness still flushes it;
// ROADMAP item 1(e) removes it.
type PartitionCache struct{}

// Flush does nothing.
//
// Deprecated: see PartitionCache.
func (*PartitionCache) Flush() {}

// PartitionCache returns nil: no cache is ever attached.
//
// Deprecated: see PartitionCache.
func (*Dynamic) PartitionCache() *PartitionCache { return nil }

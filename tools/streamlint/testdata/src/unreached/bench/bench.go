// Package bench stands in for the benchmarks module: a unit loaded on its
// own, whose references into the program are roots.
package bench

import "unreached/internal/lib"

// Run calls what only the benchmark uses.
func Run() { lib.BenchOnly() }

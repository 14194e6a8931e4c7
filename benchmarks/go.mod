// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the import path stays under streamgnn/
// so the layer micro-rows may import streamgnn/internal/... .
module streamgnn/benchmarks

go 1.22

require streamgnn v0.0.0

replace streamgnn => ../

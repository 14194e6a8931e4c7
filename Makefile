# Convenience targets; everything is plain go tooling underneath.

GO ?= go

.PHONY: build test race lint fmt count bench bench-check bench-kernels

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint mirrors the CI lint job: formatting, go vet, and the repository's own
# invariant checker (tools/streamlint — determinism, pool safety, checkpoint
# completeness, atomic alignment).
lint:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./tools/streamlint ./...

fmt:
	gofmt -w .

# count prints ROADMAP's three north-star counters, so a PR's CHANGES line can
# quote numbers anyone can reproduce: lines of the non-test Go files outside
# benchmarks/, tools/ and examples/ (and of internal/graph alone), fields of
# streamgnn.Config, flags that cmd/queryd defines.
count:
	@src() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './tools/*' ! -path './examples/*' ! -path './.bench_build/*'; }; \
	echo "non-test lines: $$(src . | xargs cat | wc -l) (internal/graph: $$(src ./internal/graph | xargs cat | wc -l))"
	@echo "Config fields: $$(sed -n '/^type Config struct {/,/^}/p' streamgnn.go | grep -cE '^	[A-Z][A-Za-z]* ')"
	@echo "queryd flags: $$(grep -cE '\bflag\.[A-Z][A-Za-z0-9]*\((&[A-Za-z.]+, )?"' cmd/queryd/main.go) (streambench: $$(grep -cE '\bfs\.[A-Z][A-Za-z0-9]*\("' cmd/streambench/main.go))"

# bench-check covers benchmarks/ — a module of its own that imports this
# repository's internal packages, which build, test and lint above do not see:
# an internal API change that breaks the benchmark build fails here.
bench-check:
	$(GO) -C benchmarks vet ./...
	$(GO) -C benchmarks test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-kernels times the four dense kernels at the end-to-end ledger's
# shapes (MAC/s per case) and one diffusion convolution of the taxi-infer
# forward with 95 % and 0 % of the nodes isolated; BENCHTIME=1x is the CI smoke.
BENCHTIME ?= 1s
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkDenseKernels|BenchmarkDiffusionConv' -benchtime $(BENCHTIME) ./internal/tensor ./internal/nn

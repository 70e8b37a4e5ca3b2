# `make check` is the pre-merge gate: static analysis (gofmt, go vet,
# hermeslint, `hermes lint` on the examples), build, the test suite
# under the race detector, and the seconds-scale smoke gates.
#
# hermes-bench experiments are addressed by name through three pattern
# rules (EXPERIMENTS.md lists each experiment's columns and thresholds;
# `hermes-bench -exp '?'` lists the names and the modes each supports):
#   make smoke-<exp>     machine-independent in-run checks, small sweep
#   make baseline-<exp>  regenerate the committed BENCH_<exp>.json (quiet machine)
#   make compare-<exp>   diff a fresh run against BENCH_<exp>.json by column kind
#   make profile-<exp>   CPU + heap profiles of one run, under results/

GO ?= go

# The smoke gates `make check` runs, and the baselines recorded with
# -full (the largest sweep point; minutes).
SMOKES := core survive shard equiv traffic regionreplan rollout replan
FULL   := shard regionreplan

.PHONY: check lint vet fmt-check hermeslint build test race bench-smoke bench benchmark benchmark-smoke

check: lint build race bench-smoke $(SMOKES:%=smoke-%) benchmark-smoke

smoke-%:
	$(GO) run ./cmd/hermes-bench -exp $* -smoke

baseline-%:
	$(GO) run ./cmd/hermes-bench -exp $* $(if $(filter $*,$(FULL)),-full) -json BENCH_$*.json

compare-%:
	$(GO) run ./cmd/hermes-bench -exp $* -compare BENCH_$*.json

# Inspect with `go tool pprof results/<exp>.cpu.pprof` (or .mem.pprof);
# `make profile-core` profiles the cold Greedy solve and the kernels,
# `make profile-replan` the incremental repair.
profile-%:
	@mkdir -p results
	$(GO) run ./cmd/hermes-bench -exp $* \
		-cpuprofile results/$*.cpu.pprof -memprofile results/$*.mem.pprof

# Static analysis gate: gofmt (no unformatted files), go vet, and the
# repo-specific hermeslint pass (mutex/Clone conventions around the
# concurrent path oracle). `hermes lint` on the shipped examples keeps
# the p4lite diagnostics demo honest: bad.p4 must fail, the clean
# examples must pass.
lint: fmt-check vet hermeslint
	$(GO) run ./cmd/hermes lint examples/p4src/monitor.p4 examples/p4src/router.p4
	@if $(GO) run ./cmd/hermes lint examples/p4src/bad.p4 >/dev/null 2>&1; then \
		echo "bad.p4 must fail hermes lint" >&2; exit 1; \
	else \
		echo "hermes lint rejects bad.p4 (expected)"; \
	fi

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

hermeslint:
	$(GO) run ./cmd/hermeslint .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One-shot run of the parallel speedup benchmark: proves the worker
# plumbing still functions.
bench-smoke:
	$(GO) test -run xxx -bench ParallelSpeedup -benchtime 1x .

# The whole-lifecycle benchmark BENCHMARK.json declares (deploy → gated
# deploy → heal → replay over four workloads; minutes). Every perf or
# simplification change is judged by it: see benchmark/README.md.
benchmark:
	$(GO) run ./benchmark

# The same phases with 2–3 ops each on shrunken inputs (seconds): all
# output checks must pass.
benchmark-smoke:
	$(GO) run ./benchmark -smoke

# Full benchmark sweep (minutes; the Exp* benchmarks regenerate the
# paper's figures).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

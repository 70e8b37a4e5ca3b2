# Pre-merge check: run `make check` before sending a change. It is the
# union of everything CI would need: formatting and static analysis
# (gofmt, go vet, the repo's own hermeslint vet pass), build, the full
# test suite under the race detector (the placement engine is
# concurrent — racy code must not land), a one-shot smoke run of
# the parallel speedup benchmark to prove the worker plumbing still
# functions, a small replan-baseline smoke run proving the
# machine-readable bench output still emits, the core kernel smoke
# gate proving the compiled scoring kernels hold their speed/alloc
# floors over the retained map references, the chaos smoke gate
# proving the fault-tolerant supervisor still recovers from an
# injected fault schedule via incremental repair with zero invariant
# violations, the shard smoke gate proving region-sharded
# placement still beats the whole-graph solver at equal workers with
# bounded A_max inflation, and the equiv smoke gate proving the
# symbolic plan-equivalence checker holds its 10 ms-per-program budget
# and allocation-free fast path against the packet-replay twin, and
# the traffic smoke gate proving weighted plans cut the hot-pair
# coordination byte-rate >=2x at <=1.2x A_max inflation while the
# batched replay engine stays >=10x faster than the per-packet
# interpreter at zero allocations per packet, and the region-replan
# smoke gate proving churn heals through the region-local incremental
# path >=10x faster than a sharded cold re-solve with bounded A_max
# and matching equivalence verdicts, and the rollout smoke gate
# proving the transactional make-before-break rollout engine survives
# faults injected at every op boundary with zero torn serving states,
# exercises both terminals (commit and rollback), and resumes every
# interrupted rollout from its journal, and the whole-lifecycle
# benchmark's smoke run proving every workload still deploys, heals and
# replays through the facade with all output checks green.

GO ?= go

.PHONY: check lint vet fmt-check hermeslint build test race bench-smoke bench bench-json replan-smoke core-smoke chaos-smoke shard-smoke equiv-smoke traffic-smoke regionreplan-smoke rollout-smoke bench-core-json bench-compare bench-survive-json bench-survive-compare bench-shard-json bench-shard-compare bench-equiv-json bench-equiv-compare bench-traffic-json bench-traffic-compare bench-regionreplan-json bench-regionreplan-compare bench-rollout-json bench-rollout-compare benchmark benchmark-smoke profile

check: lint build race bench-smoke replan-smoke core-smoke chaos-smoke shard-smoke equiv-smoke traffic-smoke regionreplan-smoke rollout-smoke benchmark-smoke

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

bench-smoke:
	$(GO) test -run xxx -bench ParallelSpeedup -benchtime 1x .

# Machine-readable replan baseline (Exp#7): BENCH_replan.json records
# replan latency, moved MATs, and A_max degradation vs the cold solve,
# so regressions in the incremental path are diffable across commits.
bench-json:
	$(GO) run ./cmd/hermes-bench -exp exp7 -json BENCH_replan.json -csv results

# 10-program 1x smoke of the same path (seconds, not minutes).
replan-smoke:
	@mkdir -p results
	$(GO) run ./cmd/hermes-bench -exp exp7 -programs 10 -json results/BENCH_replan_smoke.json

# Machine-independent smoke gate over the compiled scoring kernels:
# each kernel must beat its retained map-based reference by >=5x ns/op
# and either allocate nothing or beat it >=10x allocs/op. Ratios are
# measured in-process, so the gate holds on any machine.
core-smoke:
	$(GO) run ./cmd/hermes-bench -exp core -smoke

# Survivability smoke gate (Exp#8, shortest schedule): the supervised
# deployment must recover from the single-crash event through the
# incremental repair path, replan at least once over the fault
# schedule, shed nothing permanently, and pass the full oracle stack
# (Plan.Validate, lint differential oracle, deploy.Verify) at every
# quiescent point.
chaos-smoke:
	$(GO) run ./cmd/hermes-bench -exp exp8 -smoke

# Region-sharding smoke gate (Exp#10, small sweep): the sharded solver
# must not fall back, must beat the whole-graph Greedy outright on the
# same instance at equal workers, and may inflate A_max at most 1.5x.
# Both sides run in-process, so the gate holds on any machine.
shard-smoke:
	$(GO) run ./cmd/hermes-bench -exp exp10 -smoke

# Equivalence-checker smoke gate: every fixture's symbolic check must
# come in under the 10 ms-per-program budget, the real-program fixture
# must stay on the allocation-free fast path, and the symbolic check
# must beat the packet-replay twin >=5x. Ratios are measured
# in-process, so the gate holds on any machine.
equiv-smoke:
	$(GO) run ./cmd/hermes-bench -exp equiv -smoke

# Traffic smoke gate (Exp#9): on every skewed traffic model the
# weighted solver must cut the hot-pair coordination byte-rate >=2x
# vs the structural A_max-optimal plan at <=1.2x A_max inflation, and
# the batched replay engine must process packets >=10x faster than
# the per-packet interpreter with zero steady-state allocations per
# packet. All ratios are measured in-process, so the gate holds on
# any machine.
traffic-smoke:
	$(GO) run ./cmd/hermes-bench -exp traffic -smoke

# Regenerate the committed survivability baseline (BENCH_survive.json
# is what bench-survive-compare diffs against).
bench-survive-json:
	$(GO) run ./cmd/hermes-bench -exp exp8 -json BENCH_survive.json

# Survivability regression gate: fails if the structural outcome
# drifted from the committed BENCH_survive.json — single-crash repair
# falling back to a full solve, new invariant violations, changed
# shed/restore behavior, or >10% A_max inflation drift. Wall-clock
# times are ignored (machine-dependent).
bench-survive-compare:
	$(GO) run ./cmd/hermes-bench -exp exp8 -compare BENCH_survive.json

# Regenerate the committed core kernel baseline (run on a quiet
# machine; BENCH_core.json is what bench-compare diffs against).
bench-core-json:
	$(GO) run ./cmd/hermes-bench -exp core -json BENCH_core.json

# Perf regression gate: fails if a compiled kernel regressed >10%
# ns/op against the committed BENCH_core.json AND its in-run
# map/compiled ratio degraded >10% (the dual condition filters out
# machine-speed skew between the baseline host and this one).
bench-compare:
	$(GO) run ./cmd/hermes-bench -exp core -compare BENCH_core.json

# Regenerate the committed sharded-placement baseline, including the
# 10k-switch / 5k-program point (minutes; run on a quiet machine).
bench-shard-json:
	$(GO) run ./cmd/hermes-bench -exp exp10 -full -json BENCH_shard.json

# Sharding regression gate: a comparison row fails only if its solve
# time regressed >10% against the committed BENCH_shard.json AND its
# in-run speedup over the whole-graph solver degraded >10% (the dual
# condition filters machine-speed skew); the sharded-only 10k row is
# held to its structural invariants instead.
bench-shard-compare:
	$(GO) run ./cmd/hermes-bench -exp exp10 -compare BENCH_shard.json

# Regenerate the committed equivalence-checker baseline (run on a
# quiet machine; BENCH_equiv.json is what bench-equiv-compare diffs
# against).
bench-equiv-json:
	$(GO) run ./cmd/hermes-bench -exp equiv -json BENCH_equiv.json

# Equivalence-checker regression gate: a fixture fails only if its
# symbolic ns/op regressed >10% against the committed BENCH_equiv.json
# AND its in-run replay/symbolic ratio degraded >10% (the dual
# condition filters machine-speed skew), or if a fixture that was
# allocation-free in the baseline now allocates.
bench-equiv-compare:
	$(GO) run ./cmd/hermes-bench -exp equiv -compare BENCH_equiv.json

# Region-replan smoke gate (Exp#11, small sweep): every cell must heal
# the busiest-switch drain through the region-local path without a
# full-solve fallback, hold A_max within 1.2x of the sharded cold
# re-solve (unless the pre-drain seed was already worse), agree with
# the full equivalence checker, and the composite:30 headline must
# heal >=10x faster than the cold re-solve. Both sides are measured
# in-process, so the gate holds on any machine.
regionreplan-smoke:
	$(GO) run ./cmd/hermes-bench -exp regionreplan -smoke

# Regenerate the committed region-replan baseline, including the
# composite:60 point. Baseline mode repeats the sweep and records the
# per-row noise envelope (slowest healing, lowest speedup) so the
# compare gate is stable at the ~2ms scale of these cells.
bench-regionreplan-json:
	$(GO) run ./cmd/hermes-bench -exp regionreplan -full -json BENCH_regionreplan.json

# Region-replan regression gate: a row fails only if its regional
# healing time regressed >10% against the committed
# BENCH_regionreplan.json AND its in-run speedup over the cold
# re-solve degraded >25% (the dual condition filters machine-speed
# skew and single-process GC jitter at millisecond scale).
bench-regionreplan-compare:
	$(GO) run ./cmd/hermes-bench -exp regionreplan -compare BENCH_regionreplan.json

# Rollout smoke gate (Exp#12, smallest substrate): a fixed old→new
# plan transition executed once per injection point, with a fault —
# targeted crash, process interrupt with journal resume, or seeded
# ambient event — landing at a rotating op boundary. Must report zero
# torn-state violations, at least one commit and one rollback, and
# every interrupted rollout resumed. Outcomes are a pure function of
# the seed, so the gate holds on any machine.
rollout-smoke:
	$(GO) run ./cmd/hermes-bench -exp rollout -smoke

# Regenerate the committed rollout fault baseline (BENCH_rollout.json
# is what bench-rollout-compare diffs against).
bench-rollout-json:
	$(GO) run ./cmd/hermes-bench -exp rollout -json BENCH_rollout.json

# Rollout regression gate: fails if the seed-determined structure
# drifted from the committed BENCH_rollout.json — changed op count,
# shifted commit/rollback/degrade partition, lost journal resumes,
# changed retry totals, or any invariant violation. Wall-clock
# latency is ignored (machine-dependent).
bench-rollout-compare:
	$(GO) run ./cmd/hermes-bench -exp rollout -compare BENCH_rollout.json

# Regenerate the committed traffic baseline (run on a quiet machine;
# BENCH_traffic.json is what bench-traffic-compare diffs against).
bench-traffic-json:
	$(GO) run ./cmd/hermes-bench -exp traffic -json BENCH_traffic.json

# Traffic regression gate: plan-quality rows are deterministic in the
# seed and fail on >10% hot-pair-cut regression (plus the absolute
# >=2x / <=1.2x acceptance bars); the machine-dependent throughput row
# fails only if batched ns/op regressed >10% against the committed
# BENCH_traffic.json AND the in-run speedup over the per-packet
# interpreter degraded >10%, or if it allocates where the baseline
# was allocation-free.
bench-traffic-compare:
	$(GO) run ./cmd/hermes-bench -exp traffic -compare BENCH_traffic.json

# The whole-lifecycle benchmark BENCHMARK.json declares (deploy → gated
# deploy → heal → replay over four workloads; minutes). Every perf or
# simplification change is judged by it: see benchmark/README.md.
benchmark:
	$(GO) run ./benchmark

# The same phases with 2–3 ops each on shrunken inputs (seconds): all
# output checks must pass.
benchmark-smoke:
	$(GO) run ./benchmark -smoke

# CPU + heap profiles of the incremental replan path; inspect with
# `go tool pprof results/cpu.pprof` / `go tool pprof results/mem.pprof`.
profile:
	@mkdir -p results
	$(GO) run ./cmd/hermes-bench -exp exp7 -programs 20 \
		-cpuprofile results/cpu.pprof -memprofile results/mem.pprof \
		-json results/BENCH_replan_profile.json

# Full benchmark sweep (minutes; the Exp* benchmarks regenerate the
# paper's figures).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

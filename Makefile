GO ?= go

.PHONY: build test vet staticcheck race check perfbench bench bench-smoke bench-diff

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 20m ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The tool is not vendored and `make check`
# must work in a hermetic container, so the target is a no-op (with a
# notice) when staticcheck is not on PATH; CI installs a pinned version
# so the gate always runs there (see .github/workflows/ci.yml).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# The telemetry subsystem, the parallel explorer, the backend's
# shared-kernel/scratch machinery, the persistent evaluation cache,
# the job-queueing HTTP server, and the distributed-exploration
# coordinator (plus the context-cancellation paths threaded through
# all of them) are the places where data races could hide; run them
# under the race detector. Explicit -timeout so a deadlock fails the
# build with goroutine dumps instead of hanging CI to its job limit.
race:
	$(GO) test -race -timeout 20m ./internal/obs/... ./internal/dse/... ./internal/sched/... ./internal/evcache/... ./internal/fleetcache/... ./internal/serve/... ./internal/dist/... ./internal/ops/...

# One-iteration pass over the exploration, cold spill path and fleet
# benchmarks: catches bit-rot in the benchmark harness without paying
# for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/dse/
	$(GO) test -run '^$$' -bench BenchmarkCompileSpill -benchtime 1x ./internal/sched/
	$(GO) test -run '^$$' -bench BenchmarkFleetWarm -benchtime 1x ./internal/dist/

# The repository benchmark (perfbench/) is its own Go module, so the
# root build and tests never compile it; vet and test it here so an API
# change that breaks it fails the check instead of the benchmark run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Extended verify: everything the tier-1 gate runs, plus vet,
# staticcheck (when installed), the race pass, the benchmark smoke and
# the repository benchmark's module (see ROADMAP.md).
check: build vet staticcheck test race bench-smoke perfbench

# Measure the exploration, cold spill path and fleet benchmarks and
# record the trajectory against the pre-optimization baseline (the
# cfp-benchjson parser handles multi-package `go test` output; see
# docs/PERFORMANCE.md).
bench:
	( $(GO) test -run '^$$' -bench . -benchmem ./internal/dse/ && \
	  $(GO) test -run '^$$' -bench BenchmarkCompileSpill -benchmem -cpu 1 ./internal/sched/ && \
	  $(GO) test -run '^$$' -bench BenchmarkFleetWarm -benchmem ./internal/dist/ ) | \
		$(GO) run ./cmd/cfp-benchjson \
			-baseline internal/dse/testdata/bench_baseline_pr2.txt \
			-baseline-note "pre-optimization seed (PR2 start)" \
			-o BENCH_explore.json
	@echo wrote BENCH_explore.json

# Regression gate: re-measure the tracked benchmarks and fail if one
# regressed beyond its limit against the recorded trajectory in
# BENCH_explore.json. Repeats gated on the minimum, so scheduler noise
# cannot fail an unchanged tree. BenchmarkExploreSubset gates ns/op and
# allocs/op at 10%. BenchmarkExploreOpsSubset (the op-crossed grid, so
# pattern rewrite and custom-unit scheduling are on the measured path)
# gates ns/op only, at 15% — fused placement makes its allocation
# profile noisier than the op-free twin. BenchmarkCompileSpill (one
# compile through seven spill rounds: the cold spill path the explorer
# falls back to) runs single-threaded (-cpu 1, as recorded) and gates
# ns/op only, at 30%: one tens-of-ms compile swings by a quarter on a
# shared machine even across repeats, while a return to quadratic
# spill rounds is 2-3x slower. BenchmarkFleetWarm gates ns/op only,
# at 30%: its per-op time is dominated by HTTP round trips and job-poll
# alignment (tens-of-ms scale), which even a minimum-of-repeats does not
# fully de-noise — while a broken cache tier (recomputing instead of
# reading through) is several-fold slower, so the loose limit still
# catches the failure mode.
bench-diff:
	$(GO) test -run '^$$' -bench BenchmarkExploreSubset -benchtime 3x -count 3 ./internal/dse/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json
	$(GO) test -run '^$$' -bench BenchmarkExploreOpsSubset -benchtime 3x -count 3 ./internal/dse/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkExploreOpsSubset -regress-metrics ns/op -max-regress 0.15
	$(GO) test -run '^$$' -bench BenchmarkCompileSpill -benchtime 5x -count 5 -cpu 1 ./internal/sched/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkCompileSpill -regress-metrics ns/op -max-regress 0.30
	$(GO) test -run '^$$' -bench BenchmarkFleetWarm -benchtime 10x -count 3 ./internal/dist/ | \
		$(GO) run ./cmd/cfp-benchjson -against BENCH_explore.json \
			-regress-bench BenchmarkFleetWarm -regress-metrics ns/op -max-regress 0.30

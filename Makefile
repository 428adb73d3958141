# Tier-1 gate: everything `make check` runs must stay green on every
# commit. CI-equivalent for this repo; see README "Verification".
GO ?= go

.PHONY: check fmt vet build test race race-concurrency fuzz-smoke chaos lint cover bench bench-smoke bench-gate bench-quick ilpd-smoke ilpd-loadtest fabric-smoke

check: fmt vet lint build race race-concurrency fuzz-smoke chaos bench-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency-heavy packages — the runner's singleflight/cancellation
# fan-out and the simulator's polled timing loops — always re-run under the
# race detector, bypassing the test cache. The engine-reuse tests (cells
# back to back on one engine, and across concurrent engines), the
# cond-trace side-exit tests, the arena-reset tests, and the runner's
# worker-count and worker-slot tests additionally run at -cpu 4 so the
# worker goroutines are genuinely concurrent even on a single-core host.
race-concurrency:
	$(GO) test -race -count=1 ./internal/experiments/ ./internal/sim/
	$(GO) test -race -count=1 -cpu 4 -run 'TestBatch|TestCondTrace|TestResetMemory' ./internal/sim/
	$(GO) test -race -count=1 -cpu 4 -run 'TestSweepWorkers|TestExtSlackHoldsWorkerSlot' ./internal/experiments/

# A quick pass of the randomized differential harness (with the static
# verifier enabled in-pipeline) as a smoke test, plus short bursts of the
# result-store loader fuzzer and of the simulator's random-CFG differential
# fuzzer (generated programs against the seed engine on every fuzz
# machine); the full 60-seed run is part of `make test`.
fuzz-smoke:
	$(GO) test -short -run 'TestRandomPrograms' ./internal/compiler/
	$(GO) test -run '^$$' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzDifferentialRandomCFG' -fuzztime 10s ./internal/sim/

# Chaos suite: the deterministic fault-injection harness under the race
# detector, at full schedule counts — 300 randomized runner schedules
# (compile faults, sim faults, worker panics, store-write faults, slow
# jobs) plus 720 randomized store-damage schedules, >= 1000 total. Asserts
# no completed result is ever lost, no retried cell double-appends, and
# every fault schedule replays bit-identically from its seed.
chaos:
	ILP_CHAOS_SCHEDULES=300 $(GO) test -race -count=1 \
		-run 'TestChaos|TestConcurrentRetries|TestRetriesExhausted|TestDegradedSweep|TestResumeReproduces' \
		./internal/experiments/
	ILP_STORE_CHAOS_SCHEDULES=720 $(GO) test -race -count=1 \
		-run 'TestChaos|TestConcurrentAppends' ./internal/store/
	ILP_FABRIC_SCHEDULES=100 $(GO) test -race -count=1 -timeout 30m \
		-run 'TestFabricChaosSchedules' ./internal/fabric/

# Run the static verifier over the whole suite at every level and print
# every diagnostic, warnings included.
lint:
	$(GO) run ./cmd/ilplint -all-levels all

# Coverage over every package, with the per-package and total percentages
# printed; the profile is left in /tmp for `go tool cover -html` inspection.
cover:
	$(GO) test -coverprofile=/tmp/ilp_cover.out ./...
	$(GO) tool cover -func=/tmp/ilp_cover.out | tail -1
	@echo "profile at /tmp/ilp_cover.out (go tool cover -html=/tmp/ilp_cover.out)"

# Full benchmark pass: simulator throughput + experiment wall times, written
# to BENCH_sim.json (the baseline section of an existing file is preserved,
# so the perf trajectory stays anchored at the first recorded engine).
# 3-second samples: on a shared 1-core host, sub-second samples are bimodal
# (an unstolen window measures peak, a stolen one measures the thief), so
# best-of-N never converges; 3 s averages the steal and the best sample
# becomes reproducible across invocations.
# Simulator benchmarks are pinned at -cpu 1: the serial engine's number must
# not drift with the host's core count (GOMAXPROCS only changes the name
# suffix, which benchjson strips, but the pin keeps scheduler noise out).
# The sweep benchmarks run at the host's default shape; benchjson records
# GOMAXPROCS in the snapshot so runs are compared like-for-like.
bench:
	$(GO) test -run '^$$' -bench 'Simulator' -benchmem -benchtime 3s -count 3 -cpu 1 ./internal/sim/ | tee /tmp/ilp_bench_sim.txt
	$(GO) test -run '^$$' -bench 'RunAllQuick|RunAllBatched|RunAllParallel|ExperimentCacheSharing' -benchmem -count 1 . | tee /tmp/ilp_bench_exp.txt
	$(GO) run ./cmd/benchjson -out BENCH_sim.json /tmp/ilp_bench_sim.txt /tmp/ilp_bench_exp.txt
	@echo "wrote BENCH_sim.json"

# Regression gate: re-measure the simulator benchmarks and compare their
# Minstr/s against the committed BENCH_sim.json current snapshot. Fails
# (exit 1) if any gated benchmark is more than 10% slower than the recorded
# run or disappeared. Does not rewrite the JSON — run `make bench` for that.
# The suite runs twice in separate invocations and benchjson keeps the best
# sample of each benchmark across both: on a shared host the load regime
# shifts on minute timescales, so one invocation's samples are correlated —
# two spaced invocations (of 3 s samples, see `bench`) de-flake the gate.
bench-gate:
	$(GO) test -run '^$$' -bench 'Simulator' -benchmem -benchtime 3s -count 3 -cpu 1 ./internal/sim/ | tee /tmp/ilp_bench_gate.txt
	$(GO) test -run '^$$' -bench 'Simulator' -benchmem -benchtime 3s -count 3 -cpu 1 ./internal/sim/ | tee /tmp/ilp_bench_gate2.txt
	$(GO) test -run '^$$' -bench 'RunAllBatched|RunAllParallel' -benchmem -count 2 . | tee /tmp/ilp_bench_gate3.txt
	$(GO) run ./cmd/benchjson -baseline BENCH_sim.json /tmp/ilp_bench_gate.txt /tmp/ilp_bench_gate2.txt /tmp/ilp_bench_gate3.txt

# One-iteration smoke of the same benchmarks (no thresholds, no JSON): the
# tier-1 gate just proves they still run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Simulator' -benchtime 1x -cpu 1 ./internal/sim/
	$(GO) test -run '^$$' -bench 'RunAllQuick|RunAllBatched|RunAllParallel|ExperimentCacheSharing' -benchtime 1x .

# One-iteration pass over *every* benchmark in the repo (the per-experiment
# testing.B entry points included, which neither bench nor bench-smoke
# cover). CI runs this as a smoke step: a benchmark that only breaks when
# executed — a stale experiment id, broken metric wiring, a batched sweep
# that stopped batching — fails the build even though the throughput gate
# job is advisory.
bench-quick:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Daemon smoke: the full default sweep submitted to an in-process ilpd
# over HTTP must render byte-identical to docs/ilpbench-output.txt — the
# same golden file the CLI is held to, so the daemon can never drift from
# ilpbench. (~10 s; skipped automatically under -short and -race.)
ilpd-smoke:
	$(GO) test -run 'TestIlpdSmoke' -count=1 -v ./cmd/ilpd/

# Fabric smoke: the full default sweep through cmd/ilpfab's sharded
# worker processes — with SIGKILLs injected at commit points — must
# render byte-identical to docs/ilpbench-output.txt, the same golden file
# ilpbench and ilpd are held to. (~30 s; skipped under -short and -race.)
fabric-smoke:
	$(GO) test -run 'TestFabricGolden' -count=1 -v ./cmd/ilpfab/

# Daemon load harness: concurrent clients against an in-process daemon,
# reporting end-to-end sweeps/sec and how much of the offered load the
# shared singleflight cache absorbed.
ilpd-loadtest:
	$(GO) run ./cmd/ilpd -loadtest -loadtest-clients 8 -loadtest-sweeps 4

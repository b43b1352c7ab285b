# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test check vet vet-fixtures loc bench-e2e-test judge bench-ingress chaos soak soak-recovery soak-ingress fuzz cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The gate: full build, static analysis, and the race-detector-clean test
# suite, shuffled so order-dependent tests cannot hide.
check: build vet
	$(GO) test -race -count=1 -shuffle=on ./...

# Coverage artifact: per-package profiles merged into cover.out plus an
# HTML report; prints the total at the end.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -html=cover.out -o cover.html
	@$(GO) tool cover -func=cover.out | tail -1

# Static analysis: go vet plus the repository's own naiad-vet suite, the
# static twins of the runtime's dynamic vertex-contract checks (see
# docs/static-analysis.md). govulncheck is best-effort: it is not part of
# the toolchain and needs network access for the vuln database. The unsafe
# fence: internal/codec/flat.go (the compiled flat codec) is the one
# non-test file allowed to import "unsafe". Every Go file must be
# gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "$$unformatted" >&2; echo 'vet: files above are not gofmt-formatted (run gofmt -w)' >&2; exit 1; fi
	@if grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '^\(import \)\?[[:space:]]*"unsafe"' . | grep -vx './internal/codec/flat.go'; then \
		echo 'vet: only internal/codec/flat.go may import "unsafe" (files above)' >&2; exit 1; fi
	@$(GO) build -o /dev/null ./cmd/naiad-vet || { \
		echo "vet: naiad-vet failed to build; if imports cannot be resolved, run 'go mod tidy' and retry" >&2; \
		exit 1; }
	$(GO) run ./cmd/naiad-vet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vet: govulncheck reported issues or could not reach the vuln database (non-fatal)"; \
	else \
		echo "vet: govulncheck not installed; skipping (install: go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The analyzer test suites: framework facts/call-graph/recovery tests plus
# every analyzer's `// want`-annotated testdata fixtures, including the
# quiesce-deadlock shape lockorder must keep catching.
vet-fixtures:
	$(GO) test -count=1 ./internal/analysis/...

# Non-test line counts of the three core packages: the number ROADMAP aim 2
# (less code for the same behaviour) is judged by.
loc:
	@for p in runtime progress supervise; do \
		printf '%-10s %6d\n' $$p $$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
	done
	@printf '%-10s %6d\n' total $$(ls internal/runtime/*.go internal/progress/*.go internal/supervise/*.go | grep -v _test.go | xargs cat | wc -l)

# The end-to-end benchmark's own tests (BENCHMARK.json, benchmark/README.md).
# benchmark/ is a nested module built against this tree, so `go test ./...`
# at the root does not reach it. The benchmark itself — the one judge of a
# performance statement about this repo — is `bash benchmark/run.sh`.
bench-e2e-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The pre-submission step for any PR that touches a package the benchmark
# links (ROADMAP "How a PR lands"): alternating parent/change pairs of the
# frozen benchmark, judged by `benchmark/run.sh compare` unchanged; exits
# non-zero on any "worse" row.
#   make judge BASE=<rev> [WORKLOADS="door_rw loop_tcp"] [PAIRS=10]
judge:
	BASE="$(BASE)" WORKLOADS="$(WORKLOADS)" PAIRS="$(PAIRS)" bash scripts/judge.sh

# Serving-front-door load harness: N server processes × M simulated
# clients (streamers, slow readers, mid-epoch disconnectors, floods),
# written to the committed BENCH_ingress.json baseline. The overload row
# must show shedding engaging with every offered record accounted and a
# bounded heap (see docs/serving.md). It stays until benchmark/ has a
# shedding workload.
bench-ingress:
	$(GO) run ./cmd/naiad-bench -exp=ingress -json=BENCH_ingress.json
	@echo "wrote BENCH_ingress.json"

# Fault-injection smoke battery (see docs/protocol.md).
chaos:
	$(GO) run ./cmd/naiad-bench -exp=chaos

# Recovery soak: the crash/partition recovery suites under the race
# detector, SOAK_ITERS times with distinct seeds (see
# docs/fault-tolerance.md). Failures print the NAIAD_TEST_SEED to replay.
SOAK_ITERS ?= 5
soak:
	@set -e; for i in $$(seq 1 $(SOAK_ITERS)); do \
		seed=$$((20130101 + i)); \
		echo "== soak iteration $$i/$(SOAK_ITERS) (NAIAD_TEST_SEED=$$seed) =="; \
		NAIAD_TEST_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestSupervisor|TestSupervisedChaosCrashRecovery|TestChaosCrashThenCheckpointRecovery|TestChaosPartitionWatchdogAbortThenReplayRecovery|TestLostFrameAbortsComputation|TestSinkExactlyOnceAcrossLostFrame|TestTCPDeadLink|TestTCPSocketDeath|TestTCPCorruptHeader|TestTCPCloseDuringConcurrentSend|TestChaosDroppedMarkerReported' \
			./internal/supervise/ ./internal/kexposure/ ./internal/runtime/ ./internal/transport/; \
	done

# Barrier-snapshot soak: the seeded asynchronous-barrier suites — marker
# chaos, the randomized recovery simulation, and selective rollback — under
# the race detector, SOAK_ITERS times with distinct seeds. Each iteration's
# schedule is drawn from its seed, so a failure replays exactly with the
# printed NAIAD_TEST_SEED; the supervisor itself schedules nothing by the
# wall clock, so only the runtime watchdog ever times out.
soak-recovery:
	@set -e; for i in $$(seq 1 $(SOAK_ITERS)); do \
		seed=$$((20130101 + 1000 * i)); \
		echo "== soak-recovery iteration $$i/$(SOAK_ITERS) (NAIAD_TEST_SEED=$$seed) =="; \
		NAIAD_TEST_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestSeededRecoverySimulation|TestSimulationMidBarrierWorkerCrash|TestBarrierChaos|TestBarrierCrash|TestSelectiveRollback|TestLostMarker' \
			./internal/supervise/; \
	done

# Serving-front-door soak: the full overload cycle (steady state, a
# never-backing-off flood against a slowed dataflow, drain, recovery)
# under the race detector, SOAK_ITERS times with distinct seeds and a
# longer flood than the ordinary test run (see docs/serving.md). Asserts
# sheds engage, the heap stays bounded by the credit pools, and every
# offered record is accounted accepted or shed.
soak-ingress:
	@set -e; for i in $$(seq 1 $(SOAK_ITERS)); do \
		seed=$$((20130101 + 10 * i)); \
		echo "== soak-ingress iteration $$i/$(SOAK_ITERS) (NAIAD_TEST_SEED=$$seed) =="; \
		NAIAD_TEST_SEED=$$seed NAIAD_SOAK_INGRESS_MS=1500 $(GO) test -race -count=1 \
			-run 'TestSoakIngress' ./internal/serve/; \
	done

# Short fuzz passes over the codec (primitives and the compiled flat plan
# against its reflect-only oracle), frame, barrier and cut parsers,
# plus the capability/tracker differential (the indexed tracker against its
# two oracles, test-side, on every schedule of mint/clone/downgrade/drop).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzCapabilityDifferential -fuzztime=10s ./internal/progress/
	$(GO) test -run=^$$ -fuzz=FuzzDecoder -fuzztime=10s ./internal/codec/
	$(GO) test -run=^$$ -fuzz=FuzzFlatCodec -fuzztime=10s ./internal/codec/
	$(GO) test -run=^$$ -fuzz=FuzzParseFrameHeader -fuzztime=10s ./internal/transport/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeProgress -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzBatchDecode -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzBarrierDecode -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalCut -fuzztime=10s ./internal/runtime/

# Standard developer entry points. Everything is stdlib-only Go; no
# generated code, no external tools beyond the Go toolchain.

GO ?= go

.PHONY: all build vet lint test test-short test-fault trace-demo incident-demo bench bench-e2e load-check adapt-check collusion-check fuzz reproduce examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || (gofmt -l . && echo "gofmt: files need formatting" && exit 1)

# Static analysis beyond vet. staticcheck is optional locally (CI installs
# it); the target degrades to a notice when the binary is absent.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# A hang must fail fast, with a goroutine dump, not after go test's default
# 10 minutes: the kernel layer and its first caller — where a sharding bug
# would block — get 30 s of their own, everything else 180 s. CI runs both
# steps at GOMAXPROCS 1, 2, 4 and 8 (GOMAXPROCS=n make test does the same
# here).
test:
	$(GO) test -timeout 30s ./internal/matrix/ ./internal/coding/
	$(GO) test -timeout 180s ./...

test-short:
	$(GO) test -short ./...

# Fault-injection suite: drives the fleet runtime through dropped, delayed,
# black-holed, and truncated replicas (plus the concurrent kill-and-repair
# stream) under the race detector.
test-fault:
	$(GO) test -race -run Fault ./internal/fleet/ ./cmd/scecnet/

# Traced end-to-end demo: a replicated loopback fleet with injected faults
# and a concurrent query stream under group commit, exporting every trace
# (engine → coalescer → replica races → transport → device compute) to
# results/trace.json. See
# README §Observability for reading the waterfall and EXPERIMENTS.md for
# the per-device tail-latency recipe built on it.
trace-demo:
	$(GO) run ./cmd/scecnet fleet -m 40 -l 16 -k 6 -replicas 2 -standbys 1 \
		-inject-faults -queries 6 -coalesce-max 8 \
		-trace-export results/trace.json

# Anomaly-triggered incident capture, end to end: a 3-device loopback fleet
# (2 coded blocks, one replica each, one warm standby) with self-repair
# disabled loses every replica of block 0 mid-stream; the adaptive control
# plane replans and rehosts the block onto the standby, and the flight-
# recorder watchdog — armed on the replan-adopt journal event — captures an
# incident bundle (the process's debug surface captured in-process: metrics
# with exemplars, fleet, engine and adapt state, traces, journal, goroutine
# dump, heap profile) under results/incidents/. The committed results/incident-demo.json validates
# the bundle: the profiles parse, the journal carries the breaker-open →
# replan-adopt → rehost-ok arc, and a retained trace shows the failing
# device's span. Exits non-zero if any check fails.
incident-demo:
	$(GO) run ./cmd/scecnet fleet -m 40 -l 16 -k 2 -replicas 1 -standbys 1 \
		-queries 12 -timeout 500ms -seed 2 \
		-adaptive -replan-every 100ms -no-repair -inject-one \
		-incident-dir results/incidents \
		-watch "journal:replan-adopt>=1/60s" \
		-incident-summary results/incident-demo.json

# Kernels and codecs in isolation (testing.B); the served query and its
# per-layer rows are bench-e2e below.
bench:
	$(GO) test -bench=. -benchmem ./...

# End-to-end served-query benchmark (BENCHMARK.json): builds ./benchmark
# from source and runs every workload; see benchmark/README.md.
bench-e2e:
	bash benchmark/run.sh

# Security-tier regression guard: sweep the collusion threshold t = 1..4
# (plus the Eq. (8) structured baseline) on one deterministic fleet, write
# the cost/latency trajectory to results/collusion.json, and fail unless
# the plan cost is monotone in t and the t = 1 Cauchy plan degenerates to
# the TA1 baseline's cost.
collusion-check:
	$(GO) run ./cmd/experiments -fig collusion -check -out results

# Heavy-traffic SLO regression guard, in two steps. First the virtual-clock
# load study: open-loop, coordinated-omission-safe sweeps of a 1000-device
# fleet and of the t = 2 plan's layout under churn, writing the latency-vs-
# load curves and saturation knees to results/load.{json,md} and failing on
# a violation of the declared SLO p99<=100ms@1000 (observed ≈ 12 ms / 28 ms).
# The report is bit-reproducible (CI follows this target with `git diff
# --exit-code results/load.json results/load.md`). Then the real-socket gate:
# a 3-device loopback fleet swept on the wall clock against p99<=250ms@100
# (observed ≈ 2–5 ms), printing its table and writing no file, since its
# numbers move on every run. The slack means only a real latency regression
# — not CI jitter — makes this exit non-zero.
load-check:
	$(GO) run ./cmd/experiments -fig load -check -out results
	$(GO) run ./cmd/scecnet load -rates 50,100,200 -step-requests 200 \
		-slo "p99<=250ms@100"

# Closed-loop recovery guard: the deterministic virtual-clock scenario (a
# 1000-device fleet hit by a chronic 5x straggler and an 8s outage) served
# by the adaptive control plane vs a frozen baseline vs an instant-replan
# oracle. Writes results/adapt.json and fails unless the adaptive arm
# recovers to within 1.5x the oracle's steady-state p99, stays >=2x better
# than frozen, drops zero queries, binds every address to one block and
# sees no migration fail — everything on the virtual clock and one seeded
# RNG, so the committed report is bit-reproducible (CI follows this target
# with `git diff --exit-code results/adapt.json`;
# TestScenarioMatchesCommittedReport pins it in go test).
adapt-check:
	$(GO) run ./cmd/experiments -fig adapt -check -out results

# Short fuzzing passes over every fuzz target (CI-friendly budgets).
fuzz:
	$(GO) test -fuzz FuzzPrimeArithmetic -fuzztime 10s ./internal/field/
	$(GO) test -fuzz FuzzPrimeDotVec -fuzztime 10s ./internal/field/
	$(GO) test -fuzz FuzzPrimeDotRows -fuzztime 10s ./internal/field/
	$(GO) test -fuzz FuzzPrimeMul -fuzztime 10s ./internal/matrix/
	$(GO) test -fuzz FuzzGF256Arithmetic -fuzztime 10s ./internal/field/
	$(GO) test -fuzz FuzzTA1TA2Agreement -fuzztime 10s ./internal/alloc/
	$(GO) test -fuzz FuzzEncodeDecodeGF256 -fuzztime 10s ./internal/coding/
	$(GO) test -fuzz FuzzDecodeNeverPanics -fuzztime 10s ./internal/coding/
	$(GO) test -fuzz FuzzWireFrame -fuzztime 10s ./internal/transport/
	$(GO) test -fuzz FuzzCollusionDecode -fuzztime 10s ./internal/coding/

# Regenerate every paper artifact into results/.
reproduce:
	$(GO) run ./cmd/experiments -fig all -claims -out results
	$(GO) run ./cmd/experiments -fig rsweep -out results
	$(GO) run ./cmd/experiments -fig delay -out results
	$(GO) run ./cmd/experiments -fig comparison -out results
	$(GO) run ./cmd/experiments -fig dist -out results
	$(GO) run ./cmd/experiments -fig load -out results
	$(GO) run ./cmd/experiments -fig adapt -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mlinference
	$(GO) run ./examples/gradientdescent
	$(GO) run ./examples/fleetplanner
	$(GO) run ./examples/collusion
	$(GO) run ./examples/quantized

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt

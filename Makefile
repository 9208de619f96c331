GO ?= go

.PHONY: all build vet lint test check batch-race shard-race trace-race txn-race event-race fingerprint-race torture-smoke torture profile bench-smoke bench-shards bench-trace-overhead bench-tmctl bench-txn bench-conns bench-fingerprint-overhead

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is vet, a gofmt gate (any file gofmt would rewrite fails the target),
# plus staticcheck when the binary is available; the container image does not
# ship it and nothing may be installed, so its absence is a skip, not a
# failure.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go vet ran)"; \
	fi

test:
	$(GO) test ./...

# check is the tier-1 gate plus the robustness smoke: everything builds, lints
# clean, passes its tests, survives shrunken fault schedules under the race
# detector, and keeps the batched multi-get pipeline and the request-tracing
# layer race-clean.
check: build lint test batch-race shard-race trace-race txn-race event-race fingerprint-race torture-smoke

# batch-race runs the multi-get / read-only fast-path tests under the race
# detector: batch snapshot isolation against concurrent writers, the quiet-get
# pipeline, and the RO upgrade path.
batch-race:
	$(GO) test -race -count=1 -run 'MultiGet|ReadOnly|QuietGet|BatchPipeline' ./internal/stm ./internal/engine ./internal/protocol

# shard-race runs the TM-domain partitioning tests under the race detector:
# cross-shard multi-get scatter/gather, concurrent routing from many workers,
# per-shard snapshot isolation, and the zero-cross-shard-conflict proof.
shard-race:
	$(GO) test -race -count=1 -run 'Sharded' ./internal/engine ./internal/protocol

# trace-race is the request-tracing hammer under the race detector: ring
# overflow attribution, the reset-while-toggling storm, the flight-recorder
# hot-label acceptance run, and the protocol/server span wiring.
trace-race:
	$(GO) test -race -count=1 -run 'RingOverflow|TraceResetToggleRace|FlightRecorderNamesHotLabel|HeadSamplingDeterminism|StatsSlowlog|StatsResetClearsSlowlog|DebugTraceEndpoint|ServerBindsSpans' ./internal/txobs ./internal/txtrace ./internal/engine ./internal/protocol ./internal/server

# txn-race runs the wire-transaction stack under the race detector: the
# engine's cross-shard ordered commit (conservation, serial fallback,
# absent-read validation), the protocol transaction machine on both text and
# binary, the connection-lifetime contract, and the full client library
# (conflict retries, concurrent transfers through real TCP). The seeded
# torture conservation run rides in torture-smoke's Torture pattern.
txn-race:
	$(GO) test -race -count=1 -run 'WireTx|TxSupported' ./internal/engine ./internal/server
	$(GO) test -race -count=1 -run 'Tx' ./internal/protocol
	$(GO) test -race -count=1 ./client

# event-race runs the event-driven transport under the race detector: the
# poller accept-storm/concurrent-close smoke (both epoll and the fallback),
# the event-loop server suite (graceful drain, idle reaping, MaxConns
# backpressure, wire-tx implicit abort on disconnect), the heal-probe
# escalation ladder, and the buffer-pool leak guard.
event-race:
	$(GO) test -race -count=1 ./internal/poller
	$(GO) test -race -count=1 -run 'EventLoop|HealProbe|BufferPool' ./internal/server ./internal/tmctl

# fingerprint-race runs the workload-fingerprinting stack under the race
# detector: the sketch/histogram/recorder concurrency suite, the engine
# enable/disable/reset races (including the raced exactly-once reset), the
# poller counter-parity check, the protocol stats surfaces with concurrent
# `stats reset`, the tmctl hot-key gate, and the mctop live-server snapshot.
fingerprint-race:
	$(GO) test -race -count=1 ./internal/fingerprint ./internal/mctop
	$(GO) test -race -count=1 -run 'Fingerprint|HotKeyGate|PollerCounter|StatsResetRaced|StatsFingerprint|OverflowSpill' ./internal/engine ./internal/tmctl ./internal/poller ./internal/server

# torture-smoke runs the seeded fault-injection harness in its shrunken
# (-torture.short) form. The flag is registered per test package, so only the
# packages that define it may be targeted here.
torture-smoke:
	$(GO) test -race -run Torture -count=1 ./internal/engine ./internal/server -torture.short

# torture runs the full schedules: 3 seeds per branch family in-process plus
# the end-to-end network runs. Slower; the nightly-CI shape.
torture:
	$(GO) test -race -run Torture -count=1 ./internal/engine ./internal/server

# bench-smoke is the 10-second read-only fast-path benchmark: the same
# GET-heavy (~9:1) workload through per-key transactions and batched
# read-only multi-gets, written to BENCH_ro_fastpath.json.
bench-smoke:
	$(GO) run ./cmd/mcbench -ro-smoke -ops 80000 -threads 4 -ro-out BENCH_ro_fastpath.json

# bench-shards sweeps the TM-domain count (1, 2, 4, 8 shards) at a fixed
# thread count and writes BENCH_shards.json with per-domain commit/abort
# breakdowns and the cross-shard orec-conflict counter (must be zero).
bench-shards:
	$(GO) run ./cmd/mcbench -shards 1,2,4,8 -threads 8 -ops 3000 -trials 3 -shards-out BENCH_shards.json

# bench-trace-overhead measures the request-tracing cost contract through the
# text protocol: no spans bound, bound-but-off (must stay within 2% of the
# baseline), sampled, and full, median of 3, into BENCH_trace_overhead.json.
bench-trace-overhead:
	$(GO) run ./cmd/mcbench -trace-overhead -ops 60000 -threads 4 -trace-trials 3 -trace-out BENCH_trace_overhead.json

# bench-tmctl injects a seeded single-hot-key contention storm against the
# per-shard feedback controller and writes the degrade/heal trace (per-window
# modes, abort ratios, client p99) to BENCH_tmctl.json.
bench-tmctl:
	$(GO) run ./cmd/mcbench -tmctl-storm -threads 4 -tmctl-out BENCH_tmctl.json

# bench-txn measures wire-transaction commit throughput (single-key,
# same-shard, cross-shard shapes) and the validation-conflict sweep over
# shrinking hot-key pools, written to BENCH_txn.json with GOMAXPROCS/CPU
# metadata.
bench-txn:
	$(GO) run ./cmd/mcbench -txn -threads 4 -ops 3000 -txn-shards 4 -txn-out BENCH_txn.json

# bench-conns runs the connection-scale ladder: hold 1k/10k (100k when the
# descriptor limit allows) idle connections against the event-loop and
# goroutine-per-conn transports, record RSS and goroutine growth per rung,
# then run an identical 64-conn active mix on each; written to
# BENCH_conns.json. Rungs over RLIMIT_NOFILE are recorded as skipped.
bench-conns:
	$(GO) run ./cmd/mcbench -conns -conns-points 1000,10000,100000 -conns-active 64 -conns-active-ops 1500 -conns-out BENCH_conns.json

# bench-fingerprint-overhead measures the workload-fingerprinting cost
# contract: never-enabled vs a repeat run (the measurement floor) vs
# off-after-enable (must sit inside the floor, ≤ 2%) vs sampling live,
# trials interleaved round-robin so process drift cancels, written to
# BENCH_fingerprint_overhead.json.
bench-fingerprint-overhead:
	$(GO) run ./cmd/mcbench -fingerprint-overhead -ops 40000 -threads 4 -fingerprint-trials 11 -fingerprint-out BENCH_fingerprint_overhead.json

# profile runs a short mcbench with transaction observability on and prints
# the serialization causes, conflict heat map, and latency summary.
profile:
	$(GO) run ./cmd/mcbench -profile it-oncommit -ops 2000 -threads 4

# Standard workflows for the DICE reproduction.

GO ?= go

.PHONY: all build test test-race fuzz vet lint bench bench-smoke soak daemon-smoke sweep-smoke evaluate examples clean

# LINTDOC_PKGS are the packages held to the 100%-documented bar; grow
# the list as packages reach it.
LINTDOC_PKGS = ./internal/obs ./internal/fault ./internal/parallel \
	./internal/serve ./internal/serve/client ./internal/sigctx \
	./internal/leakcheck ./internal/dse ./internal/clidoc \
	./internal/experiments ./internal/commitlog ./cmd/dicesweep

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static checks beyond vet: cmd/lintdoc (stdlib-only golint/revive
# analogue) requires a doc comment on every exported identifier of the
# packages listed above.
lint: vet
	$(GO) run ./cmd/lintdoc $(LINTDOC_PKGS)

test:
	$(GO) test ./...

# Race-detector pass over everything, including the parallel experiment
# scheduler's determinism tests (slow: the simulations run ~10x under
# the detector, so the experiments package far exceeds go test's
# default 10m timeout).
test-race:
	$(GO) test -race -timeout 90m ./...

# Short fuzz pass over the validated-decompress boundary and the
# event-vs-cycle simulation core equality oracle (go's fuzzer accepts
# one target per invocation).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecompressChecked$$' -fuzztime=30s ./internal/compress
	$(GO) test -run='^$$' -fuzz='^FuzzCompressRoundtrip$$' -fuzztime=30s ./internal/compress
	$(GO) test -run='^$$' -fuzz='^FuzzEventSchedule$$' -fuzztime=30s ./internal/sim

# Full benchmark harness: regenerates every paper table/figure as
# testing.B benchmarks plus the compression microbenchmarks, then
# records the per-layer hot-path numbers (ns/ref, allocs/ref, refs/sec)
# into BENCH_pr10.json under the "pr10" label — including the
# daemon/submit entries, latency distributions (mean plus p50/p99/p999
# tail quantiles) over the job-submission path against an in-process
# daemon, sequential and at 32 concurrent clients riding the journal's
# group commit, and the commitlog/append-{1,64} pair whose appends/sec
# ratio is the fsync amortization factor on this machine. The
# simcore/{event,cycle} pair is the discrete-event scheduler's
# dispatch comparison, the matrix/gap8-{cold,warm} pair the artifact
# cache's headline warm-vs-cold wall-clock ratio, and the "pr10-sweep"
# label in the same file is sweep-smoke's cells/hour record.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/perfbench -label pr10 -out BENCH_pr10.json

# Short benchmark smoke pass for CI: a few iterations of every per-layer
# benchmark, just enough to catch a benchmark that no longer compiles or
# panics — not a performance measurement. The artifact cache smoke test
# then runs one GAP experiment matrix twice in-process and asserts the
# second pass is served from the cache (workloads.CacheStats), guarding
# against silent caching regressions. The event-core smoke (DICE_SMOKE=1
# gates its wall-clock assertion out of plain `go test ./...`) asserts
# the discrete-event scheduler still beats the cycle-stepped reference
# on the idle-heaviest catalog config, the golden-report run pins the
# experiment bytes under the event core, and the group-commit guard
# (same DICE_SMOKE gate) asserts the batched journal beats the
# fsync-per-append reference discipline at p99 by the 1.05x smoke
# floor under concurrent submission load, with the journal's counters
# proving the batching structurally.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=5x ./internal/compress ./internal/dcache ./internal/dram ./internal/workloads ./internal/sim
	$(GO) test -run='^TestArtifactCacheSmoke$$' -count=1 -v ./internal/experiments
	DICE_SMOKE=1 $(GO) test -run='^TestEventCoreSmokeSpeedup$$' -count=1 -v ./internal/sim
	$(GO) test -run='^TestGoldenReports$$' -count=1 ./internal/experiments
	$(GO) test -run='^TestSubmitLatencyEntry$$|^TestCommitLogAppendEntry$$' -count=1 -v ./cmd/perfbench
	DICE_SMOKE=1 $(GO) test -run='^TestGroupCommitSubmitGuard$$' -count=1 -v ./cmd/perfbench

# Daemon load/soak proof, two passes: concurrent submissions through
# the retrying client against a queue bounded at 32 (so backpressure
# 429s are exercised and absorbed), every job's output byte-compared
# against a serial reference, zero goroutine leaks after shutdown, and
# the per-submission latency histogram (p50/p90/p99/p999 through the
# retrying client, backpressure retries included) logged. The first
# pass runs under the race detector at the hundreds scale (the
# detector's instrumentation makes a thousands-scale flood intractable
# on small machines); the second runs the full 2000-job thousands-scale
# soak without it. DICE_SMOKE=1 raises both from the quick tier-1 size.
soak:
	DICE_SMOKE=1 $(GO) test -race -timeout 30m -run='^TestSoakConcurrentSubmissions$$' -count=1 -v ./internal/serve
	DICE_SMOKE=1 $(GO) test -timeout 30m -run='^TestSoakConcurrentSubmissions$$' -count=1 -v ./internal/serve

# Daemon smoke: build the real dicebenchd binary and drive it as an
# operator would — HTTP submit/poll/healthz, SIGTERM clean drain,
# restart-with-journal replay, the SIGKILL crash/restart byte-equality
# check, and the streaming bar: cells and epoch metrics over
# GET /jobs/{id}/stream byte-equal to the terminal output, plus a
# SIGKILL landing mid-stream that the same Stream call rides through
# (reconnect at offset, new-generation re-delivery, exactly-once after
# dedup).
daemon-smoke:
	$(GO) test -run='^TestDaemon' -count=1 -v ./cmd/dicebenchd

# Sweep smoke: build the real dicesweep and dicebenchd binaries and
# run the DSE acceptance bar end to end — a three-axis spec expanding
# to 320 cells through the local pool at workers 8 and workers 1 AND
# streamed from a live daemon at workers 8 and 1, frontier exports
# byte-compared across all four, with the streamed epoch-metrics NDJSON checked
# for well-formedness; plus the SIGINT-mid-sweep / -resume round trip
# and a daemon SIGKILLed mid-stream and restarted on the same port
# (the sweep rides through with no duplicate cells in its results
# log). Records the headline cells/hour number to BENCH_pr10.json
# under the "pr10-sweep" label.
sweep-smoke:
	DICE_SMOKE=1 $(GO) test -run='^TestSweepSmoke' -count=1 -v ./cmd/dicesweep

# The evaluation as readable tables (several minutes).
evaluate:
	$(GO) run ./cmd/dicebench -run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compressibility
	$(GO) run ./examples/hybridmemory
	$(GO) run ./examples/graphanalytics
	$(GO) run ./examples/fullhierarchy

clean:
	$(GO) clean ./...

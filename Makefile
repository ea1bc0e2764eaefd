# Standard workflows for the DICE reproduction.

GO ?= go

.PHONY: all build test test-race fuzz vet lint bench bench-smoke soak daemon-smoke sweep-smoke evaluate clean

# LINTDOC_PKGS are the packages held to the 100%-documented bar; grow
# the list as packages reach it.
LINTDOC_PKGS = ./internal/obs ./internal/fault ./internal/parallel \
	./internal/serve ./internal/serve/client ./internal/sigctx \
	./internal/leakcheck ./internal/dse ./internal/clidoc \
	./internal/experiments ./internal/commitlog ./cmd/dicesweep \
	./internal/compress ./internal/stats ./internal/graph \
	./internal/data ./internal/trace ./internal/energy \
	./cmd/dicesim ./cmd/dicebench ./cmd/dicebenchd ./cmd/dicetrace \
	./cmd/lintdoc ./internal/dram ./internal/cache ./internal/sim \
	./internal/workloads ./internal/dcache

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# FMA_ARCHES are the GOARCHes whose compilers fuse a*b+c into one
# multiply-add instruction, rounding once where amd64 rounds twice.
FMA_ARCHES = arm64 ppc64le s390x riscv64

# Static checks beyond vet: cmd/lintdoc (stdlib-only golint/revive
# analogue) requires a doc comment on every exported identifier of the
# packages listed above. Then, so results stay bit-identical off amd64,
# ./internal/... is cross-compiled for each of FMA_ARCHES with the
# assembly listing on (-S), and any fused multiply-add
# (F[N]MADD/F[N]MSUB, double or single) attributed to a repo file fails
# the lint: round the product with an explicit float64(...) at that
# line. Only the local toolchain is used, and the go command replays
# the cached compiler output on later runs.
lint: vet
	$(GO) run ./cmd/lintdoc $(LINTDOC_PKGS)
	@log=$$(mktemp) && trap 'rm -f "$$log"' EXIT && \
	for a in $(FMA_ARCHES); do \
		if ! GOARCH=$$a $(GO) build -gcflags='dice/...=-S' ./internal/... >"$$log" 2>&1; then \
			GOARCH=$$a $(GO) build ./internal/...; \
			echo "lint: GOARCH=$$a build failed"; exit 1; \
		fi; \
		if grep -E '\($(CURDIR)/[^)]*\)[[:space:]]+FN?M(ADD|SUB)[DS]?[[:space:]]' "$$log"; then \
			echo "lint: fused multiply-add on GOARCH=$$a (listed above); round the product with float64(...)"; \
			exit 1; \
		fi; \
	done

test:
	$(GO) test ./...

# Race-detector pass over everything, including the parallel experiment
# scheduler's determinism tests (slow: the simulations run ~10x under
# the detector, so the experiments package far exceeds go test's
# default 10m timeout).
test-race:
	$(GO) test -race -timeout 90m ./...

# Short fuzz pass over the validated-decompress boundary (every
# accepted encoding matches its checksum), the compress round trip
# under the hybrid, FPC-only and BDI-only compressors (lines and pairs
# decode at exactly their reported sizes), the event-vs-cycle
# simulation core equality oracle (Results, cache fingerprints,
# fault-stream positions and both DRAM devices), the DRAM cache's
# occupancy-counter oracle, the L3 against its tick-LRU reference, the
# DRAM bus window against its reference scheduler, the sweep-spec
# parser, the commit log's replay of arbitrary file bytes, the
# daemon's job-spec decoding and its journal's replay of arbitrary
# record sequences (go's fuzzer accepts one target per invocation).
# The parser's new inputs are minimized for at most 5s each so
# minimization cannot eat its budget.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecompressChecked$$' -fuzztime=30s ./internal/compress
	$(GO) test -run='^$$' -fuzz='^FuzzCompressRoundtrip$$' -fuzztime=30s ./internal/compress
	$(GO) test -run='^$$' -fuzz='^FuzzEventSchedule$$' -fuzztime=30s ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzCacheOccupancy$$' -fuzztime=30s ./internal/dcache
	$(GO) test -run='^$$' -fuzz='^FuzzCacheAgainstReference$$' -fuzztime=30s ./internal/cache
	$(GO) test -run='^$$' -fuzz='^FuzzReserveBusAgainstReference$$' -fuzztime=30s ./internal/dram
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/dse
	$(GO) test -run='^$$' -fuzz='^FuzzReplay$$' -fuzztime=30s ./internal/commitlog
	$(GO) test -run='^$$' -fuzz='^FuzzSubmit$$' -fuzztime=30s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzJournalReplay$$' -fuzztime=30s ./internal/serve

# Per-layer microbenchmarks: every `go test -bench` benchmark in the
# module — the paper tables/figures in bench_test.go plus the L3 cache,
# compress, dcache, dram, workloads, sim and commitlog hot paths.
# Nothing is written to the tree. The end-to-end numbers of record (sim refs/s,
# sweep-service cells/hour and turnaround, with a per-layer ledger) come
# from `bash benchmark/run.sh` (see benchmark/README.md).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...
	@echo "end-to-end numbers of record: bash benchmark/run.sh"

# Short benchmark smoke pass for CI: a few iterations of every per-layer
# benchmark, just enough to catch a benchmark that no longer compiles or
# panics — not a performance measurement. The artifact cache smoke test
# then runs one GAP experiment matrix twice in-process and asserts the
# second pass is served from the cache (workloads.CacheStats), guarding
# against silent caching regressions. The size-table check then runs one
# mix1 DICE cell twice and asserts the repeat sizes no new line
# (workloads.SizeTableStats): sizes belong to the artifact, not the run.
# The event-core smoke (DICE_SMOKE=1
# gates its wall-clock assertion out of plain `go test ./...`) asserts
# the discrete-event scheduler still beats the cycle-stepped reference
# on the idle-heaviest catalog config, the golden-report run pins the
# experiment bytes under the event core, and the submit-latency check
# measures an ordered p50/p99/p999 distribution through the daemon.
# The journal's batching of concurrent submits into shared syncs is
# checked by its counters under plain `go test ./...`
# (TestConcurrentSubmitsShareJournalSyncs), not here.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=5x ./internal/cache ./internal/compress ./internal/dcache ./internal/dram ./internal/graph ./internal/workloads ./internal/sim ./internal/commitlog
	$(GO) test -run='^TestArtifactCacheSmoke$$' -count=1 -v ./internal/experiments
	$(GO) test -run='^TestRepeatRunSizesNothingNew$$' -count=1 -v ./internal/sim
	DICE_SMOKE=1 $(GO) test -run='^TestEventCoreSmokeSpeedup$$' -count=1 -v ./internal/sim
	$(GO) test -run='^TestGoldenReports$$' -count=1 ./internal/experiments
	$(GO) test -run='^TestSubmitLatencyEntry$$' -count=1 -v ./internal/serve

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
# operator would — HTTP submit, stream to done, status and healthz,
# SIGTERM clean drain, restart-with-journal replay, the SIGKILL
# crash/restart byte-equality check, and the streaming bar: cells and
# epoch metrics over GET /jobs/{id}/stream byte-equal to the terminal
# output, plus a SIGKILL landing mid-stream that the same Stream call
# rides through (the restarted daemon streams the re-run from its
# first event, and the client hands each cell to its caller exactly
# once).
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
# log). Writes nothing to the tree; cells/hour is measured by the
# sweep-service workload of `bash benchmark/run.sh`.
sweep-smoke:
	DICE_SMOKE=1 $(GO) test -run='^TestSweepSmoke' -count=1 -v ./cmd/dicesweep

# The evaluation as readable tables (several minutes).
evaluate:
	$(GO) run ./cmd/dicebench -run all

clean:
	$(GO) clean ./...

# Tier-1 verification plus the race detector and benchmarks in one place.
# docs/ci.md documents what each gate pins and how to run them locally.
#
#   make check   # build + vet + fmt + lint + test + race: what CI should run
#   make lint    # invariant lint suite (cmd/invarcheck) + godoc lint (cmd/doccheck)
#   make ci      # check plus the perf regression gates (REPRO_PERF_ASSERT)
#   make benchsmoke  # compile + smoke-test the nested quakebench module (bench/)
#   make bench   # paper-figure and hot-kernel benchmarks
#   make fuzz    # short fuzz sessions: datatype/collective replay/RLE/strip + data piece + wire codecs + request parser
#   make size    # non-test lines, test lines, exported identifiers (for CHANGES.md)
GO ?= go

.PHONY: build test race vet fmtcheck doccheck invarcheck lint bench benchsmoke check ci fuzz size

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The worker-pool renderer, LIC convolution, compositor, pipeline, the
# persistent worker pool, the fault-injection harness (whose chaos
# suite in internal/core races injected faults against free-running
# ranks), the network transport (whose whole mpi suite runs a TCP
# loopback leg, reader goroutines racing senders) and the frame server
# (concurrent HTTP sessions sharing an engine, cache and admission
# queue) are the concurrent subsystems; run them under the race
# detector. The pooled-buffer, tree and solver packages ride along:
# they are exercised concurrently through the layers above, and running
# them directly keeps any future internal concurrency covered from day
# one.
race:
	$(GO) test -race ./internal/render/... ./internal/lic/... ./internal/core/... ./internal/compositor/... ./internal/workers/... ./internal/faultinject/... ./internal/pfs/... ./internal/mpiio/... ./internal/mpi/... ./internal/pool/... ./internal/quadtree/... ./internal/octree/... ./internal/quake/... ./internal/serve/...

vet:
	$(GO) vet ./...

# fmtcheck fails (listing the offenders) if any tracked Go file is not
# gofmt-clean, so formatting drift cannot land.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# doccheck fails (listing the offenders) if any exported identifier lacks
# a doc comment, so the documented API surface (see ARCHITECTURE.md and
# docs/ownership.md) cannot rot. cmd/doccheck documents exactly what is
# checked.
DOCDIRS = $(wildcard internal/*/) $(wildcard cmd/*/) $(wildcard examples/*/) .
doccheck:
	$(GO) run ./cmd/doccheck $(DOCDIRS)

# size prints the numbers every CHANGES.md entry reports, so they come out
# of a command: Go lines outside and inside _test.go files in the root
# module (bench/ is a nested module and is left out) and the number of
# exported identifiers doccheck walks.
size:
	@echo "non-test Go lines: $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "test Go lines:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@$(GO) run ./cmd/doccheck $(DOCDIRS)

# invarcheck runs the invariant lint suite (cmd/invarcheck): allocfree,
# codecid, decodealias, scratchconfine, errclass and deadexport, each
# failing with exact file:line diagnostics. docs/lint.md catalogs the rules.
invarcheck:
	$(GO) run ./cmd/invarcheck .

# lint is the repository's static-analysis gate: the invariant suite plus
# the godoc lint.
lint: invarcheck doccheck

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/render/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/quake/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/mpiio/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/compositor/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/lic/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/core/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/workers/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/mpi/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/serve/

# bench/ (quakebench, BENCHMARK.json's command) is a nested module that
# `go build ./... && go test ./...` at the root neither compiles nor runs,
# so a core/serve API change could break the benchmark unnoticed. Its own
# test suite builds it against this checkout and runs every workload once
# at smoke scale.
benchsmoke:
	cd bench && $(GO) test ./...

check: build vet fmtcheck lint test race

# ci is what the GitHub Actions workflow runs: the full functional gates
# (the allocation-regression, golden-pipeline, fuzz-seed and equivalence
# suites of PRs 2-5) plus four extras. The wall-clock speedup gates (CSR
# SpMV, flat/RLE-stream compositeStrip, decode chain, castRay leaping and
# clipping, the LIC step's resample map and convolve, the collective read's
# plan replay) only assert when
# REPRO_PERF_ASSERT=1 so plain `go test ./...` stays immune to scheduler
# noise, and the compressed-strip size gate (the golden scene's strips at
# most a quarter of their raw bytes) rides the same flag; the named alloc-gate pass restates the steady-state zero-
# allocation guarantees loudly (including PR 5's collective-read and
# rendered-frame gates, TestReadAllSteadyStateAllocFree and
# TestRenderFrameAllocFree); the fixed-seed chaos smoke replays PR 6's
# fault-injection suite under the race detector (docs/faults.md),
# including the chaos-over-net drop/kill pins, and the TestNet leg
# replays the transport's heal/peer-loss suite the same way; the serve
# legs replay the frame server's load suite (bit-exactness + hit-rate +
# zero-alloc warm path) and chaos suite (degraded serving, shedding,
# drain, leak checks) under the race detector (docs/serve.md); the
# SetView/shared-Dataset leg replays the re-aim exactness suite and the
# concurrent-sessions-on-one-Dataset pins the same way; the -benchtime 1x
# smoke run compiles and executes every hot-kernel benchmark once so they
# cannot bit-rot; and benchsmoke does the same for the nested quakebench
# module. See docs/ci.md for the full gate catalog.
ci: check benchsmoke
	REPRO_PERF_ASSERT=1 $(GO) test -run 'TestSpMVSpeedupGate' -v ./internal/quake/
	REPRO_PERF_ASSERT=1 $(GO) test -run 'TestCompositeStripSpeedupGate' -v ./internal/compositor/
	REPRO_PERF_ASSERT=1 $(GO) test -run 'TestDecodeChainSpeedupGate|TestStripCompressionGate' -v ./internal/core/
	REPRO_PERF_ASSERT=1 $(GO) test -run 'TestCastRayLeapSpeedupGate|TestCastRayClipSpeedupGate' -v ./internal/render/
	REPRO_PERF_ASSERT=1 $(GO) test -run 'TestLICStepSpeedupGate' -v ./internal/lic/
	REPRO_PERF_ASSERT=1 $(GO) test -run 'TestCollectiveReplaySpeedupGate' -v ./internal/mpiio/
	$(GO) test -run 'AllocFree|AllocBudget|ArenaReuse' -v ./internal/compositor/ ./internal/render/ ./internal/lic/ ./internal/quadtree/ ./internal/core/ ./internal/mpiio/ ./internal/workers/ ./internal/mpi/
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/core/ ./internal/serve/
	$(GO) test -race -run 'TestNet' -count=1 -v ./internal/mpi/ ./internal/faultinject/
	$(GO) test -race -run 'TestServeLoad' -count=1 -v ./internal/serve/
	$(GO) test -race -run 'TestSetView|TestDatasetShared|TestServeNewViews|TestServeConcurrentViewers' -count=1 -v ./internal/core/ ./internal/serve/
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/compositor/ ./internal/lic/ ./internal/render/ ./internal/mpiio/ ./internal/core/ ./internal/workers/ ./internal/mpi/ ./internal/serve/

# Short exploratory fuzz sessions; the committed seeds alone run in `test`.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzCoalesce$$' -fuzztime=30s ./internal/mpiio/
	$(GO) test -run='^$$' -fuzz='^FuzzIndexedBlockSegments$$' -fuzztime=30s ./internal/mpiio/
	$(GO) test -run='^$$' -fuzz='^FuzzCollectiveReplay$$' -fuzztime=30s ./internal/mpiio/
	$(GO) test -run='^$$' -fuzz='^FuzzRLERoundTrip$$' -fuzztime=30s ./internal/compositor/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRLE$$' -fuzztime=30s ./internal/compositor/
	$(GO) test -run='^$$' -fuzz='^FuzzCompositeRLEStream$$' -fuzztime=30s ./internal/compositor/
	$(GO) test -run='^$$' -fuzz='^FuzzCompositeRLEGarbage$$' -fuzztime=30s ./internal/compositor/
	$(GO) test -run='^$$' -fuzz='^FuzzPasteRLE$$' -fuzztime=30s ./internal/compositor/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeStripPayload$$' -fuzztime=30s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeDataPayload$$' -fuzztime=30s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzFaultSchedule$$' -fuzztime=30s ./internal/faultinject/
	$(GO) test -run='^$$' -fuzz='^FuzzNetFrameDecode$$' -fuzztime=30s ./internal/mpi/
	$(GO) test -run='^$$' -fuzz='^FuzzNetChaos$$' -fuzztime=30s ./internal/faultinject/
	$(GO) test -run='^$$' -fuzz='^FuzzServeRequestParse$$' -fuzztime=30s ./internal/serve/

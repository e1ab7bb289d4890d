# mogis — standard workflows.

GO ?= go

.PHONY: all check build test bench-test race race-engine serve-race serve-smoke telemetry chaos cover bench microbench fmt fmt-check vet vet-strict lint lint-sarif fuzz-smoke clean

all: check

# The full pre-merge gate: compile, formatting, vet, the moglint
# invariant analyzers, tests (including the nested bench module),
# race detector, the repeated concurrent-engine stress pass, the
# telemetry-service race pass, and the network front door race pass.
check: build fmt-check vet lint test bench-test race race-engine telemetry serve-race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# ./... from the root never compiles it. Its tests include the -smoke
# run of every workload (~5s), which catches API drift in the engine,
# server and pietql packages it builds against.
bench-test:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# The concurrency-sensitive packages, twice, under the race detector:
# the engine's concurrent stress tests plus the sample-index and
# columnar cache paths with interleaved invalidations, the base + tail
# quick check (TestSampleIndexMatchesRebuild), the pre-aggregated grid
# that readers of many table versions share as their sealed base, the
# shared-read index and overlay structures, and the MOFT versions that
# share object runs (readers of one version while a writer derives the
# next ones), the first-order evaluator on one shared model context,
# and the Piet-QL pipeline's per-query traces under overlapping queries.
race-engine:
	$(GO) test -race -count=2 ./internal/core/... ./internal/agggrid/... ./internal/sindex/... ./internal/overlay/... ./internal/moft/... ./internal/fo/... ./internal/pietql/...

# The telemetry service under the race detector: the collector's
# windowed histograms and rings, the HTTP exposition handlers reading
# while queries record, and the obs tracer/registry they build on.
telemetry:
	$(GO) test -race -count=2 ./internal/telemetry/... ./internal/obs/...

# The network front door, twice, under the race detector: admission
# control and backpressure, the SSE hub with the 2000-subscriber load
# gate, the server chaos matrix (accept/write/subscriber/shutdown),
# and the graceful-drain regressions.
serve-race:
	$(GO) test -race -count=2 ./internal/server/...

# End-to-end daemon smoke test: build mogisd, start it, query, ingest
# a geofence-crossing batch under an SSE subscriber, scrape /metrics,
# then SIGTERM and assert a clean drain.
serve-smoke:
	./scripts/mogisd_smoke.sh

# The repository's own static analyzers (internal/lint), type-checked
# and flow-aware: span lifecycles, cache invalidation, determinism,
# obs naming, context-first plumbing, lock ordering, goroutine joins,
# budget strides, and error wrapping. Nonzero exit on any finding.
lint:
	$(GO) run ./cmd/moglint ./...

# The same analyzers rendered as a SARIF 2.1.0 log for code-scanning
# upload (moglint.sarif). Exit 0 even with findings: the scanning UI,
# not the build, turns the artifact into annotations.
lint-sarif:
	$(GO) run ./cmd/moglint -sarif ./... > moglint.sarif

# The fault-injection suite: every faultpoint site armed in every
# mode, under the race detector — cache coherence, typed errors, and
# goroutine hygiene after injected failures — plus the typed budget
# and parse errors (qerr) and the one error-to-outcome classifier
# (telemetry.OutcomeOf) those failures are recorded under.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Cancel|Budget|Panic|Leak' ./internal/core/... ./internal/overlay/... ./internal/faultpoint/... ./internal/qerr/... ./internal/telemetry/...

# Fails when any tracked file needs reformatting (prints the paths).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Non-default vet passes: unusedresult with the obs formatters added
# to its pure-function list, so a dropped Format/FormatExplain (a
# trace computed and thrown away) fails the build.
vet-strict: vet
	$(GO) vet -unusedresult \
		-unusedresult.funcs=fmt.Sprintf,fmt.Sprint,fmt.Errorf,mogis/internal/obs.FormatExplain \
		./...

# Each fuzz target for 10s: point-in-polygon vs the grid-count
# oracle (over a vacuous window and over a narrow one, which takes the
# grid's temporal index), the Piet-QL parser's no-panic guarantee, the grouped
# region-set count's grid route vs its scan route (with the
# ObjectsSampledInside / ObjectsPassingThrough readouts of its
# one-polygon case), and MOFT appends (accept/reject rule and
# rebuilt-table identity).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzPointInPolygon -fuzztime=10s ./internal/geom/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/pietql/
	$(GO) test -run=NONE -fuzz=FuzzGroupedCount -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzWithAppended -fuzztime=10s ./internal/moft/

cover:
	$(GO) test -cover ./...

# The end-to-end benchmark: builds bench/ into .bench_build/ and runs
# the four mogisd workloads over real HTTP (see bench/README.md).
bench:
	bash bench/run.sh

# Every go test benchmark: the timings behind EXPERIMENTS.md's tables
# (their pass gates are ordinary tests, run by test).
microbench:
	$(GO) test -bench=. -benchmem ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt

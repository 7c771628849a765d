GO ?= go

# Packages exercised under the race detector: the concurrent query stack
# (store, OPeNDAP caches, federation fan-out, interlinking) plus
# the fault-injection harness, the SPARQL HTTP transport it exercises,
# the segment storage engine (concurrent readers vs writer/flush), and
# the spatial core (parallel join probes, bounded geometry cache).
RACE_PKGS = ./internal/sparql/ ./internal/strabon/ ./internal/opendap/ ./internal/federation/ ./internal/interlink/ ./internal/faults/ ./internal/endpoint/ ./internal/telemetry/ ./internal/admission/ ./internal/e2e/ ./internal/segment/ ./internal/geom/ ./internal/geom/rtree/ ./internal/geosparql/ ./internal/geographica/

# End-to-end suites: the golden two-workflow test over live loopback
# servers plus the cmd-level boot/query/shutdown tests.
E2E_PKGS = ./internal/e2e/ ./cmd/strabon/ ./cmd/opendapd/

.PHONY: all build test lint race fmt vet fuzz bench bench-telemetry bench-budget bench-segment bench-spatial bench-cache e2e ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Repo-specific static analysis (see DESIGN.md "Correctness tooling"
# and "Static analysis architecture"): the linter lints itself first,
# then the whole tree against the committed (empty) baseline.
lint:
	$(GO) run ./cmd/applab-lint ./internal/analysis/... ./cmd/applab-lint
	$(GO) run ./cmd/applab-lint -baseline lint-baseline.json ./...

race:
	$(GO) test -race $(RACE_PKGS)

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Short mutation runs over the binary, DAP, SPARQL and wire decoders;
# ci.sh runs the same targets. Each -fuzz invocation may match only one
# target.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=3s ./internal/netcdf/
	$(GO) test -run='^$$' -fuzz='^FuzzParseConstraint$$' -fuzztime=2s ./internal/opendap/
	$(GO) test -run='^$$' -fuzz='^FuzzParseDDS$$' -fuzztime=2s ./internal/opendap/
	$(GO) test -run='^$$' -fuzz='^FuzzApplyConstraint$$' -fuzztime=2s ./internal/opendap/
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=3s ./internal/sparql/
	$(GO) test -run='^$$' -fuzz='^FuzzPlanKey$$' -fuzztime=3s ./internal/sparql/
	$(GO) test -run='^$$' -fuzz='^FuzzResultsJSON$$' -fuzztime=3s ./internal/sparql/
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentOpen$$' -fuzztime=3s ./internal/segment/
	$(GO) test -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=3s ./internal/segment/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeLogRecords$$' -fuzztime=3s ./internal/segment/
	$(GO) test -run='^$$' -fuzz='^FuzzWireDecode$$' -fuzztime=3s ./internal/cluster/

# Engine benchmarks: the in-package BenchmarkEngine_* family, the
# seed-vs-compiled comparison recorded machine-readably in BENCH_PR3.json,
# and the spatial-join-vs-filter comparison in BENCH_PR8.json.
bench: bench-spatial
	$(GO) test -run=NONE -bench=BenchmarkEngine_ -benchmem ./internal/sparql/
	$(GO) run ./cmd/applab-bench -json BENCH_PR3.json

# Telemetry overhead comparison (instrumented vs uninstrumented engine),
# recorded in BENCH_PR4.json; fails if Engine_BGPJoin exceeds the 5%
# ns/op budget.
bench-telemetry:
	$(GO) run ./cmd/applab-bench -telemetry-json BENCH_PR4.json

# Budget overhead comparison (budgeted vs unlimited engine), recorded in
# BENCH_PR5.json; fails if Engine_BGPJoin exceeds the 5% ns/op budget.
bench-budget:
	$(GO) run ./cmd/applab-bench -budget-json BENCH_PR5.json

# Segment store report (ingest throughput, cold start vs N-Triples
# replay, memory-mode query overhead), recorded in BENCH_PR7.json; fails if
# Engine_BGPJoin through the memory-mode store exceeds the 5% budget.
bench-segment:
	$(GO) run ./cmd/applab-bench -segment-json BENCH_PR7.json

# Spatial join vs per-row filtering on Geographica join queries,
# recorded in BENCH_PR8.json; fails if a join query misses the 3x
# speedup floor, a strategy (inl, store) diverges on row count or is
# never exercised, or Engine_BGPJoin pays more than 5% for the plan
# detection.
bench-spatial:
	$(GO) run ./cmd/applab-bench -spatial-json BENCH_PR8.json

# Result cache report (federated upstream-request collapse and per-query
# lookup overhead), recorded in BENCH_PR9.json; fails if the cached
# federated workload collapses upstream requests less than 10x or the
# cache-disabled Lookup path costs Engine_BGPJoin more than 5%.
bench-cache:
	$(GO) run ./cmd/applab-bench -cache-json BENCH_PR9.json

# End-to-end golden suite: boots both Figure-1 workflows on loopback
# servers and asserts exact telemetry counters (see internal/e2e).
e2e:
	$(GO) test -count=1 $(E2E_PKGS)

# The full gate: fmt + vet + lint + tests + race in one invocation.
ci:
	./ci.sh

#!/usr/bin/env bash
# CI gate for the applab repository: formatting, vet, the repo's own
# static analysis (cmd/applab-lint), the full test suite, and the race
# detector over the concurrent query stack. Everything is stdlib-only;
# the whole gate runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== applab-lint (self-lint: the linter and its framework first)"
go run ./cmd/applab-lint ./internal/analysis/... ./cmd/applab-lint

echo "== applab-lint (whole repo, against the committed baseline)"
# The dataflow checkers must stay fast enough to run on every commit:
# the whole-repo pass gets a 30-second wall budget.
lint_start=$(date +%s)
go run ./cmd/applab-lint -baseline lint-baseline.json ./...
lint_elapsed=$(( $(date +%s) - lint_start ))
if [ "$lint_elapsed" -ge 30 ]; then
    echo "applab-lint took ${lint_elapsed}s; budget is 30s" >&2
    exit 1
fi
echo "  whole-repo lint in ${lint_elapsed}s (budget 30s)"

echo "== go test"
go test ./...

echo "== go test -race (concurrent query stack + fault injection + telemetry)"
go test -race ./internal/sparql/ ./internal/strabon/ ./internal/opendap/ \
    ./internal/federation/ ./internal/interlink/ \
    ./internal/faults/ ./internal/endpoint/ \
    ./internal/telemetry/ ./internal/admission/ ./internal/e2e/ \
    ./internal/segment/ ./internal/geom/ ./internal/geom/rtree/ \
    ./internal/geosparql/ ./internal/geographica/ \
    ./internal/rescache/ ./internal/obda/ ./internal/cluster/

echo "== e2e golden suite (both workflows over live loopback servers)"
make e2e

echo "== repeat runs (process-global caches and metrics must not leak between runs)"
go test -count=3 -run 'TestGoldenSpatialJoin|TestGoldenResultCache' ./internal/e2e/
go test -count=3 ./internal/interlink/ ./internal/geographica/

echo "== core counts (the fake-clock suites must pass at 1 and 8 procs)"
go test -count=3 -cpu=1,8 ./internal/e2e/ ./internal/cluster/

echo "== coverage gate (resilience stack)"
# The retry/breaker/deadline machinery is all error paths; a coverage
# floor keeps new branches from landing untested. Floors sit ~5pt under
# the level at which the gate was introduced.
check_cover() {
    pkg=$1 floor=$2
    pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage gate: no coverage reported for $pkg" >&2
        exit 1
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "coverage gate: $pkg at ${pct}%, floor is ${floor}%" >&2
        exit 1
    fi
    echo "  $pkg: ${pct}% (floor ${floor}%)"
}
check_cover ./internal/opendap/ 85
check_cover ./internal/federation/ 85
check_cover ./internal/telemetry/ 90
check_cover ./internal/sparql/ 80
check_cover ./internal/admission/ 90
check_cover ./internal/analysis/ 90
check_cover ./internal/segment/ 90
check_cover ./internal/geom/ 85
check_cover ./internal/geom/rtree/ 85
check_cover ./internal/rescache/ 90
check_cover ./internal/cluster/ 85

echo "== fuzz smoke (seed corpus + a few seconds of mutation)"
# One -fuzz target per invocation: the flag rejects patterns matching
# several targets in a package.
go test -run='^$' -fuzz='^FuzzRead$' -fuzztime=3s ./internal/netcdf/
go test -run='^$' -fuzz='^FuzzParseConstraint$' -fuzztime=2s ./internal/opendap/
go test -run='^$' -fuzz='^FuzzParseDDS$' -fuzztime=2s ./internal/opendap/
go test -run='^$' -fuzz='^FuzzApplyConstraint$' -fuzztime=2s ./internal/opendap/
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime=3s ./internal/sparql/
go test -run='^$' -fuzz='^FuzzPlanKey$' -fuzztime=3s ./internal/sparql/
go test -run='^$' -fuzz='^FuzzResultsJSON$' -fuzztime=3s ./internal/sparql/
go test -run='^$' -fuzz='^FuzzSegmentOpen$' -fuzztime=3s ./internal/segment/
go test -run='^$' -fuzz='^FuzzWALReplay$' -fuzztime=3s ./internal/segment/
go test -run='^$' -fuzz='^FuzzDecodeLogRecords$' -fuzztime=3s ./internal/segment/
go test -run='^$' -fuzz='^FuzzWireDecode$' -fuzztime=3s ./internal/cluster/

echo "== budget overhead gate (budgeted vs unlimited engine)"
# Query budgets may not slow the engine down: applab-bench fails when
# Engine_BGPJoin's budgeted path exceeds the 5% ns/op overhead budget.
go run ./cmd/applab-bench -budget-json BENCH_PR5.json

echo "== segment store gate (ingest, cold start, memory-mode overhead)"
# The disk-backed store may not slow the in-memory path down:
# applab-bench fails when Engine_BGPJoin through the memory-mode
# segment store exceeds the 5% ns/op overhead budget. The report also
# records ingest throughput and the cold-start latency of the lazy boot
# (segment footer open) vs a full N-Triples parse-and-ingest replay.
go run ./cmd/applab-bench -segment-json BENCH_PR7.json

echo "== spatial join gate (envelope index vs per-row filtering)"
# The planner-selected spatial join must beat the per-row filter path by
# at least 3x on the Geographica join queries, every strategy (inl,
# store) must return the filter path's exact row count, and plans
# with no spatial filter may not pay more than 5% for the detection.
go run ./cmd/applab-bench -spatial-json BENCH_PR8.json

echo "== result cache gate (federated collapse + lookup overhead)"
# The plan-keyed result cache must collapse the repeated federated
# workload's upstream requests at least 10x, and the cache-disabled
# Lookup path (Bypass on an anonymous source) may not cost
# Engine_BGPJoin more than 5% ns/op.
go run ./cmd/applab-bench -cache-json BENCH_PR9.json

echo "== cluster serving gate (read scaling + hedged tail latency)"
# The replicated cluster must scale: 4 nodes serve the routed read
# workload at least 2.5x faster than 1 node in the deterministic
# queueing model, hedged reads must cut the slow-replica p99 at least
# 3x, and no hedged read may ever return duplicate rows.
go run ./cmd/applab-bench -cluster-json BENCH_PR10.json

echo "== bench compile smoke"
# Benchmarks must at least compile and run one iteration; keeps the
# BenchmarkEngine_* family (and BENCH_PR3.json's source) from rotting.
go test -run=NONE -bench=. -benchtime=1x ./... > /dev/null

echo "CI OK"

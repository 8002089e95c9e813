#!/bin/sh
# check.sh — the full local verification gate:
#   build, vet, race-enabled tests, the columnar segment round-trip
#   digests, the query-engine equivalences (live rollup/top/code-history
#   vs the batch kernels, snapshot consistency under compaction), the
#   titanql equivalences (compiled bitmap-intersected segment-parallel
#   plans vs the naive event fold, /query soaked during live
#   compaction), the crash-recovery soak (kill at every failpoint),
#   the titanfleet cluster soak (4-replica byte-identical merge, router
#   fan-out during a replica drain/restart, per-source QoS isolation,
#   alert-evidence superset replay — all race mode), short fuzz smokes
#   of the console parser, the batch splitter, and the titanql parser
#   (grammar round-trip + plan equivalence), and the benchmark budgets
#   (fast-path decode allocs, columnar load bytes/allocs, store heap per
#   event, journal overhead, mapped scan throughput, rollup allocations,
#   parallel query speedup and cluster ingest scaling on multi-core
#   machines).
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

# runtests PKG PATTERN [FLAG...] runs `go test FLAG... -run PATTERN PKG`
# after checking that every |-separated alternative of PATTERN matches
# at least one test in PKG (go test -list), so a renamed or merged test
# fails the gate instead of printing "[no tests to run]" and passing.
runtests() {
    pkg=$1
    pattern=$2
    shift 2
    listed=$(go test -list . "$pkg" | grep -E '^(Test|Fuzz|Example)')
    for alt in $(printf '%s' "$pattern" | tr '|' ' '); do
        if ! printf '%s\n' "$listed" | grep -Eq -- "$alt"; then
            echo "check.sh: -run alternative '$alt' matches no test in $pkg" >&2
            exit 1
        fi
    done
    go test "$@" -run "$pattern" "$pkg"
}

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== go test -race"
go test -race ./...

echo "== determinism under contention (GOMAXPROCS=2, race mode)"
(export GOMAXPROCS=2; runtests ./internal/sim 'TestRunIdenticalAcrossGOMAXPROCS' -race)
(export GOMAXPROCS=2; runtests ./internal/core 'TestDigestsAcrossGOMAXPROCS|TestReportGolden' -race)

echo "== stream-vs-batch equivalence soak (titand pipeline, race mode)"
runtests ./internal/serve 'TestStreamMatchesBatchHTTP|TestShutdown' -race -count=2
runtests ./internal/alert 'TestStreamMatchesBatch' -race -count=2
runtests ./internal/predict 'TestWarnerMatchesBatch' -race -count=2

echo "== columnar segment round-trip digests (seal -> scan, race mode)"
runtests ./internal/store 'TestRoundTripDigest|TestEventsExact' -race -count=2
runtests ./internal/dataset 'TestColumnarLoadIdentical|TestColumnarReportIdentical' -race -count=1
runtests ./internal/serve 'TestCompactionBoundsRetained|TestWarmRestart' -race -count=1

echo "== query engine: rollup-vs-batch equivalence + snapshot consistency (race mode)"
runtests ./internal/store 'TestRollupMatchesEventKernel|TestTopMatchesEventKernel|TestMappedMatchesHeap|TestPreparePublish|TestScanCodeRange|TestScanNodePruning' -race -count=1
runtests ./internal/serve 'TestRollupMatchesBatch|TestCodeHistoryFleetWide|TestTopOffenders|TestHistoryArrivalOrder|TestQueryConsistencyUnderCompaction' -race -count=1

echo "== titanql: compiled plans vs naive fold, /query under live compaction (race mode)"
go test -race ./internal/titanql -count=1
runtests ./internal/store 'TestBitmapOps|TestSegmentBitsMatchEvent|TestPredicateValidation|TestParallelByteIdentical|TestRollupWhereMatchesEventFold' -race -count=1
runtests ./internal/serve 'TestQueryEndpointMatchesNaive|TestRollupWhereParams|TestQueryExprConsistencyUnderCompaction' -race -count=1
runtests ./internal/dataset 'TestColumnarQueryIdentical' -race -count=1
runtests ./internal/core 'TestStudyQueryStoreBacked' -race -count=1

echo "== crash-recovery equivalence (journal + quarantine, race mode)"
runtests ./internal/serve 'TestCrashRestart|TestKillMidCompactionRecovery|TestQuarantineDegradedStart' -race -count=1
runtests ./internal/store 'TestOpenRecover|TestOpenRemovesOrphans' -race -count=1

echo "== crash-recovery soak (kill at every failpoint, scripts/crash.sh)"
./scripts/crash.sh

echo "== titanfleet cluster soak (merge byte-identity, drain/restart, QoS isolation, race mode)"
go test -race ./internal/router -count=1
runtests ./internal/serve 'TestFeedSupersetReplay|TestAlertFeedRestart|TestPerSourceAccountingExact' -race -count=1

echo "== benchmark smoke (full-period simulation, one iteration)"
go test . -run '^$' -bench 'BenchmarkSimulationFullPeriod$' -benchtime 1x

echo "== fuzz smoke (FuzzParseRawLine, 5s)"
go test ./internal/console -run '^$' -fuzz FuzzParseRawLine -fuzztime 5s

echo "== differential fuzz smoke (FuzzDecodeEquivalence, 5s)"
go test ./internal/console -run '^$' -fuzz FuzzDecodeEquivalence -fuzztime 5s

echo "== batch splitter fuzz smoke (FuzzSplitBatch, 5s)"
go test ./internal/console -run '^$' -fuzz FuzzSplitBatch -fuzztime 5s

echo "== titanql fuzz smoke (parser round-trip, 5s)"
go test ./internal/titanql -run '^$' -fuzz FuzzTitanQLParse -fuzztime 5s

echo "== titanql differential fuzz smoke (plan equivalence, 5s)"
go test ./internal/titanql -run '^$' -fuzz FuzzTitanQLEquivalence -fuzztime 5s

echo "== fast-path I/O + columnar store benchmarks and budgets (bench.sh, 1 iteration)"
BENCHTIME=1x BENCH_OUT="$(mktemp)" BENCH_SERVE_OUT="$(mktemp)" BENCH_STORE_OUT="$(mktemp)" ./scripts/bench.sh

echo "ok"

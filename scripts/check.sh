#!/bin/sh
# Repo gate: vet, build, and the full test suite under the race detector.
# The harness fans simulations out across goroutines, so -race here is
# what keeps future PRs honest about cache/pool concurrency.
#
# Usage: ./scripts/check.sh [-short]   (-short skips the slowest sweeps)
set -eu
cd "$(dirname "$0")/.."
set -x
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
go vet ./...
go build ./...
# Static-analysis gate: build the repo's own vet tool and run the analyzer
# suite (determinism, allocfree, pinpair, metricshoist, atomicfield,
# lockorder, seqlock, spsc, shardsafe, directives) over the module.
# See internal/analysis/README.md for the contracts and //bfgts: directives.
go build -o "$workdir/bfgtsvet" ./cmd/bfgtsvet
go vet -vettool="$workdir/bfgtsvet" ./...
# Concurrency lane: the partitioned-shard differentials under the race
# detector — short mode, fresh run (-count=1 so the cache never absorbs a
# flake), and a hard timeout, so a protocol regression surfaces here in
# seconds even when the full suite below is trimmed with -short.
go test -race -short -count=1 -timeout 300s \
	-run 'TestPartitionedWideMatchesSequential|TestPartitionedFallbacks|TestPartitionedRaceStress|TestShardBarrierRace|TestShardRingSPSC' \
	./internal/sim/
go test -race "$@" ./...
# Machine-readable output round trip: generate a small export and parse it
# back through the schema.
tmp="$workdir/export.json"
go run ./cmd/bfgts-sim -exp speedup -seed 1 -scale 0.02 -quiet -json-out "$tmp" >/dev/null
go run ./scripts/jsonverify "$tmp"
# Bloofi differential gate: the same experiment cell with the signature
# directory disabled (-no-bloofi) must be byte-identical — the directory
# is a host-side index, never a result change. The randomized in-process
# differential is TestBloofiMatchesLinear; this catches CLI-level drift.
bloofitmp="$workdir/export-linear.json"
go run ./cmd/bfgts-sim -exp speedup -seed 1 -scale 0.02 -quiet -no-bloofi -json-out "$bloofitmp" >/dev/null
cmp "$tmp" "$bloofitmp"
# Sharding differential gate: the wide experiment split across 4 shards
# must be byte-identical to the unsharded run — sharding is a host-side
# execution strategy, never a result change. Its Backoff-PT cell really
# partitions (the stamp experiments never do: they run sequentially at
# any shard count). The in-process differentials are
# TestPartitionedWideMatchesSequential and TestPartitionedFallbacks; this
# catches CLI-level drift.
widetmp="$workdir/export-wide.json"
shardtmp="$workdir/export-wide-sharded.json"
go run ./cmd/bfgts-sim -exp wide -seed 1 -scale 0.02 -quiet -json-out "$widetmp" >/dev/null
go run ./cmd/bfgts-sim -exp wide -seed 1 -scale 0.02 -quiet -shards 4 -json-out "$shardtmp" >/dev/null
cmp "$widetmp" "$shardtmp"
# STM smoke: a tiny stmbench sweep must run all three contention managers
# and emit an export that passes the same schema gate.
stmtmp="$workdir/stm.json"
go run ./cmd/stmbench -workers 2 -ops 200 -workloads counter,zipf -quiet -json-out "$stmtmp"
go run ./scripts/jsonverify "$stmtmp"
# Decision-trace round trip: a small single run must emit a schema-v2
# decisions document and a well-formed Chrome trace, both passing the
# jsonverify dispatch (it routes on document shape).
dectmp="$workdir/decisions.json"
chrometmp="$workdir/decisions.trace.json"
go run ./cmd/bfgts-sim -bench intruder -scale 0.02 -quiet \
	-decisions-out "$dectmp" -trace-chrome "$chrometmp" >/dev/null
go run ./scripts/jsonverify "$dectmp"
go run ./scripts/jsonverify "$chrometmp"
# Bench smoke: compile and run each hot-path microbenchmark once. The
# paired Test*AllocFree tests already gate the 0 allocs/op contract; this
# catches benchmarks that rot until release time.
go test -run=NONE -bench='BenchmarkTxLifecycle|BenchmarkEngineChurn|BenchmarkEq3Estimate|BenchmarkSTMContended$|BenchmarkTreeProbe|BenchmarkBFGTSPredict' \
	-benchtime=1x ./internal/tm/ ./internal/sim/ ./internal/bloom/ ./internal/stm/ ./internal/bloofi/ ./internal/sched/ >/dev/null
go test -run=NONE -bench='BenchmarkWideSharded' -benchtime=1x . >/dev/null
# Repository benchmark self-test: every perfbench workload at tiny size in
# both plain and traced modes, so an API change that breaks the benchmark
# fails here instead of at benchmark time.
(cd perfbench && go test -count=1 .)
# Fig4a wall-clock gate: the end-to-end figure run must stay within 15% of
# the committed baseline, so batching-path regressions fail here instead of
# rotting. The baseline is machine-specific — on other hardware either
# refresh scripts/fig4a_baseline.txt or set SKIP_FIG4A_GATE=1.
if [ -z "${SKIP_FIG4A_GATE:-}" ]; then
	baseline=$(grep -v '^#' scripts/fig4a_baseline.txt)
	nsop=$(go test -run=NONE -bench='^BenchmarkFig4a$' -benchtime=1x . |
		awk '/^BenchmarkFig4a/ {print $3; exit}')
	awk -v base="$baseline" -v got="$nsop" 'BEGIN {
		limit = base * 1.15
		printf "fig4a gate: %.0f ns/op vs baseline %.0f (limit %.0f)\n", got, base, limit
		exit got > limit ? 1 : 0
	}' || { echo "BenchmarkFig4a regressed >15% vs scripts/fig4a_baseline.txt" >&2; exit 1; }
fi

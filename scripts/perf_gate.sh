#!/bin/sh
# CI perf gate: snapshot the benchmark matrix at this revision, prove the
# snapshot is deterministic, and diff it against the committed baseline.
#
#  1. Two back-to-back snapshots must have byte-identical virtual-metric
#     sections — the simulator is deterministic, so any difference here
#     is nondeterminism in the code under test, and every later
#     comparison would be meaningless.
#  2. bftbench -compare gates on unacknowledged virtual drift against
#     BENCH_baseline.json (.perf-allow acknowledges intended changes).
#     It compares nothing else: the snapshot's allocation counts are
#     recorded data, and cost is judged by go run ./benchmark.
#
# The workflow uploads BENCH_head.json and BENCH_baseline.json as
# artifacts either way, so a red gate ships the evidence.
set -eux

go build ./...
go run ./cmd/bftbench -snapshot BENCH_head.json
go run ./cmd/bftbench -snapshot BENCH_head2.json
go run ./cmd/bftbench -perf-virtual BENCH_head.json  > BENCH_head.virtual
go run ./cmd/bftbench -perf-virtual BENCH_head2.json > BENCH_head2.virtual
cmp BENCH_head.virtual BENCH_head2.virtual
rm -f BENCH_head2.json BENCH_head.virtual BENCH_head2.virtual
go run ./cmd/bftbench -compare BENCH_baseline.json BENCH_head.json

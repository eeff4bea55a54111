#!/bin/sh
# Full pre-merge gate: gofmt, vet, build, then the whole test suite with
# the race detector on (the transport and obsv layers are concurrent; a
# non-race run can pass while a data race hides).
set -eux

# gofmt -l prints the files it would rewrite; any output fails the gate.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files are not formatted (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
# The experiment smoke suite replays every table of EXPERIMENTS.md; under
# the race detector's ~15x slowdown that outgrows go test's default 10m
# per-package budget, so raise it — a hang still fails, just later.
go test -race -timeout 40m ./...

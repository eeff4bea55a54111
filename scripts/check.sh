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

# One vote table: nested per-sender vote maps anywhere in the protocols or
# the kit, and flat per-slot vote maps in the eight packages whose ordering
# stage runs on core.Slots, must not come back.
nested=$(grep -rnE 'map\[[^]]+\]map\[types\.NodeID\]' internal/protocols internal/core || true)
flat=$(grep -nE 'map\[types\.NodeID\](\[\]byte|bool)' \
	$(ls internal/protocols/pbft/*.go internal/protocols/poe/*.go internal/protocols/sbft/*.go \
		internal/protocols/zyzzyva/*.go internal/protocols/fab/*.go internal/protocols/cheapbft/*.go \
		internal/protocols/kauri/*.go internal/protocols/themis/*.go | grep -v _test.go) || true)
if [ -n "$nested$flat" ]; then
	echo "hand-rolled vote maps (count votes with core.Tally / core.Slots):" >&2
	echo "$nested$flat" >&2
	exit 1
fi

# One view-change wire format: the eight stable-leader protocols share
# core.ViewChangeMsg / NewViewMsg / CommittedSlot and core.ViewChange's
# recovery loop; a private copy in a protocol package must not come back.
private=$(grep -rnE 'type (ViewChangeMsg|NewViewMsg|CommittedSlot) ' --include='*.go' --exclude='*_test.go' internal/protocols || true)
if [ -n "$private" ]; then
	echo "per-protocol view-change wire types (use the shared ones in internal/core/viewchange.go):" >&2
	echo "$private" >&2
	exit 1
fi

# One deployment assembly (internal/harness/node.go): the sizing loop, the
# forensics role-asymmetry gate, the verification-engine constructor and
# the inbound-lane call each live in one file, and there is one tap type.
# benchmark/ measures from outside and is not part of the program.
sources=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*')
for pattern in 'MinReplicas(ff) <= n' 'AsymmetricRoles = true' 'vpool\.New(' '[a-z]\.SetInboundPrepare('; do
	files=$(grep -l -- "$pattern" $sources || true)
	if [ "$(printf '%s\n' "$files" | grep -c .)" -gt 1 ]; then
		echo "second copy of '$pattern' (assemble deployments through internal/harness/node.go):" >&2
		echo "$files" >&2
		exit 1
	fi
done
taps=$(grep -nE 'type [a-zA-Z]*Tap struct' $sources || true)
if [ "$(printf '%s\n' "$taps" | grep -c .)" -gt 1 ]; then
	echo "more than one delivery-tap type (feed listeners through harness's fanout.tap):" >&2
	echo "$taps" >&2
	exit 1
fi

# One setter in the store: the leaf-digest cache behind Store.Hash is only
# right if every change to a key goes through Store.set, so a second
# assignment into (or delete from) s.data must not come back.
writes=$(grep -nE 's\.data\[.*\] *=|delete\(s\.data' internal/kvstore/kvstore.go || true)
if [ "$(printf '%s\n' "$writes" | grep -c .)" -ne 2 ]; then
	echo "kvstore: s.data is written outside Store.set (want one assignment and one delete, both in set):" >&2
	echo "$writes" >&2
	exit 1
fi

go vet ./...
go build ./...
# The experiment smoke suite replays every table of EXPERIMENTS.md; under
# the race detector's ~15x slowdown that outgrows go test's default 10m
# per-package budget, so raise it — a hang still fails, just later.
go test -race -timeout 40m ./...

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

# The non-test sources of the eight packages whose ordering stage runs on
# core.Slots.
slots_sources=$(ls internal/protocols/pbft/*.go internal/protocols/poe/*.go internal/protocols/sbft/*.go \
	internal/protocols/zyzzyva/*.go internal/protocols/fab/*.go internal/protocols/cheapbft/*.go \
	internal/protocols/kauri/*.go internal/protocols/themis/*.go | grep -v _test.go)

# One vote table: nested per-sender vote maps anywhere in the protocols or
# the kit, and flat per-slot vote maps in the eight Slots packages, must
# not come back.
nested=$(grep -rnE 'map\[[^]]+\]map\[types\.NodeID\]' internal/protocols internal/core || true)
flat=$(grep -nE 'map\[types\.NodeID\](\[\]byte|bool)' $slots_sources || true)
if [ -n "$nested$flat" ]; then
	echo "hand-rolled vote maps (count votes with core.Tally / core.Slots):" >&2
	echo "$nested$flat" >&2
	exit 1
fi

# One wire format: the eight Slots packages order with core.ProposeMsg /
# VoteMsg / CertMsg and change views with core.ViewChangeMsg / NewViewMsg.
# A message type of their own is one of those with no counterpart there:
# Zyzzyva's client commit path, Themis's order reports, CheapBFT's updates
# to passive replicas, Kauri's up-tree aggregates and PBFT's catch-up pair.
keep='/zyzzyva/[a-z]+\.go:[0-9]+:type (CommitMsg|LocalCommitMsg) |/themis/[a-z]+\.go:[0-9]+:type ReportMsg |/cheapbft/[a-z]+\.go:[0-9]+:type UpdateMsg |/kauri/[a-z]+\.go:[0-9]+:type AggrMsg |/pbft/[a-z]+\.go:[0-9]+:type (FetchCommittedMsg|CommittedMsg) '
private=$(grep -nE 'type [A-Za-z0-9_]*Msg struct' $slots_sources | grep -vE "$keep" || true)
if [ -n "$private" ]; then
	echo "per-protocol ordering or view-change wire types (use the shared ones in internal/core):" >&2
	echo "$private" >&2
	exit 1
fi

# One stage runner: core.Slots casts, counts, certifies, commits and
# speculates for the six packages that declare a stage list (SBFT and Kauri
# still drive their stages by hand).
ported=$(ls internal/protocols/pbft/*.go internal/protocols/fab/*.go internal/protocols/cheapbft/*.go \
	internal/protocols/themis/*.go internal/protocols/poe/*.go internal/protocols/zyzzyva/*.go | grep -v _test.go)
staged=$(grep -nE 'NewVote\(|Slots\.Vote\(|\.Reached\(|\.Certify\(|SpecExecute\(|HistoryDigest\(' $ported || true)
if [ -n "$staged" ]; then
	echo "hand-written ordering stages (declare a core.StageSpec list and let core.Slots run it):" >&2
	echo "$staged" >&2
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

# One scheduler: internal/sim queues event values in its own heap. Neither
# container/heap (which boxes every push) nor a closure per delivery in
# network.go may come back.
sim_sources=$(ls internal/sim/*.go | grep -v _test.go)
boxed=$(grep -n '"container/heap"' $sim_sources || true)
closures=$(grep -nE '[(,=] *func\(' internal/sim/network.go || true)
if [ -n "$boxed$closures" ]; then
	echo "sim: container/heap or a function literal on the delivery path (schedule event values):" >&2
	echo "$boxed$closures" >&2
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

# Smoke-test what has no test of its own: every example program, and
# bftspace apply for every design choice on pbft. A choice may refuse pbft
# with its "is not applicable" precondition error; any other failure — a
# panic, an unknown name — fails the gate.
for example in examples/*/; do
	go run "./$example" >/dev/null
done
bin=$(mktemp -d)
go build -o "$bin/bftspace" ./cmd/bftspace
for choice in $("$bin/bftspace" choices | awk '{print $2}'); do
	if ! out=$("$bin/bftspace" apply "$choice" pbft 2>&1); then
		case "$out" in
		*"is not applicable"*) ;;
		*)
			echo "bftspace apply $choice pbft: $out" >&2
			exit 1
			;;
		esac
	fi
done
rm -rf "$bin"
# The experiment smoke suite replays every table of EXPERIMENTS.md; under
# the race detector's ~15x slowdown that outgrows go test's default 10m
# per-package budget, so raise it — a hang still fails, just later.
go test -race -timeout 40m ./...

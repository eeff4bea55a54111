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

# One vote table: nested per-sender vote maps in the protocols or the kit,
# and flat per-sender vote maps in any protocol, must not come back. The
# votes, acknowledgements and distinct-signer checks they held count
# through core.Tally.
protocol_sources=$(find internal/protocols -name '*.go' ! -name '*_test.go')
nested=$(grep -rnE 'map\[[^]]+\]map\[types\.NodeID\]' internal/protocols internal/core || true)
flat=$(grep -nE 'map\[types\.NodeID\](\[\]byte|bool)' $protocol_sources || true)
if [ -n "$nested$flat" ]; then
	echo "hand-rolled vote maps (count votes with core.Tally / core.Slots):" >&2
	echo "$nested$flat" >&2
	exit 1
fi

# One request intake: HotStuff, Tendermint and the eight Slots packages
# admit, queue and retire requests through core.Backlog, so none of them
# declares a per-request set of its own. Themis's fair-order sets (the
# requests reported to it, and those already fed into a proposal) are
# ordering state, not an intake.
intake_sources=$(ls $slots_sources internal/protocols/hotstuff/*.go internal/protocols/tendermint/*.go | grep -v _test.go)
request_sets=$(grep -nE 'map\[types\.RequestKey\]bool' $intake_sources | grep -vE '/themis/[a-z]+\.go:' || true)
if [ -n "$request_sets" ]; then
	echo "per-request sets outside core.Backlog (admit requests through core.Backlog):" >&2
	echo "$request_sets" >&2
	exit 1
fi

# One fault vocabulary: Byzantine behaviour is injected through
# internal/byz (harness.Options.Byzantine), not through attack knobs
# compiled into a protocol or the kit. FrontRun stays in pbft: it picks
# which queued requests enter a batch, which no outgoing message shows.
knob_sources=$(find internal/protocols internal/core -name '*.go' ! -name '*_test.go')
knobs=$(grep -nE 'Silent(Leader|Backup|Active|Proposer)|EquivocateAsLeader|EquivocatingProposer|DelayAttack|CorruptBackup|Withhold' $knob_sources || true)
if [ -n "$knobs" ]; then
	echo "attack knobs in a protocol or the kit (inject the fault with an internal/byz behaviour):" >&2
	echo "$knobs" >&2
	exit 1
fi

# One wire format: the eight Slots packages order with core.ProposeMsg /
# VoteMsg / CertMsg and change views with core.ViewChangeMsg / NewViewMsg.
# A message type of their own is one of those with no counterpart there:
# Zyzzyva's client commit path, Themis's order reports, CheapBFT's updates
# to passive replicas and PBFT's catch-up pair.
keep='/zyzzyva/[a-z]+\.go:[0-9]+:type (CommitMsg|LocalCommitMsg) |/themis/[a-z]+\.go:[0-9]+:type ReportMsg |/cheapbft/[a-z]+\.go:[0-9]+:type UpdateMsg |/pbft/[a-z]+\.go:[0-9]+:type (FetchCommittedMsg|CommittedMsg) '
private=$(grep -nE 'type [A-Za-z0-9_]*Msg struct' $slots_sources | grep -vE "$keep" || true)
if [ -n "$private" ]; then
	echo "per-protocol ordering or view-change wire types (use the shared ones in internal/core):" >&2
	echo "$private" >&2
	exit 1
fi

# One stage runner: core.Slots casts, counts, certifies, commits and
# speculates for the eight packages that declare a stage list, SBFT's fast
# path and Kauri's tree included.
staged=$(grep -nE 'NewVote\(|Slots\.Vote\(|\.Reached\(|\.Certify\(|SpecExecute\(|HistoryDigest\(' $slots_sources || true)
if [ -n "$staged" ]; then
	echo "hand-written ordering stages (declare a core.StageSpec list and let core.Slots run it):" >&2
	echo "$staged" >&2
	exit 1
fi

# One assignment loop: the Slots packages hand out sequence numbers through
# core.Slots.Propose and its pipeline window. Themis alone assigns its
# own: its batch is the fair order of n-f reports, which a cap would cut.
assigned=$(grep -nE 'Slots\.Next\(\)' $slots_sources | grep -v '/themis/' || true)
if [ -n "$assigned" ]; then
	echo "a second assignment loop (propose through core.Slots.Propose; Issuer and Take are its seams):" >&2
	echo "$assigned" >&2
	exit 1
fi

# One batching rule: a leader's load (Env.Busy, the driver's queued
# inbound events) is read by core.Slots.Propose alone; the Replica only
# passes its Driver's answer on. A protocol or kit file that read load
# itself would batch by a second rule.
busy=$(grep -nE '\.Busy\(\)' $knob_sources | grep -vE '^internal/core/(slots|runtime)\.go:' || true)
if [ -n "$busy" ]; then
	echo "load read outside core.Slots.Propose (batch through its one rule):" >&2
	echo "$busy" >&2
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
# The simulator alone signs with modeled tags: harness.NewCluster is the
# one caller of the modeled authority's constructor, so no other program
# (a socket deployment, benchmark/'s micro-suite) can build one.
modeled=$(grep -ln 'crypto\.NewModeledAuthority(' $(find . -name '*.go' ! -name '*_test.go') |
	grep -v '^\./internal/harness/cluster\.go$' || true)
if [ -n "$modeled" ]; then
	echo "the modeled signature authority built outside harness.NewCluster (sockets sign with crypto.NewAuthority):" >&2
	echo "$modeled" >&2
	exit 1
fi
taps=$(grep -nE 'type [a-zA-Z]*Tap struct' $sources || true)
if [ "$(printf '%s\n' "$taps" | grep -c .)" -gt 1 ]; then
	echo "more than one delivery-tap type (feed listeners through harness's fanout.tap):" >&2
	echo "$taps" >&2
	exit 1
fi

# One request authenticator: a client's request is checked by
# core.VerifyRequest alone, which reads the deployment's scheme (a MAC
# deployment's request carries one MAC per replica, not a signature). A
# signature check over a request's client anywhere else would refuse every
# MAC'd request or accept a signature where a vector belongs.
reqsig=$(grep -nE 'VerifySig\(([a-z]+\.)?(r|req|Req)\.Client\b' $sources | grep -v '^\./internal/core/auth\.go:' || true)
if [ -n "$reqsig" ]; then
	echo "a client's request checked outside core.VerifyRequest (call it; it follows the deployment's scheme):" >&2
	echo "$reqsig" >&2
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

# One codec: the transport frames messages with internal/wire and obsv
# sizes them with it. gob survives only in internal/transport/wire.go,
# whose registration and Envelope the benchmark's micro-suite still uses
# to price gob beside the codec.
gob=$(grep -l '"encoding/gob"' $sources | grep -v '^./internal/transport/wire.go$' || true)
if [ -n "$gob" ]; then
	echo "encoding/gob imported outside internal/transport/wire.go (frame with internal/wire):" >&2
	echo "$gob" >&2
	exit 1
fi

# One claim interface, and a prefetch that allocates nothing: messages
# expose their signatures through crypto.SigClaimer's AppendSigClaims
# alone, and the verification engine's memo is its own index-linked LRU,
# not container/list, which boxes every key.
listed=$(grep -l '"container/list"' $(ls internal/crypto/vpool/*.go | grep -v _test.go) || true)
claimers=$(grep -nE '\) SigClaims\(' $sources || true)
if [ -n "$listed$claimers" ]; then
	echo "container/list in internal/crypto/vpool, or a SigClaims method (implement AppendSigClaims):" >&2
	echo "$listed$claimers" >&2
	exit 1
fi

# One judge per question: internal/perf and bftbench's perf mode judge
# sameness (exact virtual metrics) alone; cost is go run ./benchmark's.
# Host-wall bands, wall medians and pprof capture must not come back.
perf_sources=$(ls internal/perf/*.go cmd/bftbench/*.go | grep -v _test.go)
hostgate=$(grep -nE 'WallNS|wall_ns|WallTolerance|GateWall|runtime/pprof' $perf_sources || true)
if [ -n "$hostgate" ]; then
	echo "host-wall gating or pprof capture in the perf gate (it judges sameness only):" >&2
	echo "$hostgate" >&2
	exit 1
fi

# One sameness ledger: the perf matrix's leader-crash cells pin what a
# crash does, in BENCH_<seq>.json beside every other cell. A second
# golden for it, or a flag that rewrites one, must not come back.
ledger=$(grep -rln 'update-leader-crash' --include='*.go' . || true)
if [ -e internal/experiments/testdata/leader_crash.json ]; then
	ledger="internal/experiments/testdata/leader_crash.json $ledger"
fi
if [ -n "$ledger" ]; then
	echo "a second sameness ledger (gate fault-path behaviour with a leader-crash cell in internal/perf):" >&2
	echo "$ledger" >&2
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
go test -race ./...

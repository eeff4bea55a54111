package chaos

import (
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/types"

	_ "bftkit/internal/protocols/pbft"
	_ "bftkit/internal/protocols/qu"
)

// Mutation tests for the invariant oracle: each test replays a known-bad
// trace — the kind a protocol or simulator regression would produce —
// and demands the checker flag it with the right invariant. An oracle
// that stays silent on any of these is broken, however green the fuzz
// campaigns look.

func testOracle(t *testing.T, protocol string) *Oracle {
	t.Helper()
	cfg := Config{Protocol: protocol, N: 4, F: 1, Clients: 1, Requests: 4, Seed: 1}
	now := time.Duration(0)
	return NewOracle(cfg, func() time.Duration { now += time.Millisecond; return now })
}

func req(clientSeq uint64, op string) *types.Request {
	return &types.Request{Client: types.ClientIDBase, ClientSeq: clientSeq, Op: []byte(op)}
}

func wantInvariant(t *testing.T, o *Oracle, inv string) {
	t.Helper()
	for _, v := range o.Violations() {
		if v.Invariant == inv {
			return
		}
	}
	t.Fatalf("oracle missed a %s violation; flagged: %v", inv, o.Violations())
}

func wantClean(t *testing.T, o *Oracle) {
	t.Helper()
	if vs := o.Violations(); len(vs) > 0 {
		t.Fatalf("oracle flagged a legal trace: %v", vs)
	}
}

func TestOracleFlagsForkedCommitPrefix(t *testing.T) {
	o := testOracle(t, "pbft")
	a := types.NewBatch(req(1, "put a"))
	b := types.NewBatch(req(1, "put b"))
	o.OnCommit(0, 1, 7, a, nil, 0)
	o.OnCommit(1, 1, 7, b, nil, 0) // different batch, same sequence
	wantInvariant(t, o, InvAgreement)
}

func TestOracleFlagsForkedExecution(t *testing.T) {
	o := testOracle(t, "pbft")
	a := types.NewBatch(req(1, "put a"))
	b := types.NewBatch(req(2, "put b"))
	o.OnExecute(0, 3, a, [][]byte{[]byte("ok")}, 0)
	o.OnExecute(2, 3, b, [][]byte{[]byte("ok")}, 0)
	wantInvariant(t, o, InvAgreement)
}

func TestOracleAcceptsAgreeingReplicas(t *testing.T) {
	o := testOracle(t, "pbft")
	a := types.NewBatch(req(1, "put a"))
	for id := types.NodeID(0); id < 4; id++ {
		o.OnCommit(id, 1, 1, a, nil, 0)
		o.OnExecute(id, 1, a, [][]byte{[]byte("ok")}, 0)
	}
	o.OnDone(types.ClientIDBase, req(1, "put a"), []byte("ok"), 0)
	o.Finalize(1, 1, true, time.Second)
	wantClean(t, o)
}

func TestOracleFlagsLostAckedCommit(t *testing.T) {
	o := testOracle(t, "pbft")
	// The client was told "done" but no honest replica ever executed the
	// request: the ack is not backed by anything durable.
	o.OnDone(types.ClientIDBase, req(1, "put a"), []byte("ok"), 0)
	o.Finalize(1, 1, true, time.Second)
	wantInvariant(t, o, InvDurability)
}

func TestOracleFlagsCorruptedResult(t *testing.T) {
	// Execution first, ack later.
	o := testOracle(t, "pbft")
	r := req(1, "put a")
	o.OnExecute(0, 1, types.NewBatch(r), [][]byte{[]byte("honest")}, 0)
	o.OnDone(types.ClientIDBase, r, []byte("forged"), 0)
	wantInvariant(t, o, InvResult)

	// Ack first, execution later (speculative path).
	o = testOracle(t, "pbft")
	o.OnDone(types.ClientIDBase, r, []byte("forged"), 0)
	o.OnExecute(0, 1, types.NewBatch(r), [][]byte{[]byte("honest")}, 0)
	wantInvariant(t, o, InvResult)
}

func TestOracleFlagsDivergentHonestResults(t *testing.T) {
	o := testOracle(t, "pbft")
	r := req(1, "put a")
	o.OnExecute(0, 1, types.NewBatch(r), [][]byte{[]byte("x")}, 0)
	o.OnExecute(1, 1, types.NewBatch(r), [][]byte{[]byte("y")}, 0)
	wantInvariant(t, o, InvResult)
}

func TestOracleAcceptsDuplicateMarker(t *testing.T) {
	// A lost reply makes the client retransmit; replicas answer the
	// re-execution with the duplicate marker. Acking it is legal.
	o := testOracle(t, "pbft")
	r := req(1, "put a")
	o.OnExecute(0, 1, types.NewBatch(r), [][]byte{[]byte("real")}, 0)
	o.OnDone(types.ClientIDBase, r, core.DuplicateResult, 0)
	o.Finalize(1, 1, true, time.Second)
	wantClean(t, o)
}

func TestOracleFlagsPostGSTStall(t *testing.T) {
	o := testOracle(t, "pbft")
	o.Finalize(2, 8, true, time.Second)
	wantInvariant(t, o, InvLiveness)

	// The same shortfall on a schedule that never settles (a partition
	// left open, say) is not a liveness obligation.
	o = testOracle(t, "pbft")
	o.Finalize(2, 8, false, time.Second)
	wantClean(t, o)
}

func TestOracleFlagsZombieDeliveries(t *testing.T) {
	o := testOracle(t, "pbft")
	o.Crash(2)
	o.OnDeliver(0, 0, 2, nil) // delivery to a crashed replica
	wantInvariant(t, o, InvZombie)

	o = testOracle(t, "pbft")
	o.Partition([]types.NodeID{0, 1})
	o.OnDeliver(0, 0, 2, nil) // delivery across the partition
	wantInvariant(t, o, InvZombie)

	// After restart/heal the same deliveries are legal again.
	o = testOracle(t, "pbft")
	o.Crash(2)
	o.Restart(2)
	o.OnDeliver(0, 0, 2, nil)
	o.Partition([]types.NodeID{0, 1})
	o.Heal()
	o.OnDeliver(0, 0, 2, nil)
	wantClean(t, o)
}

func TestOracleFlagsRuntimeViolation(t *testing.T) {
	o := testOracle(t, "pbft")
	o.OnViolation(1, errLedgerConflict{})
	wantInvariant(t, o, InvRuntime)
}

type errLedgerConflict struct{}

func (errLedgerConflict) Error() string { return "ledger: conflicting commit at seq 7" }

func TestOracleIgnoresByzantineReplicas(t *testing.T) {
	cfg := Config{Protocol: "pbft", N: 4, F: 1, Clients: 1, Requests: 1, Seed: 1,
		Byz: []ByzAssignment{{Node: 3, Spec: "equivocate"}}}
	o := NewOracle(cfg, func() time.Duration { return 0 })
	a := types.NewBatch(req(1, "put a"))
	b := types.NewBatch(req(1, "put b"))
	o.OnCommit(0, 1, 1, a, nil, 0)
	o.OnCommit(3, 1, 1, b, nil, 0) // the byz node's ledger is its own problem
	wantClean(t, o)
}

func TestOracleExeclessSkipsExecutionInvariants(t *testing.T) {
	// Q/U has no ordered execution stream; durability and result checks
	// would all be false positives there.
	o := testOracle(t, "qu")
	o.OnDone(types.ClientIDBase, req(1, "put a"), []byte("ok"), 0)
	o.Finalize(1, 1, true, time.Second)
	wantClean(t, o)
}

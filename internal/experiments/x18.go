package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/forensics"
	"bftkit/internal/harness"
	"bftkit/internal/types"
)

// x18Cell configures one attribution scenario: a behavior, who runs it
// (proposer attacks on the initial leader, participation attacks on the
// last replica), auditor tuning, and extra post-workload run time for
// slow-burn evidence like replay spam.
type x18Cell struct {
	name  string
	make  func() byz.Behavior
	node  func(n int) types.NodeID
	fo    func() *forensics.Options
	extra time.Duration
}

var x18Cells = []x18Cell{
	{"equivocate", func() byz.Behavior { return byz.Equivocate{} },
		func(int) types.NodeID { return 0 },
		func() *forensics.Options { return &forensics.Options{} }, 0},
	{"withhold", byz.WithholdVotes,
		func(n int) types.NodeID { return types.NodeID(n - 1) },
		func() *forensics.Options { return &forensics.Options{} }, 0},
	{"delay", func() byz.Behavior { return byz.DelayProposals{Delay: 5 * time.Millisecond} },
		func(int) types.NodeID { return 0 },
		func() *forensics.Options { return &forensics.Options{} }, 0},
	{"corrupt", func() byz.Behavior { return byz.CorruptResults{} },
		func(n int) types.NodeID { return types.NodeID(n - 1) },
		func() *forensics.Options { return &forensics.Options{} }, 0},
	{"stuff", func() byz.Behavior { return byz.CorruptResults{Stuff: true} },
		func(n int) types.NodeID { return types.NodeID(n - 1) },
		func() *forensics.Options { return &forensics.Options{} }, 0},
	{"stale", func() byz.Behavior { return byz.StaleViewSpam{Interval: 10 * time.Millisecond, Keep: 4} },
		func(int) types.NodeID { return 0 },
		func() *forensics.Options { return &forensics.Options{ReplayThreshold: 6} }, 2 * time.Second},
}

// x18Run executes one attribution cell and returns the cluster and the
// auditor's verdict. Fine-grained steps with an early exit keep the
// report span close to the span of actual traffic, so the suspicion
// octiles measure the run rather than trailing idle time.
func x18Run(proto string, cell x18Cell) (*harness.Cluster, types.NodeID, *forensics.Report) {
	reg, _ := core.Lookup(proto)
	n := reg.Profile.MinReplicas(1)
	culprit := cell.node(n)
	c := harness.NewCluster(harness.Options{
		Protocol: proto, N: n, F: 1, Clients: 2, Seed: 42,
		Tune: func(cfg *core.Config) {
			cfg.Delta = 20 * time.Millisecond
			cfg.RequestTimeout = 100 * time.Millisecond
			cfg.CheckpointInterval = 16
		},
		Byzantine: map[types.NodeID]byz.Behavior{culprit: cell.make()},
		Forensics: cell.fo(),
	})
	c.Start()
	c.ClosedLoop(20, op)
	for ran := time.Duration(0); ran < 30*time.Second && c.Metrics.Completed < 40; ran += 100 * time.Millisecond {
		c.Run(100 * time.Millisecond)
	}
	if cell.extra > 0 {
		c.Run(cell.extra)
	}
	return c, culprit, c.Forensics.Report(c.Sched.Now())
}

// X18WhoDidIt answers the accountability question for a misbehaving
// deployment: given only the delivered message stream and the public
// keys, which replica did it, and can a third party check the answer?
// Each row runs one Byzantine behavior against one protocol with the
// forensics auditor attached and classifies the verdict:
//
//   - convicted: a cryptographic proof names the culprit and re-verifies
//     offline against the run's key ring alone — portable evidence;
//   - accused: no proof exists (omissions are unprovable) but the
//     culprit's withholding score crossed the accusation threshold;
//   - suspected: the culprit merely tops the suspicion ranking — always
//     the best lateness can earn, since an honest replica behind a slow
//     link is just as late;
//   - undetected: the behavior leaves no attributable trace under this
//     protocol's signing discipline (MAC ordering has no
//     non-repudiation, a passive spare never signs replies, ...).
//
// "framed" never appears: any honest replica named in a proof or on the
// accusation list is a bug the accountability gauntlet fails on.
func X18WhoDidIt(w io.Writer) {
	fmt.Fprintln(w, "X18: who did it? — forensic attribution per behavior (f=1, seed 42)")
	fmt.Fprintf(w, "%-11s %-11s %-8s %-28s %-8s %s\n",
		"protocol", "behavior", "culprit", "proofs", "accused", "verdict")
	for _, proto := range []string{"pbft", "pbft-mac", "hotstuff", "tendermint", "cheapbft"} {
		for _, cell := range x18Cells {
			c, culprit, rep := x18Run(proto, cell)

			ring := c.Auth.KeyRing(c.Cfg.N)
			kinds := map[string]bool{}
			framed := false
			for _, p := range rep.Proofs {
				if p.Culprit != culprit || p.Verify(ring, c.Cfg.F) != nil {
					framed = true
					continue
				}
				kinds[p.Proof] = true
			}
			var kindList []string
			for k := range kinds {
				kindList = append(kindList, k)
			}
			sort.Strings(kindList)
			proofCol := strings.Join(kindList, ",")
			if proofCol == "" {
				proofCol = "-"
			}

			accusedCol := "-"
			for _, id := range rep.Accused {
				if id == culprit {
					accusedCol = "yes"
				} else {
					framed = true
				}
			}
			topIsCulprit := len(rep.Scores) > 0
			for _, s := range rep.Scores {
				if s.Node != culprit {
					cs := scoreFor(rep, culprit)
					if s.Suspicion >= cs.Suspicion {
						topIsCulprit = false
					}
				}
			}

			verdict := "undetected"
			switch {
			case framed:
				verdict = "FRAMED (bug)"
			case len(kinds) > 0:
				verdict = "convicted"
			case accusedCol == "yes":
				verdict = "accused"
			case topIsCulprit:
				verdict = "suspected"
			}
			fmt.Fprintf(w, "%-11s %-11s %-8d %-28s %-8s %s\n",
				proto, cell.name, culprit, proofCol, accusedCol, verdict)
		}
	}
	fmt.Fprintln(w, "  convicted = offline-verifiable proof; accused = statistical, above threshold;")
	fmt.Fprintln(w, "  suspected = top suspicion score only; undetected = no attributable trace exists.")
}

// RunForensics is the bftbench -forensics entry point: one protocol
// with the auditor attached, optionally under a Byzantine behavior on
// chosen replicas, printing the verdict table and re-checking every
// proof offline the way a third party with only the public keys would.
func RunForensics(w io.Writer, proto, spec string, nodes []types.NodeID, seed int64) error {
	var byzMap map[types.NodeID]byz.Behavior
	label := "honest"
	if spec != "" {
		b, err := byz.Parse(spec)
		if err != nil {
			return err
		}
		if len(nodes) == 0 {
			nodes = []types.NodeID{0}
		}
		byzMap = make(map[types.NodeID]byz.Behavior, len(nodes))
		for _, id := range nodes {
			byzMap[id] = b
		}
		label = b.Name()
	}
	c := harness.NewCluster(harness.Options{
		Protocol: proto, F: 1, Clients: 2, Seed: seed,
		Tune: func(cfg *core.Config) {
			cfg.Delta = 20 * time.Millisecond
			cfg.RequestTimeout = 100 * time.Millisecond
			cfg.CheckpointInterval = 16
		},
		Byzantine: byzMap,
		Forensics: &forensics.Options{},
	})
	c.Start()
	c.ClosedLoop(20, op)
	for ran := time.Duration(0); ran < 30*time.Second && c.Metrics.Completed < 40; ran += 100 * time.Millisecond {
		c.Run(100 * time.Millisecond)
	}
	rep := c.Forensics.Report(c.Sched.Now())

	fmt.Fprintf(w, "forensics: %s under %q (n=%d f=%d seed %d), %d requests completed\n",
		proto, label, c.Cfg.N, c.Cfg.F, seed, c.Metrics.Completed)
	rep.WriteTable(w)
	ring := c.Auth.KeyRing(c.Cfg.N)
	for _, p := range rep.Proofs {
		if err := p.Verify(ring, c.Cfg.F); err != nil {
			fmt.Fprintf(w, "  PROOF FAILED OFFLINE RE-VERIFICATION: %v\n", err)
		}
	}
	if len(rep.Proofs) > 0 {
		fmt.Fprintf(w, "  %d proof(s) re-verified offline with public keys only\n", len(rep.Proofs))
	}
	return nil
}

func scoreFor(r *forensics.Report, id types.NodeID) forensics.Score {
	for _, s := range r.Scores {
		if s.Node == id {
			return s
		}
	}
	return forensics.Score{}
}

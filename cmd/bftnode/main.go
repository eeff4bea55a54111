// Command bftnode runs one replica of any registered protocol over TCP —
// the local multi-node deployment path. Start n processes with the same
// -peers table (and the same -seed, which derives the deployment's key
// material), then drive them with bftclient.
//
// Example, a 4-node PBFT cluster on one machine:
//
//	bftnode -id 0 -protocol pbft -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	bftnode -id 1 -protocol pbft -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	bftnode -id 2 -protocol pbft -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	bftnode -id 3 -protocol pbft -peers 0=:7000,1=:7001,2=:7002,3=:7003 &
//	bftclient -protocol pbft -peers ... -requests 100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/crypto/vpool"
	"bftkit/internal/forensics"
	"bftkit/internal/harness"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

func main() {
	id := flag.Int("id", 0, "replica ID (0..n-1)")
	proto := flag.String("protocol", "pbft", "registered protocol name")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port for every replica")
	seed := flag.Int64("seed", 1, "deployment key seed (must match across nodes)")
	f := flag.Int("f", 0, "fault threshold (0 = derive from n)")
	verbose := flag.Bool("v", false, "log protocol traces")
	stats := flag.Bool("stats", false, "print the per-phase message/byte/crypto breakdown on shutdown")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /healthz, and /debug/pprof on this address")
	maxFrame := flag.Int("max-frame", 0, "max wire frame in bytes, must match across the deployment (0 = 4 MiB default)")
	verifyWorkers := flag.Int("verify-workers", runtime.NumCPU(), "signature-verification pool size; >0 also verifies inbound messages asynchronously off the event loop (0 = synchronous)")
	verifyCache := flag.Int("verify-cache", vpool.DefaultCache, "signature-memo and certificate-cache bound in entries (0 = disable the verification engine)")
	forensic := flag.Bool("forensics", false, "attach the accountability auditor to this node's inbound stream; serves /forensics on -metrics-addr and prints the verdict on shutdown")
	flag.Parse()

	peers, err := transport.ParsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}
	reg, cfg, err := harness.Resolve(*proto, len(peers), *f, nil)
	if err != nil {
		log.Fatal(err)
	}
	self := types.NodeID(*id)
	spec := harness.NodeSpec{
		ID: self, Reg: reg, Cfg: cfg, Peers: peers, Seed: *seed, MaxFrame: *maxFrame,
		VerifyWorkers: *verifyWorkers, VerifyCache: *verifyCache,
		Observers: []harness.Observer{commitLog{}},
		OpsAddr:   *metricsAddr,
	}
	if *verifyCache <= 0 {
		// -verify-cache 0 turns the engine off, pool included.
		spec.VerifyWorkers, spec.VerifyCache = 0, -1
	}
	if *stats || *metricsAddr != "" {
		spec.Tracer = harness.NodeTracer(reg, cfg, self)
	}
	if *verbose {
		spec.Logf = log.Printf
	}
	if *forensic {
		// This auditor taps only our own inbound stream; our own sends
		// never traverse it, so we must not score ourselves.
		spec.Auditor = harness.NewAuditor(reg, cfg, crypto.NewAuthority(*seed),
			forensics.Options{LocalNode: &self}, spec.Tracer)
	}
	node, err := harness.StartReplica(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bftnode %d (%s, n=%d, f=%d) listening on %s\n", *id, *proto, cfg.N, cfg.F, peers[self])
	if node.OpsAddr != nil {
		surface := "/metrics, /healthz, /debug/pprof"
		if spec.Auditor != nil {
			surface += ", /forensics"
		}
		fmt.Printf("bftnode %d ops endpoints on http://%s (%s)\n", *id, node.OpsAddr, surface)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	node.Stop()
	if *stats {
		spec.Tracer.WriteSummary(os.Stdout)
	}
	if spec.Auditor != nil {
		spec.Auditor.Report(node.Node.Now()).WriteTable(os.Stdout)
	}
}

// commitLog is the one observer bftnode adds to the shared assembly: it
// logs every commit and every safety violation.
type commitLog struct{}

func (commitLog) OnCommit(_ types.NodeID, v types.View, seq types.SeqNum, b *types.Batch, _ *types.CommitProof, _ time.Duration) {
	log.Printf("commit view=%d seq=%d (%d requests)", v, seq, b.Len())
}
func (commitLog) OnExecute(types.NodeID, types.SeqNum, *types.Batch, [][]byte, time.Duration) {}
func (commitLog) OnViewChange(types.NodeID, types.View, time.Duration)                        {}
func (commitLog) OnViolation(_ types.NodeID, err error)                                       { log.Printf("SAFETY VIOLATION: %v", err) }
func (commitLog) OnDone(types.NodeID, *types.Request, []byte, time.Duration)                  {}

// Command bftclient drives a bftnode cluster: it submits key-value
// operations through the protocol's client logic and reports end-to-end
// latency statistics.
//
// Usage (against the bftnode example cluster):
//
//	bftclient -protocol pbft -peers 0=:7000,1=:7001,2=:7002,3=:7003 \
//	          -listen :7100 -requests 100
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

func main() {
	proto := flag.String("protocol", "pbft", "registered protocol name")
	peersFlag := flag.String("peers", "", "comma-separated id=host:port for every replica")
	listen := flag.String("listen", ":7100", "address this client listens on for replies")
	seed := flag.Int64("seed", 1, "deployment key seed (must match the nodes)")
	requests := flag.Int("requests", 50, "number of requests to issue (closed loop)")
	f := flag.Int("f", 0, "fault threshold (0 = derive from n)")
	maxFrame := flag.Int("max-frame", 0, "max wire frame in bytes, must match the nodes (0 = 4 MiB default)")
	flag.Parse()

	peers, err := transport.ParsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}
	reg, cfg, err := harness.Resolve(*proto, len(peers), *f, nil)
	if err != nil {
		log.Fatal(err)
	}
	peers[types.ClientIDBase] = *listen
	done := make(chan struct{}, 1)
	client, err := harness.StartClient(harness.NodeSpec{
		ID: types.ClientIDBase, Reg: reg, Cfg: cfg, Peers: peers, Seed: *seed, MaxFrame: *maxFrame,
		VerifyCache: -1, // the client verifies replies inline and runs no engine
	}, func(*types.Request) { done <- struct{}{} })
	if err != nil {
		log.Fatal(err)
	}
	node := client.Node

	var latencies []time.Duration
	for i := 1; i <= *requests; i++ {
		op := kvstore.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i)))
		req := &types.Request{ClientSeq: uint64(i), Op: op, ArrivalHint: int64(node.Now())}
		start := time.Now()
		node.Do(func() { client.Client.Submit(req) })
		select {
		case <-done:
			latencies = append(latencies, time.Since(start))
		case <-time.After(10 * time.Second):
			log.Fatalf("request %d timed out after 10s", i)
		}
	}
	client.Stop()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	fmt.Printf("%d requests against %s (n=%d, f=%d)\n", len(latencies), *proto, cfg.N, cfg.F)
	fmt.Printf("latency mean=%v p50=%v p99=%v\n",
		(sum / time.Duration(len(latencies))).Round(time.Microsecond),
		latencies[len(latencies)/2].Round(time.Microsecond),
		latencies[(len(latencies)-1)*99/100].Round(time.Microsecond))
}

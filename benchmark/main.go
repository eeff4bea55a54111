// Command benchmark is the repository's benchmark: five named workloads
// that take a client request to its reply — on loopback TCP through
// harness.TCPCluster and on the deterministic simulator — plus a traced
// pass that splits the cost by layer, measured from outside the layers.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -workload tcp-sat32   one workload
//	go run ./benchmark -check                the whole set twice, compared
//
// The contract driver calls it once per run:
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed for keys, values and the simulator")
	seconds := flag.Int("seconds", runSeconds, "measurement budget per run, in seconds")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; default both")
	check := flag.Bool("check", false, "run the whole set twice and fail unless the two agree within the bounds")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *check); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, check bool) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	printHeader(seed, seconds)

	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if workload == "" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", workload)
	}

	if check {
		return runCheck(names, seed, seconds)
	}
	if workload != "" && trace >= 0 {
		// The contract call: one run, one result line.
		res, err := runWorkload(workload, seed, seconds, trace == 1)
		if err != nil {
			return err
		}
		report(workload, trace == 1, res)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: correctness check failed", workload)
		}
		return nil
	}

	doc, err := runSet(names, seed, seconds, trace)
	if err != nil {
		return err
	}
	if err := writeJSON("result.json", doc); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if !doc.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// document is the full output: workload → metric → value and unit.
type document struct {
	Host      hostInfo                          `json:"host"`
	Seed      int64                             `json:"seed"`
	Seconds   int                               `json:"seconds"`
	Correct   bool                              `json:"correct"`
	Workloads map[string]map[string]metricValue `json:"workloads"`
	Attempted map[string]int                    `json:"attempted"`
	Failed    map[string]int                    `json:"failed"`
}

// runSet runs the named workloads untraced and traced (trace < 0), or
// only the pass trace selects, and merges everything into one document.
func runSet(names []string, seed int64, seconds, trace int) (*document, error) {
	doc := &document{
		Host: host(), Seed: seed, Seconds: seconds, Correct: true,
		Workloads: make(map[string]map[string]metricValue),
		Attempted: make(map[string]int),
		Failed:    make(map[string]int),
	}
	for _, traced := range []bool{false, true} {
		if trace >= 0 && traced != (trace == 1) {
			continue
		}
		for _, name := range names {
			res, err := runWorkload(name, seed, seconds, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			report(name, traced, res)
			if doc.Workloads[name] == nil {
				doc.Workloads[name] = make(map[string]metricValue)
			}
			for k, v := range res.Metrics {
				doc.Workloads[name][k] = v
			}
			doc.Attempted[name] += res.Attempted
			doc.Failed[name] += res.Failed
			doc.Correct = doc.Correct && res.Correct
		}
	}
	return doc, nil
}

// hostInfo identifies where a result came from.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func host() hostInfo {
	rev := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: rev}
}

func printHeader(seed int64, seconds int) {
	h := host()
	fmt.Fprintf(os.Stderr, "benchmark: nproc=%d GOMAXPROCS=%d %s rev=%s seed=%d seconds=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitRev, seed, seconds)
}

// report prints one run's human-readable table on standard error.
func report(name string, traced bool, res *result) {
	kind := "end-to-end, tracing off"
	if traced {
		kind = "per-layer, traced pass"
	}
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(os.Stderr, "\n%s — %s — %s (attempted %d, failed %d", name, kind, status, res.Attempted, res.Failed)
	if !traced {
		fmt.Fprintf(os.Stderr, ", %d latency samples, %d beyond p99", res.samples, samplesBeyond(res.samples, 99))
	}
	fmt.Fprintln(os.Stderr, ")")
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	for _, k := range keys {
		v := res.Metrics[k]
		if traced && v.Value == 0 {
			continue // does not apply to this workload
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", k, v.Value, v.Unit)
	}
	tw.Flush()
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
}

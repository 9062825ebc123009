// Command perfbench is the repository's benchmark for the live
// gateway. It self-hosts a live.Daemon on loopback in its own process,
// drives one seeded workload against it with at most nproc client
// connections, checks every reply and the gateway's own accounting,
// and prints each metric by name with its unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-skew --seed 1 --seconds 36 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with the daemon's
// production tracing defaults. --trace 1 reports the per-layer metrics
// from a separate traced run and writes the benchmark's spans to
// .bench_build/spans/<workload>.jsonl. README.md lists the workloads,
// the metrics and which layer moves which end-to-end number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-skew|periodic-burst")
	seed := fs.Int64("seed", 1, "seed for arrivals and function choice")
	seconds := fs.Int("seconds", 36, "length of the timed window")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cold-skew|periodic-burst, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// One P unless GOMAXPROCS says otherwise: on a shared 2-vCPU host,
	// goroutine wake-ups across vCPUs made a warm request's CPU cost
	// swing by a third between runs, burying the gateway's own cost.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	h := fingerprint()
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)

	b := &bench{
		w:      w,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		conns:  runtime.NumCPU(),
		in:     w.makeInputs(),
	}
	var rep report
	var err error
	if *trace == 0 {
		rep, err = b.endToEnd()
	} else {
		rep, err = b.layered()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	rep.Correct = len(b.failures) == 0
	names := make([]string, 0, len(b.printed))
	for n := range b.printed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.printed[n]
		fmt.Fprintf(stdout, "%-28s %16.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

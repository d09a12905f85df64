// Command perfbench is the PINT collector's end-to-end benchmark. It
// generates a seeded workload, encodes it with the testbench plan pintd
// compiles, streams it over loopback TCP into a real pintd (2 shards,
// pprof on) with a pintgate in front for queries, checks the answers
// against an in-process oracle and the generated truth, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (run.sh builds pintd, pintgate and
// this command, then runs it):
//
//	bash perfbench/run.sh --workload ingest-elephants --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics, replays the captured
// input through each layer's public function, and writes its spans to
// the work directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; all traffic derives from it")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	bin := flag.String("bin", "", "directory holding the pintd and pintgate binaries")
	work := flag.String("work", "", "directory for daemon data, the replay store and span files")
	flag.Parse()

	replay := fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d",
		*workload, *seed, *seconds, *trace)
	s, err := lookupSpec(*workload)
	if err == nil && (*bin == "" || *work == "") {
		err = fmt.Errorf("-bin and -work are required (run.sh sets them)")
	}
	if err == nil && (*trace != 0 && *trace != 1 || *seconds < 1) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds at least 1")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(&env{bin: *bin, work: *work}, s, *seed, *seconds, *trace == 1)
	// Only a traced run leaves files (its spans) behind.
	os.Remove(*work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\nperfbench: replay with: %s\n", s.name, *seed, err, replay)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line, err := report(os.Stdout, s, res, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\nperfbench: replay with: %s\n", err, replay)
		os.Exit(1)
	}
	fmt.Println(line)
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d of %d operations failed\n", s.name, *seed, res.failed, res.attempted)
		for _, f := range res.failures {
			fmt.Fprintf(os.Stderr, "perfbench:   %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "perfbench: replay with: %s\n", replay)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints a readable table of every value the run produced and
// returns the JSON result line holding the defs metrics.
func report(w io.Writer, s spec, res *runResult, defs []metricDef) (string, error) {
	fmt.Fprintf(w, "perfbench: %s: %d trials after a warm-up, %d digests per trial\n", s.name, len(res.trials)-1, s.digestsPerTrial())
	fmt.Fprintf(w, "  %-36s %14.6f %s\n", "failed_ops_frac", float64(res.failed)/float64(res.attempted), "fraction")
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", s.name, d.name)
		}
		fmt.Fprintf(w, "  %-36s %14.6f %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if n, ok := res.values["query.samples"]; ok && defs[0] == endToEnd[0] {
		fmt.Fprintf(w, "  %-36s %14.0f %s\n", "query samples", n, "count")
	}
	out, err := json.Marshal(line)
	return string(out), err
}

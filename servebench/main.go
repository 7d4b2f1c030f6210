// Command servebench is the repository's serving benchmark. It runs the
// real join service and HTTP handler in process, drives them over loopback
// HTTP in a closed loop from one client connection, checks every response
// against a reference computed before timing starts, and prints its metrics
// with a final JSON line. See README.md for the workloads and metrics.
//
//	servebench --workload dense --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	// Three set-ups give setup_s as a median; the traced run needs one.
	o := options{scale: 1, setups: 3, reps: 5}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: dense, sparse or skewed-ingest")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "servebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.trace {
		o.setups = 1
	}
	o.traceOut = filepath.Join(".bench_build", "servebench", fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

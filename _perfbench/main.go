// Command perfbench is the repository's benchmark. It runs one workload
// against the program's public API, checks the outputs against
// computations made apart from the program, and prints one JSON line:
// whether every check passed, the operations attempted and failed, and
// the metrics — the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a separate traced run. See README.md for the workloads and
// what each metric means.
//
//	bash _perfbench/run.sh --workload loops-stream --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: loops-stream | sweep-lulesh | service-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&traced, "trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traced == 1

	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

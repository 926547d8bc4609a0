// Command bench is the repository's benchmark: four long workloads on
// two clocks (modeled PIM time and host wall-clock time), every layer
// measured from outside by timing calls into its exported functions.
//
// One process measures one workload:
//
//	bench --workload serve_dense --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. --trace 1 makes
// the traced run instead: the per-layer metrics, and the spans in
// bench/out/trace-<workload>.json.
//
// Without --workload the program runs the suite: every workload in its
// own child process, untraced then traced. -agree N runs the untraced
// suite as two interleaved sets of N seeds and checks the sets against
// each other and against the bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to measure in this process (empty: run the suite in child processes)")
		seed    = flag.Uint64("seed", 1, "generates every input: traces, update stream, client start offsets")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and spans")
		agree   = flag.Int("agree", 0, "run the untraced suite as two interleaved sets of N seeds and compare them")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *traced < 0 || *traced > 1 || *agree < 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Load sized for the machine: never more than four cores, so the
	// same run on a larger host still compares.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	measure := time.Duration(*seconds * float64(time.Second))

	var err error
	switch {
	case *name == "" && *agree > 0:
		err = runAgree(*agree, *seed, *seconds)
	case *name == "":
		err = runSuite(*seed, *seconds)
	default:
		err = runOne(*name, *seed, measure, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result.
func runOne(name string, seed uint64, measure time.Duration, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	r, err := newRun(w, seed, measure, os.Stdout)
	if err != nil {
		return err
	}
	var res *result
	if traced {
		res, err = r.perLayer()
	} else {
		res, err = r.endToEnd()
	}
	if err != nil {
		return err
	}
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Printf("  %-40s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

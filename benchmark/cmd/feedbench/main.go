//go:build linux

// Command feedbench is Bistro's end-to-end and per-layer performance
// ledger. One invocation is one run of one workload:
//
//	feedbench --workload small_push --seed 1 --seconds 48 --trace 0
//
// boots the server in-process on the real filesystem, drives it over
// loopback TCP through a paced (open-loop) and a saturated
// (closed-loop) phase, checks every output with the oracle and prints,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See
// benchmark/README.md.
//
//	feedbench -compare <setA> <setB>
//
// judges two directories of result files against the bounds in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"bistro/benchmark"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: small_push or large_push, or one of the extras outside BENCHMARK.json, http_pull or plan_ingest")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 48, "measured time in seconds (1/3 paced, 2/3 saturated)")
		trace    = flag.Int("trace", 0, "1 = traced run: taps on, per-layer metrics reported, trace.json written")
		dir      = flag.String("dir", ".feedbench-work", "work directory (must be disk-backed)")
		out      = flag.String("out", "", "also write the full result (environment, sample counts) to this file")
		traceOut = flag.String("trace-out", "", "where the traced run writes its spans (default <dir>/trace-<workload>-<seed>.json)")
		pprofDir = flag.String("pprof", "", "write CPU and allocation profiles of the saturated phase to this directory")
		compare  = flag.Bool("compare", false, "compare two result-set directories: feedbench -compare <setA> <setB>")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark spec holding the regression bounds (for -compare)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: feedbench -compare <setA> <setB>")
			return 2
		}
		s, err := benchmark.LoadSpec(*spec)
		if err != nil {
			return fail(err)
		}
		rows, err := benchmark.Compare(s, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if benchmark.PrintRows(os.Stdout, rows) {
			return 1
		}
		return 0
	}

	res, err := benchmark.Run(benchmark.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace != 0,
		Dir:      *dir,
		TraceOut: *traceOut,
		PprofDir: *pprofDir,
		Log:      os.Stderr,
	})
	if err != nil {
		return fail(err)
	}
	benchmark.PrintResult(os.Stderr, res)
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "feedbench:", err)
	return 1
}

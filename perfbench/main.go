// Command perfbench is EMSim's campaign-level benchmark. One invocation
// runs one named workload for a fixed number of seconds and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// span recording off. With -trace 1 the run measures the workload once
// untraced and once traced, replays every layer on the workload's own
// inputs, and reports the per-layer metrics instead; the Chrome trace
// of the traced run is written under .bench_build/artifacts/.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload aes-campaign|serve-mixed|train -seed N -seconds S -trace 0|1
//
// README.md in this directory maps every metric to its layer and
// workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the command line, runs the workload and prints the result.
// It returns the process exit code: 0 whenever a result line was
// printed (correct or not), 2 on a usage error, 1 when the benchmark
// could not produce a result at all.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: aes-campaign, serve-mixed or train")
	seed := fs.Int64("seed", 1, "input-generation seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	artifacts := fs.String("artifacts", filepath.Join(".bench_build", "artifacts"), "directory for the traced run's Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want -workload W -seed N -seconds S (> 0) -trace 0|1")
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		workload:  *name,
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		artifacts: *artifacts,
		size:      fullSize,
	}
	b, err := runBench(ctx, cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, msg := range b.failures {
		fmt.Fprintf(stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
	if err := printResult(stdout, b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printResult writes the metadata line and then the result object as
// the last line of out.
func printResult(out io.Writer, b *bench) error {
	meta, err := json.Marshal(b.meta)
	if err != nil {
		return fmt.Errorf("encode metadata: %w", err)
	}
	res, err := json.Marshal(b.result())
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "meta %s\n%s\n", meta, res)
	return err
}

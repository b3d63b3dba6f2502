// Command mdbench runs the repository's benchmark; bench/README.md
// describes the workloads and metrics, BENCHMARK.json declares them.
// Run it from the repository root through bench/run.sh, which builds
// it and mdserve first:
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]
//
// With -workload it runs that workload in this process, prints the run
// stamp, every metric with its unit, bound and sample statistics, and
// a correctness line, and prints last one JSON line with the metrics
// BENCHMARK.json names: the end-to-end ones, or with -trace 1 the
// per-layer ones (the spans go to -spans). Without -workload it runs
// every workload, each in a fresh child process of itself, so peak
// memory and garbage-collector state stay per workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mdspec/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run in this process (default: all, one child process each)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 0, "measured window per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, printing per-layer metrics and writing spans")
	spans := flag.String("spans", "", "with -trace 1, the spans file (default <workdir>/spans-<workload>.json)")
	out := flag.String("out", "", "write the full result as JSON to this file")
	mdserve := flag.String("mdserve", ".bench_build/mdserve", "mdserve binary for the serve workloads and the fleet probe")
	workdir := flag.String("workdir", ".bench_build", "work directory for builds, recordings, journals and spans")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	spec, err := bench.LoadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workload == "" {
		if err := runAll(ctx, *workdir, *out); err != nil {
			fatal(err)
		}
		return
	}
	// Every run ends within three minutes, even a wedged one.
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second+time.Duration(2**seconds*float64(time.Second)))
	defer cancel()
	res, err := bench.Run(ctx, bench.Config{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Scale: bench.FullScale, WorkDir: *workdir, Mdserve: *mdserve, Log: os.Stderr,
	})
	if err != nil {
		fatal(err)
	}
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(*workdir, "spans-"+*workload+".json")
		}
		if err := bench.WriteSpans(path, res.Spans); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mdbench: %d spans written to %s\n", len(res.Spans), path)
	}
	line, err := res.Line(spec, *trace == 1)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
	}
	res.Report(os.Stdout, spec)
	fmt.Printf("%s\n", line)
}

// runAll runs every workload in a child process with this process's
// flags, streaming each child's report, and collects their results.
func runAll(ctx context.Context, workdir, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "out" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	var results []json.RawMessage
	var failed []error
	for _, w := range bench.Workloads() {
		path := filepath.Join(dir, w+".json")
		cmd := exec.CommandContext(ctx, exe, append(args, "-workload="+w, "-out="+path)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", w, err))
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		results = append(results, data)
	}
	if out != "" {
		if err := writeJSON(out, results); err != nil {
			return err
		}
	}
	return errors.Join(failed...)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdbench:", err)
	os.Exit(1)
}

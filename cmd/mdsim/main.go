// Command mdsim runs a single simulation: one benchmark (or named
// kernel) under one configuration, printing the full statistics.
//
// Usage:
//
//	mdsim [-n insts] [-w bench] [-policy NO|NAV|SEL|STORE|SYNC|ORACLE|SSET]
//	      [-as] [-aslat N] [-split N] [-window N] [-sample T:F] [-par N]
//	      [-json] [-out file] [-cpuprofile file] [-memprofile file]
//	      [-trace file]
//
// With -sample, the run is the interval-parallel sampled engine that
// mdexp -sampled and mdserve run, over an in-memory recording and, with
// more than one worker, a warm-state checkpoint set; -par is its worker
// count (default 0 = one per CPU core). The result is bit-identical for
// every -par value and equals mdexp's for the same cell.
//
// With -json, a single provenance-carrying run record (config name and
// hash, instruction budget, wall time, runner version, raw counters) is
// written to -out or stdout instead of the human-readable report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mdspec/internal/atomicio"
	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/experiments"
	"mdspec/internal/parsim"
	"mdspec/internal/profiling"
	"mdspec/internal/prog"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

func main() {
	n := flag.Int64("n", 200_000, "committed instructions to simulate")
	bench := flag.String("w", "126.gcc", "benchmark name (Table 1) or kernel: recurrence, stream, chase, taskboundary")
	profilePath := flag.String("profile", "", "JSON workload profile file (overrides -w)")
	policy := flag.String("policy", "NO", "memory dependence speculation policy")
	useAS := flag.Bool("as", false, "use an address-based load/store scheduler")
	asLat := flag.Int("aslat", 0, "address scheduler latency in cycles (with -as)")
	split := flag.Int("split", 0, "split the window into N units (0 = continuous)")
	window := flag.Int("window", 128, "instruction window size (64 selects the paper's small machine)")
	selinv := flag.Bool("selinv", false, "recover with selective invalidation instead of squashing")
	wrongPath := flag.Bool("wrongpath", false, "model wrong-path instruction fetch during mispredictions")
	sample := flag.String("sample", "", "sampled simulation as T:F instructions (e.g. 50000:100000)")
	par := flag.Int("par", 0, "workers for the interval-parallel sampled run (with -sample; 0 = one per core)")
	jsonOut := flag.Bool("json", false, "write a JSON run record instead of the text report")
	outPath := flag.String("out", "", "destination file for -json (default stdout)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf, *tracePath)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	pol, err := config.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	var cfg config.Machine
	if *window == 64 {
		cfg = config.Small64()
	} else {
		cfg = config.Default128()
		cfg.Window = *window
	}
	cfg = cfg.WithPolicy(pol)
	if *useAS {
		cfg = cfg.WithAddressScheduler(*asLat)
	}
	if *split > 0 {
		cfg = cfg.WithSplitWindow(*split)
	}
	if *selinv {
		cfg = cfg.WithRecovery(config.RecoverySelective)
	}
	cfg.WrongPathFetch = *wrongPath

	var p *prog.Program
	if *profilePath != "" {
		pr, err := workload.LoadProfile(*profilePath)
		if err != nil {
			fatal(err)
		}
		if p, err = workload.Generate(pr); err != nil {
			fatal(err)
		}
		*bench = pr.Name
	} else {
		var err error
		if p, err = buildWorkload(*bench); err != nil {
			fatal(err)
		}
	}
	var tw, fw int64
	if *sample != "" {
		if tw, fw, err = experiments.ParseSampling(*sample); err != nil {
			fatal(fmt.Errorf("-sample: %w", err))
		}
	}
	var r *stats.Run
	start := time.Now()
	if *sample != "" {
		// Segments over a recording captured to the run's horizon, each
		// restored from the checkpoint at its warm-up start, as the
		// runner does without -recdir. One worker walks the segments in
		// order behind one warmer instead, and needs no checkpoints.
		popt := parsim.Options{TotalTiming: *n, TimingInsts: tw, FunctionalInsts: fw, Workers: *par}
		rec := emu.NewRecording(emu.New(p))
		rec.Record(popt.Horizon())
		if *par != 1 {
			if popt.Checkpoints, err = ckpt.Build(cfg, rec, rec.Fingerprint(), popt.CheckpointSeqs()); err != nil {
				fatal(err)
			}
		}
		if r, err = parsim.Run(context.Background(), cfg, rec, popt); err != nil {
			fatal(err)
		}
	} else {
		pl, err := core.New(cfg, emu.NewTrace(emu.New(p)))
		if err != nil {
			fatal(err)
		}
		if r, err = pl.Run(*n); err != nil {
			fatal(err)
		}
	}
	wall := time.Since(start)
	r.Workload = *bench

	if *jsonOut {
		if err := writeRecord(experiments.NewRunRecord(*bench, cfg, *n, wall, r), *outPath); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println(r)
	fmt.Printf("  committed: %d insts (%d loads, %d stores) in %d cycles -> IPC %.3f\n",
		r.Committed, r.CommittedLoads, r.CommittedStores, r.Cycles, r.IPC())
	fmt.Printf("  misspeculations: %d (%.4f%% of loads), squashed insts: %d\n",
		r.Misspeculations, 100*r.MisspecRate(), r.SquashedInsts)
	fmt.Printf("  false deps: %.1f%% of loads, %.1f cycles mean resolution\n",
		100*r.FalseDepRate(), r.FalseDepLatency())
	fmt.Printf("  branches: %d (%.2f%% mispredicted)\n", r.Branches, 100*r.BranchMissRate())
	fmt.Printf("  D-cache: %d/%d misses (%.1f%%)  I-cache: %d/%d (%.1f%%)\n",
		r.DCacheMisses, r.DCacheAccesses, 100*missRate(r.DCacheMisses, r.DCacheAccesses),
		r.ICacheMisses, r.ICacheAccesses, 100*missRate(r.ICacheMisses, r.ICacheAccesses))
	fmt.Printf("  store-buffer forwards: %d, policy-delayed loads: %d\n", r.Forwards, r.SyncWaits)
	se, sm, sx := r.StallBreakdown()
	fmt.Printf("  zero-commit cycles: %.1f%% front-end, %.1f%% memory, %.1f%% execute\n",
		100*se, 100*sm, 100*sx)
	if r.Skipped > 0 {
		fmt.Printf("  sampling: %d instructions fast-forwarded functionally\n", r.Skipped)
	}
}

func buildWorkload(name string) (*prog.Program, error) {
	switch name {
	case "recurrence":
		return workload.KernelRecurrence(0), nil
	case "stream":
		return workload.KernelStream(0), nil
	case "chase":
		return workload.KernelPointerChase(1024, 0), nil
	case "taskboundary":
		return workload.KernelTaskBoundary(32, 1<<30), nil
	}
	return workload.Build(name)
}

// writeRecord writes one provenance-carrying run record as indented
// JSON to path (replaced atomically), or stdout when path is empty.
func writeRecord(rec experiments.RunRecord, path string) error {
	emit := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	if path == "" {
		return emit(os.Stdout)
	}
	return atomicio.WriteFile(path, emit)
}

func missRate(m, a uint64) float64 {
	if a == 0 {
		return 0
	}
	return float64(m) / float64(a)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdsim:", err)
	os.Exit(1)
}

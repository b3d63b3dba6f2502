// Command mdexp reproduces the paper's tables and figures.
//
// Usage:
//
//	mdexp [-n insts] [-bench list] [-par N] [-sampled T:F] [-json|-csv]
//	      [-out file] [-resume dir] [-server addr] [-retries N] [-quiet]
//	      [-cpuprofile file] [-memprofile file] [-trace file]
//	      <experiment>...
//
// Flags and experiment names may be interleaved, so
// "mdexp -json -out results.json all -n 20000 -bench 126.gcc" works.
// The experiment list is defined by the registry below (run with no
// arguments to see it; it always matches what this binary supports):
// fig1 table3 fig2 fig3 fig4 fig5 fig6 table4 fig7 summary abl-mdpt
// abl-flush abl-window abl-storesets abl-recovery abl-bpred, or "all".
//
// A live progress line (jobs finished/started, cache hits, elapsed
// time) is written to stderr while sweeps run; -quiet suppresses it.
// SIGINT/SIGTERM cancel the sweep cleanly: in-flight simulations
// finish, queued ones are abandoned, and any artifact requested with
// -out is still written with the completed runs.
//
// With -json, a machine-readable Results envelope (typed rows per
// experiment plus one provenance-carrying record per simulation) is
// written to -out, or to stdout when -out is empty (suppressing the
// text tables). With -csv, the per-run records are written as flat CSV
// instead. See README.md for the artifact schema.
//
// With -resume <dir>, every finished (benchmark, config) cell is
// journaled to <dir>/runs.0.journal as it completes, and a restarted
// sweep pointed at the same directory replays that journal (and,
// read-only, any runs.*.journal an older build left there) instead of
// re-simulating — resume after a crash or SIGKILL is bit-identical to
// an uninterrupted run. The journal stays locked while the sweep runs,
// so a second writer on the directory (another mdexp -resume, or
// mdserve -journal) is refused. Transient cell
// failures (worker panics) are retried up to -retries attempts with
// capped exponential backoff; a watchdog deadlock report is
// deterministic and not retried. A sampled cell that keeps failing or
// deadlocks gets one last attempt that runs its segments one after
// another without checkpoints (same statistics), and a cell
// that cannot be completed at all is listed in the artifact's
// partial-results envelope instead of aborting the sweep. See README.md
// ("Robustness & operations").
//
// With -server <addr>, simulations are requested from a running
// mdserve daemon instead of executing locally: the daemon's
// content-addressed cache dedups cells across every connected client,
// and by the determinism contract the results are bit-identical to a
// local run. The daemon's provenance tuple (-n, -sampled) must match
// this invocation's; mdexp verifies that up front and fails fast with
// a descriptive message otherwise. -par then bounds concurrent
// requests, and -resume is refused — the daemon owns persistence.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mdspec/internal/atomicio"
	"mdspec/internal/experiments"
	"mdspec/internal/profiling"
	"mdspec/internal/retry"
	"mdspec/internal/server"
	"mdspec/internal/workload"
)

// experiment binds a CLI name to a generator and its renderer; the
// usage text and the "all" order are derived from this registry, so the
// supported list cannot drift from the implementation.
type experiment struct {
	name string
	run  func(context.Context, *experiments.Runner) (rows any, text string, err error)
}

// exp adapts a typed (generator, renderer) pair to the registry shape.
func exp[T any](name string, gen func(context.Context, *experiments.Runner) ([]T, error), render func([]T) string) experiment {
	return experiment{name, func(ctx context.Context, r *experiments.Runner) (any, string, error) {
		rows, err := gen(ctx, r)
		if err != nil {
			return nil, "", err
		}
		return rows, render(rows), nil
	}}
}

var registry = []experiment{
	exp("fig1", experiments.Figure1, experiments.RenderFigure1),
	exp("table3", experiments.Table3, experiments.RenderTable3),
	exp("fig2", experiments.Figure2, experiments.RenderFigure2),
	exp("fig3", experiments.Figure3, experiments.RenderFigure3),
	exp("fig4", experiments.Figure4, experiments.RenderFigure4),
	exp("fig5", experiments.Figure5, experiments.RenderFigure5),
	exp("fig6", experiments.Figure6, experiments.RenderFigure6),
	exp("table4", experiments.Figure6, experiments.RenderTable4),
	exp("fig7", experiments.Figure7, experiments.RenderFigure7),
	exp("summary", experiments.Summary, experiments.RenderSummary),
	exp("abl-mdpt", experiments.AblationMDPTSize, experiments.RenderMDPTSize),
	exp("abl-flush", experiments.AblationFlush, experiments.RenderFlush),
	exp("abl-window", experiments.AblationWindow, experiments.RenderWindow),
	exp("abl-storesets", experiments.AblationStoreSets, experiments.RenderStoreSets),
	exp("abl-recovery", experiments.AblationRecovery, experiments.RenderRecovery),
	exp("abl-bpred", experiments.AblationBPred, experiments.RenderBPred),
}

func names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func main() {
	insts := flag.Int64("n", 150_000, "committed instructions per (benchmark, config) run")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all 18)")
	par := flag.Int("par", 0, "max concurrent simulations (default: GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "write a JSON results artifact (to -out, or stdout)")
	csvOut := flag.Bool("csv", false, "write per-run records as CSV (to -out, or stdout)")
	outPath := flag.String("out", "", "artifact destination file (with -json/-csv; default stdout)")
	quiet := flag.Bool("quiet", false, "suppress the live stderr progress line")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	sampled := flag.String("sampled", "", "sampled simulation with windows T:F instructions (e.g. 5000:10000); -n becomes the total timing budget")
	resumeDir := flag.String("resume", "", "checkpoint directory: journal finished cells there and replay them on restart")
	recDir := flag.String("recdir", "", "recording and warm-state cache directory: reuse per-benchmark columnar recordings and warmed checkpoint sets across processes (shareable with mdserve)")
	serverAddr := flag.String("server", "", "mdserve daemon address: request simulations from it instead of running locally")
	retries := flag.Int("retries", 0, "attempts per cell before a transient failure abandons it (default 3)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mdexp [flags] <experiment>...\nexperiments: %s all\n",
			strings.Join(names(), " "))
		flag.PrintDefaults()
	}

	// The standard flag package stops at the first positional argument;
	// re-parse the remainder so flags and experiment names interleave
	// ("mdexp all -n 20000 -bench 126.gcc").
	var expNames []string
	args := os.Args[1:]
	for len(args) > 0 {
		if err := flag.CommandLine.Parse(args); err != nil {
			os.Exit(2)
		}
		args = flag.CommandLine.Args()
		if len(args) > 0 {
			expNames = append(expNames, args[0])
			args = args[1:]
		}
	}
	if len(expNames) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf, *tracePath)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()
	if *jsonOut && *csvOut {
		fatal(errors.New("-json and -csv are mutually exclusive"))
	}
	if len(expNames) == 1 && expNames[0] == "all" {
		expNames = names()
	}
	for _, name := range expNames {
		if _, ok := lookup(name); !ok {
			fatal(fmt.Errorf("unknown experiment %q (have: %s all)", name, strings.Join(names(), " ")))
		}
	}

	if *outPath != "" {
		// Fail before hours of simulation, not after: prove the artifact
		// destination is writable while the sweep is still cheap to abort.
		if err := atomicio.ProbeDir(filepath.Dir(*outPath)); err != nil {
			fatal(fmt.Errorf("-out %s: %w", *outPath, err))
		}
	}

	opt := experiments.Options{Insts: *insts, Parallel: *par, Retry: retry.Policy{MaxAttempts: *retries}, RecordingDir: *recDir}
	if *sampled != "" {
		var tw, fw int64
		if _, err := fmt.Sscanf(*sampled, "%d:%d", &tw, &fw); err != nil {
			fatal(fmt.Errorf("bad -sampled %q (want T:F): %v", *sampled, err))
		}
		opt.Sampled = true
		opt.TimingWindow, opt.FunctionalWindow = tw, fw
	}
	if *benchList != "" {
		benches, err := workload.ParseNames(*benchList)
		if err != nil {
			fatal(err)
		}
		opt.Benchmarks = benches
	}
	var progress *experiments.Progress
	if !*quiet {
		progress = experiments.NewProgress(os.Stderr)
		opt.Hooks = progress.Hooks()
	}
	if *serverAddr != "" && *resumeDir != "" {
		fatal(errors.New("-server and -resume are mutually exclusive: the daemon owns the checkpoint journal"))
	}
	var replayed []experiments.JournalCell
	if *resumeDir != "" {
		j, recs, err := experiments.OpenJournal(*resumeDir, opt)
		if err != nil {
			fatal(err)
		}
		// The journal's durability comes from the per-entry fsyncs, but a
		// failing close can still mean lost buffered state on some
		// filesystems — surface it instead of dropping it.
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "mdexp: closing journal: %v\n", err)
			}
		}()
		opt.Journal = j
		replayed = recs
	}
	runner := experiments.NewRunner(opt)
	if n := runner.Prime(replayed); n > 0 {
		fmt.Fprintf(os.Stderr, "mdexp: resumed %d finished cell(s) from %s\n", n, *resumeDir)
	}
	results := experiments.NewResults("mdexp", runner.Options())

	// Artifacts aimed at stdout own it; keep the human tables off it.
	artifactToStdout := (*jsonOut || *csvOut) && *outPath == ""
	printTables := !artifactToStdout

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serverAddr != "" {
		// Mount the daemon as this runner's backend: every cell request
		// goes over HTTP, everything else — memoization, hooks, artifact
		// records — is unchanged. Check the provenance tuple first so a
		// mismatched sweep fails here, not on its first cell.
		cl := server.NewClient(*serverAddr, opt)
		if err := cl.Check(ctx); err != nil {
			fatal(err)
		}
		runner.UseBackend(cl.Run)
		fmt.Fprintf(os.Stderr, "mdexp: simulating via mdserve at %s\n", *serverAddr)
	}

	var runErrs []error
	canceled := false
	for _, name := range expNames {
		e, _ := lookup(name)
		start := time.Now()
		rows, text, err := e.run(ctx, runner)
		elapsed := time.Since(start)
		if progress != nil {
			progress.Done()
		}
		if err != nil {
			results.AddFailedExperiment(name, rows, elapsed, err)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				canceled = true
				break
			}
			// A failing experiment no longer takes the rest of the sweep
			// down: record it in the envelope and keep going.
			runErrs = append(runErrs, fmt.Errorf("%s: %w", name, err))
			fmt.Fprintf(os.Stderr, "mdexp: %s failed (continuing): %v\n", name, err)
			continue
		}
		results.AddExperiment(name, rows, elapsed)
		if printTables {
			fmt.Println(text)
			fmt.Printf("[%s took %.1fs]\n\n", name, elapsed.Seconds())
		}
	}
	if progress != nil {
		progress.Done()
	}

	if *jsonOut || *csvOut {
		results.Attach(runner)
		if err := writeArtifact(results, *jsonOut, *outPath); err != nil {
			fatal(err)
		}
		if *outPath != "" {
			kind := "results"
			if results.Partial {
				kind = "PARTIAL results"
			}
			fmt.Fprintf(os.Stderr, "mdexp: wrote %s (%s)\n", *outPath, kind)
		}
	}
	if err := runner.JournalErr(); err != nil {
		fmt.Fprintf(os.Stderr, "mdexp: warning: checkpoint journal degraded (resume may re-run cells): %v\n", err)
	}
	if ab := runner.Abandoned(); len(ab) > 0 {
		fmt.Fprintf(os.Stderr, "mdexp: warning: %d cell(s) abandoned after retries:\n", len(ab))
		for _, c := range ab {
			fmt.Fprintf(os.Stderr, "  %s under %s (%d attempts)\n", c.Bench, c.Config, c.Attempts)
		}
	}
	if canceled {
		fmt.Fprintln(os.Stderr, "mdexp: interrupted")
		os.Exit(130)
	}
	if len(runErrs) > 0 {
		fatal(errors.Join(runErrs...))
	}
}

// writeArtifact writes the envelope as JSON (asJSON) or CSV to path, or
// to stdout when path is empty. File destinations are replaced
// atomically: a crash mid-write can never leave a truncated artifact
// where a previous (or partial) one was.
func writeArtifact(rs *experiments.Results, asJSON bool, path string) error {
	emit := func(w io.Writer) error {
		if asJSON {
			return rs.WriteJSON(w)
		}
		return rs.WriteCSV(w)
	}
	if path == "" {
		return emit(os.Stdout)
	}
	return atomicio.WriteFile(path, emit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdexp:", err)
	os.Exit(1)
}

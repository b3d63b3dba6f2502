// Command mdserve runs the simulator as a long-lived service.
//
// Usage:
//
//	mdserve [-addr host:port] [-n insts] [-sampled T:F] [-par N]
//	        [-workers N] [-queue N] [-journal dir]
//	        [-recdir dir] [-retries N] [-cell-budget d]
//	        [-drain d] [-drain-timeout d] [-quiet]
//
// The daemon accepts (benchmark, configuration) cell requests as JSON
// (POST /v1/runs) and whole sweeps as a cross product (POST
// /v1/sweeps, streamed back as NDJSON or SSE), and answers from a
// content-addressed cache keyed on the provenance tuple — config
// hash, benchmark, instruction budget, sampling windows, runner
// version. Identical cells requested by any number of concurrent
// clients cost one simulation; a bounded work queue refuses overload
// with 503 instead of queueing without limit. Only cells that need a
// new simulation take a queue slot: cached, journal-primed and
// in-flight cells are answered without one.
//
// With -workers N the daemon becomes a fleet supervisor: it forks N
// copies of itself in -worker mode (each a full server on a private
// unix socket, sharing -recdir), dispatches cells to them from one
// shared queue, restarts crashed or wedged workers under capped
// backoff, and degrades to in-process execution if the whole fleet is
// down (reported as degraded in /v1/healthz; per-worker liveness,
// failover, and restart counters in /v1/metrics). Workers keep no
// journal: the supervisor journals every cell it answers, whichever
// process simulated it, so a respawned worker is ready as soon as it
// listens.
//
// With -journal, every finished cell is checkpointed to
// <dir>/runs.0.journal before it is answered, and a restarted daemon
// re-primes its cache from that journal (and, read-only, from any
// runs.*.journal an older build left in the directory, such as the
// runs.w<N>.journal of older fleet workers), so previously-computed
// cells are served without re-simulating across restarts. A cell a
// worker finished but the supervisor did not live to journal was never
// answered, and is simulated again after the restart. A second writer
// on the directory, such as an mdexp -resume, is refused. The restart
// logs "re-primed N finished cell(s) from D in T (F file(s), K
// frame(s))": N cells indexed, in T, from the K run frames of F files;
// each cell's record is decoded on its first request. GET /v1/metrics
// exposes the runner's lifetime counters, per-endpoint request/latency
// accounting, and queue occupancy; GET /v1/options the provenance
// tuple (clients check it before sweeping — see mdexp -server).
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener closes,
// in-flight requests drain (bounded by -drain), queued cells finish
// and reach the journal, and only then does the process exit.
// -drain-timeout additionally bounds the queued-cell drain: a wedged
// in-flight cell cannot stall shutdown forever — on expiry the daemon
// reports a snapshot of the stuck cells and exits 1, with everything
// that did finish already journaled.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdspec/internal/experiments"
	"mdspec/internal/fleet"
	"mdspec/internal/retry"
	"mdspec/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	insts := flag.Int64("n", 150_000, "committed instructions per (benchmark, config) run")
	sampled := flag.String("sampled", "", "sampled simulation with windows T:F instructions; -n becomes the total timing budget")
	par := flag.Int("par", 0, "max concurrent simulations (default: GOMAXPROCS)")
	procs := flag.Int("workers", 0, "worker processes to fork and supervise (0 = single-process)")
	queue := flag.Int("queue", server.DefaultQueueDepth, "bounded work-queue depth; beyond it, cells that need a simulation get 503")
	journalDir := flag.String("journal", "", "checkpoint directory: journal finished cells and re-prime the cache from it on restart")
	recDir := flag.String("recdir", "", "recording and warm-state cache directory: mmap per-benchmark columnar recordings and share warmed checkpoint sets across server processes")
	retries := flag.Int("retries", 0, "attempts per cell before a transient failure abandons it (default 3)")
	cellBudget := flag.Duration("cell-budget", 0, "with -workers, per-cell wall-clock budget on a worker; a worker exceeding it is presumed wedged and recycled (0 = unlimited)")
	drain := flag.Duration("drain", time.Minute, "maximum time to wait for in-flight requests on shutdown")
	drainTimeout := flag.Duration("drain-timeout", 0, "maximum time to wait for queued cells on shutdown; on expiry, report stuck cells and exit 1 (0 = wait forever)")
	quiet := flag.Bool("quiet", false, "suppress per-request lifecycle logging")
	workerMode := flag.Bool("worker", false, "run as a supervised fleet worker (internal; forked by -workers)")
	socket := flag.String("socket", "", "with -worker, the unix control socket to listen on")
	workerID := flag.String("worker-id", "", "with -worker, the worker's name in its log lines")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mdserve: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *workerMode && (*socket == "" || *workerID == "") {
		fatal(fmt.Errorf("-worker requires -socket and -worker-id"))
	}
	if *workerMode && *journalDir != "" {
		fatal(fmt.Errorf("-worker takes no -journal: the supervisor journals every cell"))
	}

	prefix := "mdserve: "
	if *workerMode {
		prefix = fmt.Sprintf("mdserve[%s]: ", *workerID)
	}
	logger := log.New(os.Stderr, prefix, log.LstdFlags)

	opt := experiments.Options{Insts: *insts, Parallel: *par, Retry: retry.Policy{MaxAttempts: *retries}, RecordingDir: *recDir}
	if *sampled != "" {
		tw, fw, err := experiments.ParseSampling(*sampled)
		if err != nil {
			fatal(fmt.Errorf("-sampled: %w", err))
		}
		opt.Sampled = true
		opt.TimingWindow, opt.FunctionalWindow = tw, fw
	}

	// The journal persists the cache across restarts. It must be opened
	// with the final options: its meta header is the provenance
	// fingerprint, so a dir journaled under different options is
	// detected and refused rather than silently serving foreign cells.
	// The daemon locks the directory's journal and re-primes from it and
	// from any journal file an older build left there.
	var journal *experiments.Journal
	var replayed []experiments.JournalCell
	if *journalDir != "" {
		var err error
		journal, replayed, err = experiments.OpenJournal(*journalDir, opt)
		if err != nil {
			fatal(err)
		}
		opt.Journal = journal
	}

	cfg := server.Config{Options: opt, QueueDepth: *queue}
	if !*quiet {
		cfg.Log = logger
	}
	srv := server.New(cfg)
	if n := srv.Runner().Prime(replayed); n > 0 {
		st := journal.ReplayStats()
		logger.Printf("re-primed %d finished cell(s) from %s in %v (%d file(s), %d frame(s))",
			n, *journalDir, st.Elapsed.Round(10*time.Microsecond), st.Files, st.Frames)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Fleet mode: fork the workers, mount the pool as the runner's
	// backend (cache, singleflight, and journaling stay in front of
	// it), and expose the pool's health through the API.
	var pool *fleet.Pool
	if *procs > 0 && !*workerMode {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		sockDir, err := os.MkdirTemp("", "mdserve-fleet-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(sockDir)
		pool, err = fleet.Start(ctx, fleet.Config{
			Procs:      *procs,
			Exec:       exe,
			Args:       workerArgs(flag.CommandLine, *drain),
			Dir:        sockDir,
			Meta:       fingerprintPtr(opt),
			CellBudget: *cellBudget,
			Fallback:   srv.Runner().LocalSimulate,
			Log:        logger,
		})
		if err != nil {
			fatal(err)
		}
		srv.Runner().UseBackend(pool.Simulate)
		srv.AttachFleet(pool)
		logger.Printf("supervising %d worker process(es) in %s", *procs, sockDir)
	}

	var ln net.Listener
	var err error
	if *workerMode {
		ln, err = net.Listen("unix", *socket)
	} else {
		ln, err = net.Listen("tcp", *addr)
	}
	if err != nil {
		fatal(err)
	}
	logger.Printf("serving %s on %s (sched=%d queue=%d)",
		opt.Fingerprint().Runner, ln.Addr(), srv.Workers(), *queue)

	httpSrv := &http.Server{Handler: srv, ErrorLog: logger}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Printf("signal received; draining (limit %s)", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(shCtx)
	}()

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	// Shutdown ordering matters: first the HTTP server stops accepting
	// and drains handlers (the queue's only submitters), then the
	// scheduler finishes queued cells — journaling each — and only then
	// does the journal close with a complete tail. -drain-timeout
	// bounds the scheduler stage: a wedged cell cannot hold the
	// process hostage, and everything that finished is already on disk.
	if err := <-shutdownErr; err != nil {
		logger.Printf("drain limit exceeded, abandoning open connections: %v", err)
	}
	stuck := srv.CloseTimeout(*drainTimeout)
	if pool != nil {
		if err := pool.Close(); err != nil {
			logger.Printf("closing fleet: %v", err)
		}
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			logger.Printf("closing journal: %v", err)
		}
	}
	c := srv.Runner().Counters()
	if len(stuck) > 0 {
		snapshot, _ := json.Marshal(stuck)
		logger.Printf("drain timeout %s expired with %d cell(s) stuck (finished work is journaled): %s",
			*drainTimeout, len(stuck), snapshot)
		os.Exit(1)
	}
	logger.Printf("shut down cleanly: %d simulated, %d cache/dedup hits, %d replayed",
		c.JobsFinished, c.CacheHits, c.Replayed)
}

// workerArgs rebuilds this daemon's relevant flags as a worker argv:
// children inherit the provenance-defining options verbatim (same
// fingerprint, same recording dir) plus their identity flags. The
// supervisor-only flags (-workers, -addr, -journal, -drain-timeout)
// are not forwarded; each worker sizes its scheduler pool from -par.
func workerArgs(fs *flag.FlagSet, drain time.Duration) func(slot int, socket string) []string {
	inherit := []string{"n", "sampled", "par", "queue", "recdir", "retries", "quiet"}
	var base []string
	for _, name := range inherit {
		f := fs.Lookup(name)
		if f == nil || f.Value.String() == f.DefValue {
			continue
		}
		base = append(base, "-"+name+"="+f.Value.String())
	}
	// Workers drain fast on SIGTERM: the supervisor escalates to
	// SIGKILL anyway, and every cell they answered is already in its
	// journal.
	base = append(base, "-drain="+drain.String())
	return func(slot int, socket string) []string {
		return append([]string{"-worker", "-socket", socket, "-worker-id", fleet.WorkerID(slot)}, base...)
	}
}

func fingerprintPtr(opt experiments.Options) *experiments.Fingerprint {
	fp := opt.Fingerprint()
	return &fp
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdserve:", err)
	os.Exit(1)
}

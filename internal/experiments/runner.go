// Package experiments reproduces every table and figure of the paper's
// evaluation (§3) over the synthetic SPEC'95-analog suite, plus the §4
// summary averages and a set of ablation studies. Each experiment
// returns typed rows and has a paper-style text renderer; cmd/mdexp and
// the repository's benchmarks drive them.
//
// The Runner at the center of the package is an instrumented execution
// layer: it memoizes (benchmark, configuration) simulations with
// singleflight semantics, honors context cancellation, aggregates every
// job failure of a sweep instead of dropping all but one, records
// per-run provenance (config name and hash, instruction budget, wall
// time) for the artifact layer, and exposes progress hooks plus atomic
// counters for live observability.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdspec/internal/atomicio"
	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/faultinject"
	"mdspec/internal/parsim"
	"mdspec/internal/prog"
	"mdspec/internal/retry"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Insts is the number of committed instructions simulated per
	// (benchmark, configuration) pair.
	Insts int64
	// Benchmarks restricts the suite (default: all 18 of Table 1).
	Benchmarks []string
	// Parallel bounds concurrent simulations (default: GOMAXPROCS).
	// Sampled runs draw their segment workers from the same budget, so a
	// sweep never oversubscribes it.
	Parallel int
	// Sampled switches every simulation from full timing to the paper's
	// sampled methodology (§3.1), executed interval-parallel: Insts
	// becomes the committed-instruction budget summed over the timing
	// windows. Split-window configurations do not support sampling and
	// fall back to full timing runs.
	Sampled bool
	// TimingWindow and FunctionalWindow size one sampling period when
	// Sampled is set (defaults 5_000 and 2*TimingWindow — the paper's 1:2
	// timing:functional ratio).
	TimingWindow     int64
	FunctionalWindow int64
	// SegmentPeriods is the interval-parallel segment size in sampling
	// periods (default parsim.DefaultSegmentPeriods). It fixes the
	// decomposition, so results are independent of Parallel.
	SegmentPeriods int
	// Retry bounds how often a cell whose simulation fails transiently
	// (a worker panic) is re-attempted before the sweep degrades; a
	// watchdog deadlock report is deterministic and not retried. The
	// zero value selects retry.Default; the budget is counted in
	// attempts, and the backoff schedule is a pure function of the
	// attempt number.
	Retry retry.Policy
	// RecordingDir, when set, caches each benchmark's columnar recording
	// on disk (<bench>.mdrec): a valid file is mmapped read-only, so
	// concurrent sweep processes share one physical copy per benchmark
	// through the page cache; a missing or damaged file is re-captured
	// and rewritten atomically. Unset keeps recordings in memory.
	RecordingDir string
	// Journal, when set, is the sweep's crash-safe checkpoint store:
	// every completed run is appended (and fsynced) as it finishes, and
	// cells primed from a replayed journal are served from the memo
	// cache without re-simulation. Open one with OpenJournal and seed
	// the runner with Prime.
	Journal *Journal
	// Hooks receives progress callbacks (all fields optional).
	Hooks Hooks
}

// DefaultOptions runs the full suite at a laptop-friendly budget.
func DefaultOptions() Options {
	return Options{Insts: 150_000}
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.Names()
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) timingWindow() int64 {
	if o.TimingWindow > 0 {
		return o.TimingWindow
	}
	return 5_000
}

func (o Options) functionalWindow() int64 {
	if o.FunctionalWindow > 0 {
		return o.FunctionalWindow
	}
	return 2 * o.timingWindow()
}

// ParseSampling parses a sampling geometry written T:F, T timing and F
// functional instructions per period, the form mdsim -sample, mdexp
// -sampled and mdserve -sampled take. The whole string must be the two
// numbers, and both must be positive: Options would silently replace a
// zero window by its default, so one string would name two geometries.
func ParseSampling(s string) (timing, functional int64, err error) {
	ts, fs, ok := strings.Cut(s, ":")
	if ok {
		timing, err = strconv.ParseInt(ts, 10, 64)
	}
	if ok && err == nil {
		functional, err = strconv.ParseInt(fs, 10, 64)
	}
	if !ok || err != nil || timing <= 0 || functional <= 0 {
		return 0, 0, fmt.Errorf("bad sampling geometry %q: want T:F, two positive instruction counts", s)
	}
	return timing, functional, nil
}

// sampling is the fixed interval-parallel decomposition of every
// sampled cell under these options. Each attempt at a cell runs over
// it, so a cell has one value whichever attempt answers it.
func (o Options) sampling() parsim.Options {
	return parsim.Options{
		TotalTiming:     o.Insts,
		TimingInsts:     o.timingWindow(),
		FunctionalInsts: o.functionalWindow(),
		SegmentPeriods:  o.SegmentPeriods,
	}
}

// Hooks are optional progress callbacks a Runner invokes around each
// simulation. Callbacks may fire concurrently from sweep workers and
// must be safe for concurrent use. Configuration identity is passed as
// the paper-style name (e.g. "NAS/SYNC").
type Hooks struct {
	// JobStarted fires when a simulation actually begins (cache misses
	// only; deduplicated and memoized calls never start a job).
	JobStarted func(bench, cfg string)
	// JobFinished fires when a simulation completes, with its wall time
	// and error (nil on success).
	JobFinished func(bench, cfg string, d time.Duration, err error)
	// CacheHit fires when a cell is answered without a new simulation:
	// from the memo cache, from a primed journal, or by joining an
	// in-flight duplicate.
	CacheHit func(bench, cfg string)
	// JobRetried fires when a transiently-failed simulation is about to
	// be re-attempted; attempt is the 1-based attempt that just failed
	// with err.
	JobRetried func(bench, cfg string, attempt int, err error)
}

// Counters is a snapshot of a Runner's lifetime metrics.
type Counters struct {
	JobsStarted  int64 `json:"jobs_started"`
	JobsFinished int64 `json:"jobs_finished"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsRetried  int64 `json:"jobs_retried"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	// Replayed counts cells served from a resumed journal instead of
	// being re-simulated.
	Replayed int64 `json:"replayed"`
	// RecordingHits/Misses/Bytes track the on-disk recording cache
	// (RecordingDir): a hit reuses an existing .mdrec file, a miss
	// captures and rewrites it, and bytes counts data served from or
	// published to disk.
	RecordingHits   int64 `json:"recording_hits"`
	RecordingMisses int64 `json:"recording_misses"`
	RecordingBytes  int64 `json:"recording_bytes"`
	// CheckpointHits/Misses/Bytes track the warmed-state checkpoint
	// cache the same way: a hit reopens a valid .mdckpt file, a miss
	// re-captures the warm state with a functional pass (and rewrites
	// the file when RecordingDir is set).
	CheckpointHits   int64 `json:"checkpoint_hits"`
	CheckpointMisses int64 `json:"checkpoint_misses"`
	CheckpointBytes  int64 `json:"checkpoint_bytes"`
	// SimSeconds is the summed wall time of all finished simulations
	// (CPU-parallel, so it exceeds elapsed time on multicore sweeps).
	SimSeconds float64 `json:"sim_seconds"`
}

// Runner executes and memoizes simulations: most experiments share
// baseline configurations, so each (benchmark, config) pair runs once,
// even under concurrent callers (singleflight).
type Runner struct {
	opt Options

	// Per-benchmark set-up, each built once outside mu: recordings and
	// warm-state checkpoint sets.
	recs  buildOnce[string, emu.ReplaySource]
	ckpts buildOnce[ckptKey, *ckpt.Set]

	mu sync.Mutex
	// memo maps each finished cell to the index of its record.
	memo       map[runKey]int            //md:guardedby mu
	hashes     map[config.Machine]string //md:guardedby mu
	inflight   map[runKey]*call          //md:guardedby mu
	records    []RunRecord               //md:guardedby mu
	primed     map[runKeyID]JournalCell  //md:guardedby mu
	abandoned  []AbandonedCell           //md:guardedby mu
	abandonSet map[runKeyID]bool         //md:guardedby mu
	journalErr error                     //md:guardedby mu

	jobsStarted  atomic.Int64
	jobsFinished atomic.Int64
	jobsFailed   atomic.Int64
	jobsRetried  atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	replayed     atomic.Int64
	recHits      atomic.Int64
	recMisses    atomic.Int64
	recBytes     atomic.Int64
	ckptHits     atomic.Int64
	ckptMisses   atomic.Int64
	ckptBytes    atomic.Int64
	simNanos     atomic.Int64

	// sem is the runner's parallelism budget, shared between sweep jobs
	// and (for sampled runs) each job's interval-parallel segment
	// workers: a job holds one token while it simulates, and parsim takes
	// extra tokens only when they are free, so the two levels together
	// never exceed Options.Parallel.
	sem parsim.Sem

	// sim is the simulation implementation; tests substitute stubs to
	// exercise singleflight, cancellation and error aggregation without
	// paying for real simulations. simSerial is the graceful-degradation
	// backend a sampled cell falls back to when sim keeps failing
	// transiently: the same segments, run one after another.
	sim       func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error)
	simSerial func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error)

	// sleep waits out a retry backoff (tests substitute an instant
	// stub); the schedule itself is deterministic, see internal/retry.
	sleep func(ctx context.Context, d time.Duration) error
}

type runKey struct {
	bench string
	cfg   config.Machine
}

// ckptKey identifies one warmed-state checkpoint set: functional
// warming sees only the warm configuration class, so every policy
// ablation of a sweep shares one set per benchmark.
type ckptKey struct {
	bench string
	warm  ckpt.WarmConfig
}

// call is an in-flight simulation that duplicate requests wait on.
type call struct {
	done chan struct{}
	rec  RunRecord
	err  error
}

// NewRunner returns a Runner with the given options.
func NewRunner(opt Options) *Runner {
	if opt.Insts <= 0 {
		opt.Insts = DefaultOptions().Insts
	}
	r := &Runner{
		opt:        opt,
		memo:       make(map[runKey]int),
		hashes:     make(map[config.Machine]string),
		inflight:   make(map[runKey]*call),
		primed:     make(map[runKeyID]JournalCell),
		abandonSet: make(map[runKeyID]bool),
		sem:        parsim.NewSem(opt.parallel()),
	}
	r.sim = r.simulate
	r.simSerial = r.simulateSerialSegments
	r.sleep = func(ctx context.Context, d time.Duration) error {
		if d <= 0 {
			return ctx.Err()
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return r
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opt }

// Counters returns a snapshot of the runner's lifetime metrics.
func (r *Runner) Counters() Counters {
	return Counters{
		JobsStarted:      r.jobsStarted.Load(),
		JobsFinished:     r.jobsFinished.Load(),
		JobsFailed:       r.jobsFailed.Load(),
		JobsRetried:      r.jobsRetried.Load(),
		CacheHits:        r.cacheHits.Load(),
		CacheMisses:      r.cacheMisses.Load(),
		Replayed:         r.replayed.Load(),
		RecordingHits:    r.recHits.Load(),
		RecordingMisses:  r.recMisses.Load(),
		RecordingBytes:   r.recBytes.Load(),
		CheckpointHits:   r.ckptHits.Load(),
		CheckpointMisses: r.ckptMisses.Load(),
		CheckpointBytes:  r.ckptBytes.Load(),
		SimSeconds:       time.Duration(r.simNanos.Load()).Seconds(),
	}
}

// Abandoned returns a copy of the cells this runner gave up on after
// exhausting retries (and, for sampled cells, the serial-segments
// fallback).
// They are the partial-results envelope's "what is missing" list.
func (r *Runner) Abandoned() []AbandonedCell {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]AbandonedCell(nil), r.abandoned...)
}

// JournalErr reports the first journal-append failure, if any. A
// failing journal degrades the sweep's resumability, never the sweep
// itself, so the error is surfaced here instead of failing Run.
func (r *Runner) JournalErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.journalErr
}

// Prime seeds the memo cache with cells replayed from a journal: a
// primed cell is served without re-simulation, appears in Records (with
// its original provenance), and is not re-journaled. A cell's record is
// decoded on the cell's first request. A record that does not decode,
// names another cell, comes from a different runner version or
// instruction budget (a sweep whose cells are not this sweep's cells),
// has no stats, or was made by the retired serial sampled fallback
// (another estimator) is dropped then, and the cell is simulated like
// any other miss. Returns how many cells were primed.
func (r *Runner) Prime(cells []JournalCell) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cells {
		r.primed[runKeyID{c.Bench, c.ConfigHash}] = c
	}
	return len(cells)
}

// Records returns a copy of the provenance records of every simulation
// this runner has executed (cache hits do not add records).
func (r *Runner) Records() []RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RunRecord(nil), r.records...)
}

// Record returns the provenance record of a completed (bench, config)
// cell — executed or replayed by this runner — so a service response
// can carry the cell's true wall time, attempts, and fallback marker
// rather than a reconstruction. The second result is false while the
// cell has not finished successfully.
func (r *Runner) Record(bench string, cfg config.Machine) (RunRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.memo[runKey{bench, cfg}]
	if !ok {
		return RunRecord{}, false
	}
	return r.records[i], true
}

// buildOnce memoizes one value per key and builds each at most once,
// even under concurrent callers, without holding a lock while it
// builds: the first caller claims the key, callers for the same key
// wait for that build, and callers for other keys proceed. A failed or
// panicking build is not memoized; the next caller builds again.
type buildOnce[K comparable, V any] struct {
	mu   sync.Mutex
	done map[K]V             //md:guardedby mu
	busy map[K]chan struct{} //md:guardedby mu
}

func (o *buildOnce[K, V]) get(key K, build func() (V, error)) (V, error) {
	for {
		o.mu.Lock()
		if v, ok := o.done[key]; ok {
			o.mu.Unlock()
			return v, nil
		}
		ch, claimed := o.busy[key]
		if !claimed {
			if o.busy == nil {
				o.done = make(map[K]V)
				o.busy = make(map[K]chan struct{})
			}
			ch = make(chan struct{})
			o.busy[key] = ch
		}
		o.mu.Unlock()
		if !claimed {
			return o.build(key, ch, build)
		}
		<-ch //md:ctxok bounded CPU and local-disk build; the claimant closes ch even if it panics
	}
}

// lookup returns key's memoized value, if one is built.
func (o *buildOnce[K, V]) lookup(key K) (V, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, ok := o.done[key]
	return v, ok
}

// forget drops every memoized value whose key matches, so the next get
// of such a key builds it again. A build in progress is not affected.
func (o *buildOnce[K, V]) forget(match func(K) bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k := range o.done { //md:orderindependent deletes each matching key
		if match(k) {
			delete(o.done, k)
		}
	}
}

// build runs the claimant's build, publishes a successful result, and
// releases the waiters.
func (o *buildOnce[K, V]) build(key K, ch chan struct{}, build func() (V, error)) (v V, err error) {
	ok := false
	defer func() {
		o.mu.Lock()
		if ok {
			o.done[key] = v
		}
		delete(o.busy, key)
		o.mu.Unlock()
		close(ch)
	}()
	v, err = build()
	ok = err == nil
	return v, err
}

// recording returns the shared dynamic-instruction replay source for
// bench, creating it on first use. Every configuration of a sweep
// replays the same recording, so the architectural stream is emulated
// exactly once per benchmark regardless of how many configurations run
// over it. With RecordingDir set, the recording additionally persists
// across processes as an mmapped column file. The program is built
// here and dropped: only its code table outlives the build.
func (r *Runner) recording(bench string) (emu.ReplaySource, error) {
	return r.recs.get(bench, func() (emu.ReplaySource, error) {
		p, err := workload.Build(bench)
		if err != nil {
			return nil, err
		}
		if r.opt.RecordingDir != "" {
			return r.fileRecording(bench, p), nil
		}
		return emu.NewRecording(emu.New(p)), nil
	})
}

// fileRecording serves bench from the RecordingDir cache: an existing
// valid file that covers these options' capture horizon is mmapped;
// otherwise the program is captured once, the file written through
// atomicio.WriteFile (safe against concurrent writers and crashes), and
// reopened mapped. A file sealed short of the horizon (captured for a
// smaller budget) is replaced by the longer capture, so files only
// grow and a larger file serves every smaller budget. Every failure
// path falls back to a live in-memory recording — the disk cache is an
// optimization, never a correctness dependency.
func (r *Runner) fileRecording(bench string, p *prog.Program) emu.ReplaySource {
	path := filepath.Join(r.opt.RecordingDir, bench+".mdrec")
	if f, err := emu.OpenRecordingFile(path, p); err == nil {
		if !f.Prefix() || f.Len() >= r.opt.captureHorizon() {
			r.recHits.Add(1)
			r.recBytes.Add(f.SizeBytes())
			return f
		}
		f.Close() //md:errok a read-only mapping of the file about to be replaced
	}
	r.recMisses.Add(1)
	rec := emu.NewRecording(emu.New(p))
	rec.Record(r.opt.captureHorizon())
	if err := os.MkdirAll(r.opt.RecordingDir, 0o755); err != nil {
		return rec
	}
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := rec.WriteSealedTo(w)
		return err
	}); err != nil {
		return rec
	}
	if f, err := emu.OpenRecordingFile(path, p); err == nil {
		r.recBytes.Add(f.SizeBytes())
		return f
	}
	return rec
}

// captureHorizon bounds the stream prefix any simulation under these
// options can touch, so a sealed recording file covers every replay. A
// full timing run stops committing at Insts, and a sampled run at the
// end of its last period; either reads at most core.ReadAhead past that
// point, whatever the configuration.
func (o Options) captureHorizon() int64 {
	h := o.Insts
	if o.Sampled {
		tw, fw := o.timingWindow(), o.functionalWindow()
		periods := (o.Insts + tw - 1) / tw
		h = periods * (tw + fw)
	}
	return h + core.ReadAhead
}

// Close releases resources held by the runner's replay sources (mmapped
// recording files). The runner must be idle.
func (r *Runner) Close() error {
	r.recs.mu.Lock()
	defer r.recs.mu.Unlock()
	var firstErr error
	for bench, src := range r.recs.done {
		if f, ok := src.(*emu.FileRecording); ok {
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		delete(r.recs.done, bench)
	}
	return firstErr
}

// release gives back what the runner holds for bench once a batch has
// run its last cell of bench (runAll): the recording file's resident
// pages, and the benchmark's checkpoint sets, which a later batch reads
// from their files again. The recording stays mapped, so cursors of
// concurrent callers stay valid. Without RecordingDir nothing is
// released: a live recording or an in-memory checkpoint set could only
// come back by re-capture.
func (r *Runner) release(bench string) {
	if r.opt.RecordingDir == "" {
		return
	}
	if src, ok := r.recs.lookup(bench); ok {
		if f, ok := src.(*emu.FileRecording); ok {
			f.DropPages() //md:errok residency only: the mapping and the bytes it reads are unchanged either way
		}
	}
	r.ckpts.forget(func(k ckptKey) bool { return k.bench == bench })
}

// checkpointSet returns the warmed-state checkpoint set for bench
// under cfg's warm configuration class, building it at most once per
// (bench, class) even under concurrent callers (the build costs one
// functional pass). A nil result means checkpointing is unavailable
// for these options; callers proceed without it — checkpoints are an
// optimization, never a correctness dependency.
func (r *Runner) checkpointSet(bench string, cfg config.Machine) *ckpt.Set {
	s, _ := r.ckpts.get(ckptKey{bench, ckpt.WarmConfigOf(cfg)}, func() (*ckpt.Set, error) {
		return r.buildCheckpointSet(bench, cfg), nil
	})
	return s
}

// buildCheckpointSet opens, validates, or re-captures one checkpoint
// set. With RecordingDir set the set persists as
// <bench>-<warmhash>-<first>-<spacing>.mdckpt next to the benchmark's
// recording, shared by concurrent mdserve workers and resumed mdexp
// sweeps. The name carries the capture schedule's grid
// (parsim.Options.CheckpointGrid), so sweeps under other windows keep
// their own files, and sweeps that share a file differ only in budget,
// which covers settles. A corrupt, mismatched, or non-covering file is
// silently re-captured and rewritten. Every failure path degrades to a
// smaller or nil set, never an error.
func (r *Runner) buildCheckpointSet(bench string, cfg config.Machine) *ckpt.Set {
	popt := r.opt.sampling()
	seqs := popt.CheckpointSeqs()
	if len(seqs) == 0 {
		return nil // single-segment decomposition: nothing to resume
	}
	rec, err := r.recording(bench)
	if err != nil {
		return nil
	}
	warm := ckpt.WarmConfigOf(cfg)

	path := ""
	if r.opt.RecordingDir != "" {
		first, spacing := popt.CheckpointGrid()
		path = filepath.Join(r.opt.RecordingDir,
			fmt.Sprintf("%s-%016x-%d-%d.mdckpt", bench, warm.Hash(), first, spacing))
		s, err := ckpt.OpenFile(path, rec.Fingerprint(), warm.Hash())
		if err == nil && covers(s.Seqs(), seqs, rec) {
			r.ckptHits.Add(1)
			r.ckptBytes.Add(s.SizeBytes())
			return s
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			// Torn, corrupt, or foreign file: drop it before re-capture so
			// a failed rewrite cannot leave the damaged bytes in place.
			os.Remove(path) //md:errok re-capture below rewrites or works in memory
		}
	}
	r.ckptMisses.Add(1)
	s, err := ckpt.Build(cfg, rec, rec.Fingerprint(), seqs)
	if err != nil {
		return nil
	}
	if path != "" && len(s.Frames) > 0 {
		if err := s.WriteFile(path); err == nil {
			r.ckptBytes.Add(s.SizeBytes())
		}
	}
	return s
}

// covers reports whether an on-disk checkpoint set captured at
// positions got serves a sweep that wants positions want, so that
// checkpoint files, like recordings, only grow. A set captured for this
// or a larger budget holds want as a prefix. A shorter set serves only
// if ckpt.Build would capture no more frames: the recording ends before
// the first missing position. Anything else (a smaller budget, frames
// off the schedule) is re-captured.
func covers(got, want []int64, rec emu.ReplaySource) bool {
	n := min(len(got), len(want))
	if !slices.Equal(got[:n], want[:n]) {
		return false
	}
	return n == len(want) || rec.NewReplay().At(want[n]-1) == nil
}

// simulate is the real simulation backend behind Run. With
// Options.Sampled it runs the interval-parallel sampled engine, whose
// segment workers borrow spare tokens from the runner's own parallelism
// budget and restore warm-state checkpoints (split-window machines fall
// back to a full timing run — sampling needs a continuous window).
func (r *Runner) simulate(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	if r.opt.Sampled && !cfg.SplitWindow {
		popt := r.opt.sampling()
		popt.Sem = r.sem
		popt.Checkpoints = r.checkpointSet(bench, cfg)
		return r.simulateSampled(ctx, bench, cfg, popt)
	}
	rec, err := r.recording(bench)
	if err != nil {
		return nil, err
	}
	pl, err := core.New(cfg, rec.NewReplay())
	if err != nil {
		return nil, err
	}
	res, err := pl.Run(r.opt.Insts)
	if err != nil {
		return nil, err
	}
	res.Workload = bench
	return res, nil
}

// simulateSerialSegments is the graceful-degradation backend for
// sampled cells: the primary's decomposition, with every segment on the
// calling goroutine and no checkpoint set, so it leans on no cached
// bytes but the CRC-checked recording. Worker count and checkpoints
// change parsim's wall time only, so its statistics equal the
// primary's. One worker without checkpoints walks the segments in
// stream order behind one functional warmer, so the attempt reads the
// stream about twice, not once per segment.
func (r *Runner) simulateSerialSegments(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	popt := r.opt.sampling()
	popt.Workers = 1
	return r.simulateSampled(ctx, bench, cfg, popt)
}

// simulateSampled runs one sampled cell over popt.
func (r *Runner) simulateSampled(ctx context.Context, bench string, cfg config.Machine, popt parsim.Options) (*stats.Run, error) {
	rec, err := r.recording(bench)
	if err != nil {
		return nil, err
	}
	res, err := parsim.Run(ctx, cfg, rec, popt)
	if err != nil {
		return nil, err
	}
	res.Workload = bench
	return res, nil
}

// RunPanicError is a panic during one cell's simulation, converted into
// an error carrying the job's identity and the panicking goroutine's
// stack. It is classified as transient: the next attempt gets a fresh
// Pipeline over the shared recording.
type RunPanicError struct {
	Bench  string
	Config string
	Value  any
	Stack  []byte
}

func (e *RunPanicError) Error() string {
	return fmt.Sprintf("panic simulating %s under %s: %v\n%s", e.Bench, e.Config, e.Value, e.Stack)
}

// transientError classifies failures worth retrying: a recovered panic
// (job- or segment-level). Context cancellation and plain errors
// (unknown benchmark, invalid config) are permanent, and so is a
// watchdog deadlock report (see deadlockError).
func transientError(err error) bool {
	var jobPanic *RunPanicError
	var segPanic *parsim.PanicError
	return errors.As(err, &jobPanic) || errors.As(err, &segPanic)
}

// deadlockError reports a watchdog deadlock. A replay of a read-only,
// CRC-checked recording on a private pipeline is deterministic, so a
// retry would deadlock again: a full-timing cell fails after one
// attempt, and a sampled cell goes straight to the serial-segments
// fallback, which restores no checkpoint frame.
func deadlockError(err error) bool {
	var deadlock *core.DeadlockError
	return errors.As(err, &deadlock)
}

// runProtected is one simulation attempt with panic isolation: a panic
// anywhere below (a worker bug, an injected fault) becomes a typed
// *RunPanicError instead of crashing the sweep and losing every other
// cell's work.
func (r *Runner) runProtected(ctx context.Context, bench string, cfg config.Machine, cfgName string, sim func(context.Context, string, config.Machine) (*stats.Run, error)) (res *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &RunPanicError{Bench: bench, Config: cfgName, Value: v, Stack: debug.Stack()}
		}
	}()
	// No-op unless built with -tags mdfault; see internal/faultinject.
	faultinject.Point(faultinject.SiteRunnerJob)
	return sim(ctx, bench, cfg)
}

// runWithRecovery drives one cell to a result, an exhausted-retries
// failure, or a degraded success: transient failures are re-attempted
// up to the retry policy's budget (with its deterministic capped
// exponential backoff between attempts), and a sampled cell whose
// interval-parallel runs keep failing, or deadlock, gets one last
// attempt that runs its segments one after another (simSerial). It
// returns the attempts consumed and the fallback marker for the cell's
// provenance record.
func (r *Runner) runWithRecovery(ctx context.Context, bench string, cfg config.Machine, cfgName string) (res *stats.Run, attempts int, fallback string, err error) {
	pol := r.opt.Retry.WithDefaults()
	for {
		attempts++
		res, err = r.runProtected(ctx, bench, cfg, cfgName, r.sim)
		deadlock := deadlockError(err)
		if err == nil || !deadlock && !transientError(err) {
			return res, attempts, "", err
		}
		if cerr := ctx.Err(); cerr != nil {
			// Canceled mid-attempt: the cell is unfinished, not abandoned —
			// report the cancellation, not the attempt's transient failure.
			return nil, attempts, "", cerr
		}
		if deadlock || attempts >= pol.MaxAttempts {
			break
		}
		r.jobsRetried.Add(1)
		if r.opt.Hooks.JobRetried != nil {
			r.opt.Hooks.JobRetried(bench, cfgName, attempts, err)
		}
		if werr := r.sleep(ctx, pol.Backoff(attempts)); werr != nil {
			return nil, attempts, "", werr
		}
	}
	if r.opt.Sampled && !cfg.SplitWindow {
		attempts++
		fres, ferr := r.runProtected(ctx, bench, cfg, cfgName, r.simSerial)
		if ferr == nil {
			return fres, attempts, FallbackSerialSegments, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, attempts, "", cerr // canceled mid-fallback: unfinished, not abandoned
		}
		err = fmt.Errorf("%w (serial-segments fallback also failed: %v)", err, ferr)
	}
	return nil, attempts, "", err
}

// cfgHashLocked returns cfg's provenance hash, memoized per Runner:
// Hash() renders every Machine field through fmt, and under mdserve the
// hash is consulted on every request (cache key, journal key,
// abandoned-cell identity).
//
//md:locked mu
func (r *Runner) cfgHashLocked(cfg config.Machine) string {
	if h, ok := r.hashes[cfg]; ok {
		return h
	}
	h := cfg.Hash()
	r.hashes[cfg] = h
	return h
}

// RunSource reports where a simulation result came from, for service
// responses and dedup accounting.
type RunSource string

// Run result sources.
const (
	// SourceSimulated is a fresh simulation executed by this call.
	SourceSimulated RunSource = "simulated"
	// SourceCache is a result served from the memo cache.
	SourceCache RunSource = "cache"
	// SourceDedup is a call that joined an in-flight duplicate
	// simulation started by a concurrent caller (singleflight).
	SourceDedup RunSource = "dedup"
	// SourceJournal is a cell replayed from a primed checkpoint journal
	// without re-simulation.
	SourceJournal RunSource = "journal"
)

// RunWithSource simulates bench under cfg and reports whether the
// result was freshly simulated, served from the memo cache,
// deduplicated against an in-flight duplicate, or replayed from a
// primed journal. Results are memoized, and concurrent calls for the
// same (bench, cfg) pair share a single simulation (singleflight). A
// canceled context aborts before starting new work; an already-running
// duplicate is abandoned (it completes and populates the cache for
// later callers). Errors are returned naming the offending (bench,
// config) pair and are not cached. mdserve responses carry the source
// so clients can tell a cache hit from a paid simulation.
func (r *Runner) RunWithSource(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, RunSource, error) {
	key := runKey{bench, cfg}
	rec, src, c, err := r.lookup(ctx, key, true)
	if c == nil {
		return rec.Stats, src, err
	}
	// Name() rebuilds the paper-style string on every call; the hook and
	// error paths below use it up to three times, so build it once.
	cfgName := cfg.Name()

	r.cacheMisses.Add(1)
	r.jobsStarted.Add(1)
	if r.opt.Hooks.JobStarted != nil {
		r.opt.Hooks.JobStarted(bench, cfgName)
	}
	start := time.Now()
	res, attempts, fallback, err := r.runWithRecovery(ctx, bench, cfg, cfgName)
	wall := time.Since(start)
	if err != nil {
		err = fmt.Errorf("%s under %s: %w", bench, cfgName, err)
	}
	r.jobsFinished.Add(1)
	r.simNanos.Add(int64(wall))
	if err != nil {
		r.jobsFailed.Add(1)
	}
	if r.opt.Hooks.JobFinished != nil {
		r.opt.Hooks.JobFinished(bench, cfgName, wall, err)
	}

	r.mu.Lock()
	delete(r.inflight, key)
	if err == nil {
		rec = newRunRecord(bench, cfgName, r.cfgHashLocked(cfg), r.opt.Insts, wall, res)
		rec.Attempts = attempts
		rec.Fallback = fallback
		r.rememberLocked(key, rec)
	} else if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		// The cell is abandoned (retries and any fallback exhausted, or
		// a permanent failure): name it so the partial-results envelope
		// can report exactly what is missing. Errors are not cached, so
		// a later Run of the same cell may retry it; keep one entry.
		id := runKeyID{bench, r.cfgHashLocked(cfg)}
		if !r.abandonSet[id] {
			r.abandonSet[id] = true
			r.abandoned = append(r.abandoned, AbandonedCell{
				Bench: bench, Config: cfgName, ConfigHash: id.configHash,
				Attempts: attempts, Error: err.Error(),
			})
		}
	}
	journal := r.opt.Journal
	r.mu.Unlock()

	if err == nil && journal != nil {
		// Make the finished cell durable before reporting it; a journal
		// failure costs resumability, not the sweep (see JournalErr).
		if jerr := journal.Append(rec); jerr != nil {
			r.mu.Lock()
			if r.journalErr == nil {
				r.journalErr = jerr
			}
			r.mu.Unlock()
		}
	}

	c.rec, c.err = rec, err
	close(c.done)
	return res, SourceSimulated, err
}

// Lookup answers (bench, cfg) when that needs no new simulation: a memo
// hit (SourceCache), a cell primed from a journal, which this call
// promotes into the memo (SourceJournal), or an in-flight duplicate,
// which it joins and waits for (SourceDedup). It counts and fires hooks
// exactly as RunWithSource would for the same cell. ok is false, and
// nothing is counted, when the cell needs a simulation; the caller then
// runs it through RunWithSource or RunGuarded. mdserve answers settled
// cells this way without queueing them.
func (r *Runner) Lookup(ctx context.Context, bench string, cfg config.Machine) (rec RunRecord, src RunSource, ok bool, err error) {
	rec, src, _, err = r.lookup(ctx, runKey{bench, cfg}, false)
	return rec, src, src != "" || err != nil, err
}

// lookup is the part of RunWithSource that needs no simulation, decided
// under one hold of mu. A cell it cannot settle is claimed when claim
// is set: it goes in flight under the returned call, which the caller
// owes a simulation. Otherwise an unsettled cell returns an empty
// source, a nil call and a nil error.
func (r *Runner) lookup(ctx context.Context, key runKey, claim bool) (RunRecord, RunSource, *call, error) {
	if err := ctx.Err(); err != nil {
		return RunRecord{}, "", nil, err
	}
	r.mu.Lock()
	if i, ok := r.memo[key]; ok {
		rec := r.records[i]
		r.mu.Unlock()
		r.CacheHit(rec.Bench, rec.Config)
		return rec, SourceCache, nil, nil
	}
	if len(r.primed) > 0 {
		// A cell replayed from a resumed journal: decode its record and,
		// if Prime's filter passes it, promote it into the memo cache and
		// the provenance records, skipping the simulation entirely (its
		// stats are bit-identical to re-running by the determinism
		// contract). A cell that fails is simulated as a miss.
		id := runKeyID{key.bench, r.cfgHashLocked(key.cfg)}
		if cell, ok := r.primed[id]; ok {
			delete(r.primed, id)
			rec, err := cell.Record()
			if err == nil && rec.Runner == RunnerVersion && rec.Insts == r.opt.Insts && rec.Stats != nil &&
				rec.Fallback != fallbackSerialSampled {
				r.rememberLocked(key, rec)
				r.mu.Unlock()
				r.replayed.Add(1)
				if r.opt.Hooks.CacheHit != nil {
					r.opt.Hooks.CacheHit(rec.Bench, rec.Config)
				}
				return rec, SourceJournal, nil, nil
			}
		}
	}
	if c, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		select {
		case <-c.done:
			if c.err != nil {
				return RunRecord{}, "", nil, c.err
			}
			r.CacheHit(c.rec.Bench, c.rec.Config)
			return c.rec, SourceDedup, nil, nil
		case <-ctx.Done():
			return RunRecord{}, "", nil, ctx.Err()
		}
	}
	var own *call
	if claim {
		own = &call{done: make(chan struct{})}
		r.inflight[key] = own
	}
	r.mu.Unlock()
	return RunRecord{}, "", own, nil
}

// rememberLocked memoizes rec as key's result and adds it to the
// provenance records.
//
//md:locked mu
func (r *Runner) rememberLocked(key runKey, rec RunRecord) {
	r.records = append(r.records, rec)
	r.memo[key] = len(r.records) - 1
}

// CacheHit accounts one answer from the memo cache or from a joined
// in-flight duplicate: it counts it in cache_hits and fires the
// CacheHit hook with the cell's bench and config name. Lookup calls it
// for its own hits; mdserve calls it when it answers a memo cell from
// response bytes it kept, so such a hit is counted exactly as
// Lookup's.
func (r *Runner) CacheHit(bench, cfg string) {
	r.cacheHits.Add(1)
	if r.opt.Hooks.CacheHit != nil {
		r.opt.Hooks.CacheHit(bench, cfg)
	}
}

// SimulateFunc is the signature of a simulation backend: it turns one
// (benchmark, configuration) cell into a statistics run.
type SimulateFunc func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error)

// UseBackend replaces the runner's simulation backend — both the
// primary engine and the sampled fallback — while keeping the memo
// cache, singleflight dedup, journal priming, hooks and counters
// in front of it. mdexp -server uses it to point experiments at a
// remote mdserve daemon instead of simulating locally. Call it before
// the first simulation; it is not safe to swap backends mid-sweep.
func (r *Runner) UseBackend(sim SimulateFunc) {
	r.sim = sim
	r.simSerial = sim
}

// LocalSimulate runs one cell on this process's own simulation engine,
// ignoring any remote backend mounted with UseBackend. It is the fleet
// supervisor's graceful-degradation path: when every worker process is
// down, the pool falls back to in-process execution — today's
// single-process path — through this method, while the runner's memo
// cache, journal, and counters in front of the pool stay intact.
func (r *Runner) LocalSimulate(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	return r.simulate(ctx, bench, cfg)
}

// RunGuarded is RunWithSource behind the runner's parallelism budget:
// a call that Lookup settles — memo cache, primed journal, or joining
// an in-flight duplicate — proceeds immediately, anything else first
// acquires one token of Options.Parallel. It is the per-job step of the
// bounded sweep pool (runAll) and of the mdserve scheduler's workers,
// which must never let one queued request oversubscribe the shared
// simulation budget.
func (r *Runner) RunGuarded(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, RunSource, error) {
	if rec, src, ok, err := r.Lookup(ctx, bench, cfg); ok {
		return rec.Stats, src, err
	}
	if err := r.sem.Acquire(ctx); err != nil {
		return nil, "", err
	}
	defer r.sem.Release()
	return r.RunWithSource(ctx, bench, cfg)
}

// job is one (bench, config) simulation request.
type job struct {
	bench string
	cfg   config.Machine
}

// runAll executes all jobs with bounded parallelism and returns each
// job's statistics, res[i] for jobs[i]: a fixed pool of at most
// Options.Parallel workers drains the job list, so a sweep of N cells
// costs O(parallel) goroutines instead of N (the same pool shape
// mdserve uses to absorb unbounded request streams). Unlike a
// first-error-wins sweep, it drains every job and returns the joined
// errors of all failures, each naming its (bench, config) pair. When
// ctx is canceled, jobs not yet running are abandoned and a single
// context error is reported alongside any real failures. A job that
// failed or never ran leaves a nil entry.
//
// The job that returns last among a benchmark's releases the benchmark
// (see release), so a batch queued one benchmark at a time holds about
// Parallel benchmarks' recordings and checkpoint sets, not all of them.
// A canceled batch releases nothing more; Close still unmaps everything.
func (r *Runner) runAll(ctx context.Context, jobs []job) ([]*stats.Run, error) {
	res := make([]*stats.Run, len(jobs))
	errs := make([]error, len(jobs))
	left := make(map[string]*atomic.Int64)
	for _, j := range jobs {
		if left[j.bench] == nil {
			left[j.bench] = new(atomic.Int64)
		}
		left[j.bench].Add(1)
	}
	workers := r.opt.parallel()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res[i], _, errs[i] = r.RunGuarded(ctx, jobs[i].bench, jobs[i].cfg)
				if left[jobs[i].bench].Add(-1) == 0 && ctx.Err() == nil {
					r.release(jobs[i].bench)
				}
			}
		}()
	}
	// Submission is ctx-aware: once the sweep is canceled, stop feeding
	// the pool instead of blocking on workers that are themselves
	// unwinding; unsubmitted jobs keep their slot's nil error and the
	// single collapsed ctx.Err() below reports the cancellation.
	aborted := false
submit:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			aborted = true
			break submit
		}
	}
	close(idx)
	wg.Wait()

	// A job's context error collapses into the batch's only when the
	// batch itself was canceled; a backend's own deadline is a failure
	// like any other, so a nil error means every entry of res is set.
	var failures []error
	canceled := aborted
	for _, e := range errs {
		switch {
		case e == nil:
		case ctx.Err() != nil && (errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)):
			canceled = true // collapse the cancellation storm into one error
		default:
			failures = append(failures, e)
		}
	}
	if canceled {
		failures = append(failures, ctx.Err())
	}
	return res, errors.Join(failures...)
}

// grid runs the cross product of benchmarks and configs in one batch
// and returns its statistics: res[i][j] is benches[i] under cfgs[j].
// Jobs are queued bench-major, so the batch releases each benchmark
// after its last cell (see runAll).
func (r *Runner) grid(ctx context.Context, benches []string, cfgs ...config.Machine) ([][]*stats.Run, error) {
	jobs := make([]job, 0, len(benches)*len(cfgs))
	for _, b := range benches {
		for _, c := range cfgs {
			jobs = append(jobs, job{b, c})
		}
	}
	runs, err := r.runAll(ctx, jobs)
	if err != nil {
		return nil, err
	}
	res := make([][]*stats.Run, len(benches))
	for i := range res {
		res[i] = runs[i*len(cfgs) : (i+1)*len(cfgs)]
	}
	return res, nil
}

// meansByClass computes arithmetic means of a metric over the SPECint
// and SPECfp subsets of benches; metric(i) is benches[i]'s value. Names
// that are in neither subset (misspellings that slipped past CLI
// validation) are skipped rather than silently classified as FP.
func meansByClass(benches []string, metric func(i int) float64) (intMean, fpMean float64) {
	intSet := make(map[string]bool)
	for _, n := range workload.IntNames() {
		intSet[n] = true
	}
	fpSet := make(map[string]bool)
	for _, n := range workload.FPNames() {
		fpSet[n] = true
	}
	var iv, fv []float64
	for i, b := range benches {
		switch {
		case intSet[b]:
			iv = append(iv, metric(i))
		case fpSet[b]:
			fv = append(fv, metric(i))
		}
	}
	return stats.Mean(iv), stats.Mean(fv)
}

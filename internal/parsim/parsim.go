// Package parsim shards one sampled simulation across CPU cores. The
// paper's sampled methodology (§3.1) alternates timing windows with
// functional warming; the classic interval-sampling observation is that
// timing windows are independent given functionally-warmed cache and
// branch-predictor state, so the stream can be cut into segments that
// are simulated concurrently and merged in order.
//
// The decomposition is fixed by the options (period size × periods per
// segment), never by the worker count: each segment is simulated on a
// private core.Pipeline over a replay cursor of the shared replay
// source (a live emu.Recording or an mmapped recording file),
// fast-forwarding functionally to its segment start and then running
// the timing/functional alternation within its bounds.
// Every segment's result depends only on the configuration, the
// recording, and the segment bounds, and stats.Merge combines the
// per-segment results in stream order — so the merged Run is
// bit-identical whether 1, 2, or 16 workers ran it, and regardless of
// which worker picked up which segment when.
//
// Concurrency composes with job-level parallelism through a shared Sem:
// the calling goroutine always acts as one worker (so progress never
// depends on spare capacity), and extra workers start only for tokens
// they can take without blocking. An experiment sweep hands every
// parsim.Run the same semaphore it bounds its own jobs with, so
// job-level and intra-job parallelism together never oversubscribe the
// configured budget.
package parsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/faultinject"
	"mdspec/internal/stats"
)

// DefaultSegmentPeriods is the default number of sampling periods per
// segment. Larger segments amortize the functional fast-forward to the
// segment start (which grows linearly with the segment's position in
// the stream) over more timing work; smaller segments expose more
// parallelism. Four periods keeps the warm-up overhead at a few percent
// for the suite's default window sizes while still splitting a default
// run into enough segments to feed every core of a large box.
const DefaultSegmentPeriods = 4

// Sem is a counting semaphore shared between job-level sweeps and
// intra-job segment workers, so the two levels of parallelism draw from
// one budget.
type Sem chan struct{}

// NewSem returns a semaphore admitting n concurrent holders.
func NewSem(n int) Sem {
	if n < 1 {
		n = 1
	}
	return make(Sem, n)
}

// Acquire blocks until a token is available or ctx is done.
func (s Sem) Acquire(ctx context.Context) error {
	select {
	case s <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a token only if one is free right now.
func (s Sem) TryAcquire() bool {
	select {
	case s <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token.
func (s Sem) Release() { <-s }

// Options configures one interval-parallel sampled run.
type Options struct {
	// TotalTiming is the committed-instruction budget summed over all
	// timing windows (the sampled analog of a full run's Insts).
	TotalTiming int64
	// TimingInsts and FunctionalInsts size one sampling period: a timing
	// window of TimingInsts committed instructions followed by
	// FunctionalInsts functionally-warmed ones. The paper's 1:2 ratio is
	// FunctionalInsts = 2*TimingInsts.
	TimingInsts     int64
	FunctionalInsts int64
	// SegmentPeriods is the number of sampling periods per segment
	// (default DefaultSegmentPeriods). It fixes the decomposition — and
	// with it the result — independently of Workers.
	SegmentPeriods int
	// WarmupInsts is the detailed (timing-mode, unmeasured) warm-up each
	// mid-stream segment runs immediately before its first timing window.
	// Functional fast-forward warms caches and the branch predictor but
	// cannot train state that only timing exposes — chiefly the memory
	// dependence predictors, which learn from violations — so without it
	// every segment would start with a cold MDPT and overstate
	// misspeculation. Defaults to TimingInsts (one window's worth, re-run
	// over the tail of the preceding functional region); -1 disables the
	// warm-up entirely. Part of the fixed decomposition: it never varies
	// with the worker count.
	WarmupInsts int64
	// Workers bounds this run's concurrent segment workers (default
	// GOMAXPROCS). The caller's goroutine is always one of them.
	Workers int
	// Sem, when non-nil, is the shared parallelism budget: beyond the
	// calling goroutine (whose admission the caller already arranged),
	// extra workers start only on tokens TryAcquire can take without
	// blocking, so sweeps never oversubscribe their configured budget.
	Sem Sem
	// Checkpoints, when non-nil, lets each segment restore the nearest
	// warm-state frame at or before its warm-up start and fast-forward
	// only the residue, instead of functionally replaying the stream
	// from position 0. Restored state is bit-identical to a live
	// fast-forward, so the option changes wall-clock time only. A set
	// whose WarmHash does not match cfg, or a frame that fails to
	// restore, is silently ignored (full fast-forward) — checkpoints
	// may never change results. CheckpointSeqs is the schedule to
	// capture it at.
	Checkpoints *ckpt.Set
	// Select, when non-empty, simulates only the named segments of the
	// fixed decomposition, scaling each result by its weight before the
	// in-order merge (phase-aware sampling: one representative segment
	// stands in for its cluster). Indices must be unique and in range,
	// weights positive. An empty Select simulates every segment with
	// weight 1.
	Select []ckpt.WeightedSegment
}

func (o Options) segmentPeriods() int64 {
	if o.SegmentPeriods > 0 {
		return int64(o.SegmentPeriods)
	}
	return DefaultSegmentPeriods
}

func (o Options) warmup() int64 {
	switch {
	case o.WarmupInsts < 0:
		return 0
	case o.WarmupInsts > 0:
		return o.WarmupInsts
	default:
		return o.TimingInsts
	}
}

// CheckpointSeqs is the warm-state checkpoint schedule of this run's
// decomposition: one position at each mid-stream segment's warm-up
// start, so a segment restored from its frame fast-forwards no residue.
func (o Options) CheckpointSeqs() []int64 {
	return ckpt.Positions(o.TotalTiming, o.TimingInsts, o.FunctionalInsts, o.segmentPeriods(), o.warmup())
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic in one segment worker, converted into an error
// carrying the segment's identity and the panicking goroutine's stack.
// The fault stays isolated: the poisoned segment's result slot holds
// this error instead of statistics, so it can never reach the merged
// Run, and the other workers finish their segments normally. The
// robustness layer above (experiments.Runner) treats it as transient
// and retries the whole cell.
type PanicError struct {
	Segment    int   // segment index in stream order
	Start, End int64 // stream bounds [Start, End)
	Value      any   // the recovered panic value
	Stack      []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parsim: panic in segment %d [%d, %d): %v\n%s",
		e.Segment, e.Start, e.End, e.Value, e.Stack)
}

// testSegmentHook, when set (tests only), runs at the start of every
// segment simulation on the claiming worker's goroutine.
var testSegmentHook func(seg int)

// segment is one contiguous stream region [start, end) assigned to a
// worker.
type segment struct {
	start, end int64
}

// segments computes the fixed decomposition of the run: ceil(TotalTiming
// / TimingInsts) sampling periods, grouped SegmentPeriods at a time.
func (o Options) segments() []segment {
	period := o.TimingInsts + o.FunctionalInsts
	nPeriods := (o.TotalTiming + o.TimingInsts - 1) / o.TimingInsts
	perSeg := o.segmentPeriods()
	segs := make([]segment, 0, (nPeriods+perSeg-1)/perSeg)
	for p := int64(0); p < nPeriods; p += perSeg {
		hi := p + perSeg
		if hi > nPeriods {
			hi = nPeriods
		}
		segs = append(segs, segment{start: p * period, end: hi * period})
	}
	return segs
}

// Run executes one sampled simulation of cfg over the recording,
// sharded into segments and merged in stream order. The result is
// deterministic for fixed options: worker count and scheduling change
// only the wall-clock time.
func Run(ctx context.Context, cfg config.Machine, rec emu.ReplaySource, opt Options) (*stats.Run, error) {
	if opt.TotalTiming <= 0 {
		return nil, fmt.Errorf("parsim: invalid timing budget %d", opt.TotalTiming)
	}
	if opt.TimingInsts <= 0 || opt.FunctionalInsts < 0 {
		return nil, fmt.Errorf("parsim: invalid sampling windows %d:%d", opt.TimingInsts, opt.FunctionalInsts)
	}
	if cfg.SplitWindow {
		return nil, fmt.Errorf("parsim: sampling is not supported with a split window")
	}
	segs := opt.segments()
	// Weight of each segment in the merge: 1 everywhere by default, or
	// the phase plan's cluster populations with unselected segments at 0
	// (skipped entirely).
	weights := make([]int64, len(segs))
	if len(opt.Select) == 0 {
		for i := range weights {
			weights[i] = 1
		}
	} else {
		for _, ws := range opt.Select {
			if ws.Index < 0 || ws.Index >= len(segs) {
				return nil, fmt.Errorf("parsim: selected segment %d out of range [0, %d)", ws.Index, len(segs))
			}
			if ws.Weight <= 0 {
				return nil, fmt.Errorf("parsim: segment %d has non-positive weight %d", ws.Index, ws.Weight)
			}
			if weights[ws.Index] != 0 {
				return nil, fmt.Errorf("parsim: segment %d selected twice", ws.Index)
			}
			weights[ws.Index] = ws.Weight
		}
	}
	work := make([]int, 0, len(segs))
	for i := range segs {
		if weights[i] > 0 {
			work = append(work, i)
		}
	}
	// A checkpoint set captured under a different warm configuration
	// would restore the wrong cache/predictor geometry; drop it rather
	// than let it near the results. (Recording identity was verified
	// when the set was opened/built by the caller.)
	if opt.Checkpoints != nil && opt.Checkpoints.WarmHash != ckpt.WarmConfigOf(cfg).Hash() {
		opt.Checkpoints = nil
	}

	results := make([]*stats.Run, len(segs))
	errs := make([]error, len(segs))

	var next atomic.Int64
	worker := func() {
		for {
			n := int(next.Add(1) - 1)
			if n >= len(work) {
				return
			}
			// Claim segments in descending stream order: a segment's
			// functional fast-forward cost grows with its start position,
			// so the expensive late segments go first and the cheap early
			// ones fill the schedule's tail. The claim order changes only
			// wall-clock time — results are merged by segment index.
			i := work[len(work)-1-n]
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = runSegment(ctx, cfg, rec, i, segs[i], opt)
			if w := weights[i]; w > 1 {
				results[i] = stats.Scale(results[i], w)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < opt.workers(); w++ {
		if opt.Sem != nil && !opt.Sem.TryAcquire() {
			break // no spare budget: the remaining segments run inline
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if opt.Sem != nil {
				defer opt.Sem.Release()
			}
			worker()
		}()
	}
	worker() // the calling goroutine is always one worker
	wg.Wait()

	var failures []error
	canceled := false
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			canceled = true
		default:
			failures = append(failures, fmt.Errorf("segment %d [%d, %d): %w", i, segs[i].start, segs[i].end, err))
		}
	}
	if canceled {
		failures = append(failures, ctx.Err())
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	return stats.Merge(results), nil
}

// runSegment simulates one segment on a private pipeline over a fresh
// replay cursor of the shared recording. A panic anywhere in the
// segment's simulation is recovered into a *PanicError naming the
// segment, so one poisoned segment fails its own result slot instead of
// killing the worker pool (and with it the whole sweep).
func runSegment(ctx context.Context, cfg config.Machine, rec emu.ReplaySource, i int, s segment, opt Options) (res *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &PanicError{Segment: i, Start: s.start, End: s.end, Value: v, Stack: debug.Stack()}
		}
	}()
	// No-ops unless armed: the fault-injection passage (mdfault builds)
	// and the test-only segment hook.
	faultinject.Point(faultinject.SiteParsimSegment)
	if testSegmentHook != nil {
		testSegmentHook(i)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // canceled while this worker held the segment
	}
	pl, err := core.New(cfg, rec.NewReplay())
	if err != nil {
		return nil, err
	}
	if cs := opt.Checkpoints; cs != nil {
		target := s.start - opt.warmup()
		if target < 0 {
			target = 0
		}
		if f := cs.Nearest(target); f != nil {
			if restoreErr := pl.RestoreWarm(f.State); restoreErr != nil {
				// A failed restore may have left partial state behind;
				// rebuild the machine and fall back to the full
				// functional fast-forward. Slower, never wrong.
				if pl, err = core.New(cfg, rec.NewReplay()); err != nil {
					return nil, err
				}
			}
		}
	}
	return pl.RunSampledInterval(s.start, s.end, opt.TimingInsts, opt.FunctionalInsts, opt.warmup())
}

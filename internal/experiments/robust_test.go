package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/parsim"
	"mdspec/internal/retry"
	"mdspec/internal/stats"
)

// instantSleep replaces the backoff wait in tests: the schedule is
// still consulted (a canceled context still aborts) but no time passes.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func okRun(bench string, cfg config.Machine) *stats.Run {
	return &stats.Run{Workload: bench, Config: cfg.Name(), Cycles: 2, Committed: 1}
}

// TestRetryTransientThenSuccess: a cell whose first attempts die with a
// transient failure (here a segment panic) is retried within the policy
// budget and succeeds, recording the attempts consumed.
func TestRetryTransientThenSuccess(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Retry: retry.Policy{MaxAttempts: 3}})
	r.sleep = instantSleep
	var calls atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		if calls.Add(1) < 3 {
			return nil, &parsim.PanicError{Segment: 1, Value: "flaky"}
		}
		return okRun(bench, cfg), nil
	}

	var retried atomic.Int64
	r.opt.Hooks.JobRetried = func(bench, cfg string, attempt int, err error) { retried.Add(1) }

	res, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || calls.Load() != 3 {
		t.Fatalf("res=%v after %d sim calls, want success on attempt 3", res, calls.Load())
	}
	if got := r.Counters().JobsRetried; got != 2 {
		t.Errorf("JobsRetried = %d, want 2", got)
	}
	if retried.Load() != 2 {
		t.Errorf("JobRetried hook fired %d times, want 2", retried.Load())
	}
	recs := r.Records()
	if len(recs) != 1 || recs[0].Attempts != 3 || recs[0].Fallback != "" {
		t.Errorf("record = %+v, want Attempts=3 Fallback=\"\"", recs[0])
	}
	if len(r.Abandoned()) != 0 {
		t.Errorf("successful cell listed as abandoned: %v", r.Abandoned())
	}
}

// TestPermanentErrorNotRetried: a plain error (unknown benchmark,
// invalid config — not a panic or deadlock) is permanent; the runner
// must not burn retry attempts on it.
func TestPermanentErrorNotRetried(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Retry: retry.Policy{MaxAttempts: 5}})
	r.sleep = instantSleep
	var calls atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		calls.Add(1)
		return nil, errors.New("permanent: bad input")
	}

	_, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive))
	if err == nil {
		t.Fatal("want error")
	}
	if calls.Load() != 1 {
		t.Errorf("permanent failure simulated %d times, want 1", calls.Load())
	}
	if got := r.Counters().JobsRetried; got != 0 {
		t.Errorf("JobsRetried = %d, want 0", got)
	}
	ab := r.Abandoned()
	if len(ab) != 1 || ab[0].Bench != "126.gcc" || ab[0].Attempts != 1 {
		t.Fatalf("Abandoned() = %+v, want one entry for 126.gcc with 1 attempt", ab)
	}
	if !strings.Contains(ab[0].Error, "permanent: bad input") {
		t.Errorf("abandoned cell error %q should carry the cause", ab[0].Error)
	}
}

// TestPanicBecomesTypedError: a panic inside the simulation surfaces as
// a *RunPanicError carrying the cell's identity and a stack — and is
// classified transient, so it is retried.
func TestPanicBecomesTypedError(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Retry: retry.Policy{MaxAttempts: 2}})
	r.sleep = instantSleep
	var calls atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		calls.Add(1)
		panic("simulator bug")
	}

	_, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Sync))
	if err == nil {
		t.Fatal("want error")
	}
	var pe *RunPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *RunPanicError", err)
	}
	if pe.Bench != "126.gcc" || pe.Config != "NAS/SYNC" || pe.Value != "simulator bug" || len(pe.Stack) == 0 {
		t.Errorf("RunPanicError = %+v, want identity + value + stack", pe)
	}
	if calls.Load() != 2 {
		t.Errorf("panicking cell attempted %d times, want MaxAttempts=2", calls.Load())
	}
}

// TestDeadlockErrorNotRetried: a watchdog deadlock report is
// deterministic (a replay of a read-only recording on a private
// pipeline deadlocks again), so it is never retried. A full-timing cell
// fails after one attempt; a sampled cell goes straight to the
// serial-segments fallback.
func TestDeadlockErrorNotRetried(t *testing.T) {
	deadlocked := func(cfg config.Machine) error {
		return &core.DeadlockError{Config: cfg.Name(), Phase: "run", Cycles: 999}
	}
	for _, sampled := range []bool{false, true} {
		t.Run(fmt.Sprintf("sampled=%v", sampled), func(t *testing.T) {
			var hooked atomic.Int64
			opt := Options{Insts: 1000, Sampled: sampled, Retry: retry.Policy{MaxAttempts: 3}}
			opt.Hooks.JobRetried = func(string, string, int, error) { hooked.Add(1) }
			r := NewRunner(opt)
			r.sleep = instantSleep
			var calls, serialCalls atomic.Int64
			r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
				calls.Add(1)
				return nil, deadlocked(cfg)
			}
			r.simSerial = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
				serialCalls.Add(1)
				return okRun(bench, cfg), nil
			}

			_, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive))
			if calls.Load() != 1 {
				t.Errorf("deadlocked cell attempted %d times, want 1", calls.Load())
			}
			if c := r.Counters(); c.JobsRetried != 0 {
				t.Errorf("jobs_retried = %d, want 0", c.JobsRetried)
			}
			if hooked.Load() != 0 {
				t.Errorf("JobRetried fired %d times, want never", hooked.Load())
			}
			if !sampled {
				var dl *core.DeadlockError
				if !errors.As(err, &dl) {
					t.Fatalf("err = %v, want the *core.DeadlockError", err)
				}
				if ab := r.Abandoned(); len(ab) != 1 || ab[0].Attempts != 1 {
					t.Errorf("Abandoned() = %+v, want one entry with 1 attempt", ab)
				}
				if serialCalls.Load() != 0 {
					t.Errorf("full-timing cell ran the sampled fallback %d times", serialCalls.Load())
				}
				return
			}
			if err != nil {
				t.Fatalf("fallback should rescue the sampled cell: %v", err)
			}
			if serialCalls.Load() != 1 {
				t.Errorf("serial fallback ran %d times, want 1", serialCalls.Load())
			}
			if recs := r.Records(); len(recs) != 1 || recs[0].Attempts != 2 || recs[0].Fallback != FallbackSerialSegments {
				t.Errorf("records = %+v, want one with Attempts=2 and Fallback=%q", recs, FallbackSerialSegments)
			}
		})
	}
}

// TestExhaustedRetriesAbandonCell: when every attempt fails transiently
// and the cell is not sampled (no fallback applies), it lands in the
// partial-results envelope — and the rest of the sweep still completes.
func TestExhaustedRetriesAbandonCell(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Retry: retry.Policy{MaxAttempts: 2}})
	r.sleep = instantSleep
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		if bench == "126.gcc" {
			return nil, &parsim.PanicError{Segment: 0, Value: "always broken"}
		}
		return okRun(bench, cfg), nil
	}

	res, err := r.runAll(bg, []job{
		{"126.gcc", nas(config.Naive)},
		{"102.swim", nas(config.Naive)},
	})
	if err == nil {
		t.Fatal("sweep with an abandoned cell should report the failure")
	}
	if res[0] != nil || res[1] == nil {
		t.Errorf("runAll stats = %v, want nil for the abandoned cell and the healthy cell's run", res)
	}

	ab := r.Abandoned()
	if len(ab) != 1 || ab[0].Bench != "126.gcc" || ab[0].Attempts != 2 {
		t.Fatalf("Abandoned() = %+v, want one 126.gcc entry with 2 attempts", ab)
	}
	// The healthy cell finished despite its neighbor's abandonment.
	recs := r.Records()
	if len(recs) != 1 || recs[0].Bench != "102.swim" {
		t.Fatalf("Records() = %+v, want the healthy 102.swim cell", recs)
	}

	rs := NewResults("test", r.Options())
	rs.Attach(r)
	if !rs.Partial || len(rs.Abandoned) != 1 {
		t.Errorf("envelope Partial=%v Abandoned=%v, want partial with the abandoned cell", rs.Partial, rs.Abandoned)
	}
}

// TestSampledFallbackSerial: a sampled cell whose interval-parallel
// attempts keep failing gets one last attempt on the serial-segments
// backend; the run record carries the fallback marker.
func TestSampledFallbackSerial(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Sampled: true, Retry: retry.Policy{MaxAttempts: 2}})
	r.sleep = instantSleep
	var parallelCalls, serialCalls atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		parallelCalls.Add(1)
		return nil, &parsim.PanicError{Segment: 3, Value: "engine fault"}
	}
	r.simSerial = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		serialCalls.Add(1)
		return okRun(bench, cfg), nil
	}

	res, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive))
	if err != nil {
		t.Fatalf("fallback should rescue the cell: %v", err)
	}
	if res == nil || parallelCalls.Load() != 2 || serialCalls.Load() != 1 {
		t.Fatalf("parallel=%d serial=%d, want 2 failed parallel attempts then 1 serial", parallelCalls.Load(), serialCalls.Load())
	}
	recs := r.Records()
	if len(recs) != 1 || recs[0].Fallback != FallbackSerialSegments || recs[0].Attempts != 3 {
		t.Errorf("record = %+v, want Fallback=%q Attempts=3", recs[0], FallbackSerialSegments)
	}
	if len(r.Abandoned()) != 0 {
		t.Errorf("rescued cell listed as abandoned: %v", r.Abandoned())
	}
}

// TestSampledFallbackAlsoFails: when the serial fallback fails too, the
// error names both causes and the cell is abandoned.
func TestSampledFallbackAlsoFails(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Sampled: true, Retry: retry.Policy{MaxAttempts: 1}})
	r.sleep = instantSleep
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return nil, &parsim.PanicError{Segment: 0, Value: "engine fault"}
	}
	r.simSerial = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return nil, errors.New("serial fault")
	}

	_, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive))
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "serial-segments fallback also failed") {
		t.Errorf("error should name the fallback failure: %v", err)
	}
	ab := r.Abandoned()
	if len(ab) != 1 || ab[0].Attempts != 2 {
		t.Fatalf("Abandoned() = %+v, want one entry with 2 attempts (1 parallel + 1 serial)", ab)
	}
}

// TestSampledFallbackCanceled: a sweep canceled while a cell runs its
// fallback leaves the cell unfinished, not abandoned.
func TestSampledFallbackCanceled(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Sampled: true, Retry: retry.Policy{MaxAttempts: 1}})
	r.sleep = instantSleep
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return nil, &parsim.PanicError{Segment: 0, Value: "engine fault"}
	}
	r.simSerial = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		cancel()
		return nil, ctx.Err()
	}

	if _, _, err := r.RunWithSource(ctx, "126.gcc", nas(config.Naive)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ab := r.Abandoned(); len(ab) != 0 {
		t.Errorf("canceled cell listed as abandoned: %v", ab)
	}
}

// TestSampledFallbackEqualsPrimary: the degraded attempt runs the
// primary's estimator — the same segments, one after another and
// without checkpoints — so a sampled cell has one value whether or not
// its parallel attempts failed.
func TestSampledFallbackEqualsPrimary(t *testing.T) {
	const bench = "129.compress"
	cfg := nas(config.Naive)
	opt := ckptOpt()
	opt.Retry = retry.Policy{MaxAttempts: 2}
	want, _, err := NewRunner(opt).RunWithSource(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(opt)
	r.sleep = instantSleep
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return nil, &parsim.PanicError{Segment: 1, Value: "engine fault"}
	}
	got, _, err := r.RunWithSource(bg, bench, cfg)
	if err != nil {
		t.Fatalf("fallback should rescue the cell: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("degraded stats differ from a clean runner's:\nwant %+v\ngot  %+v", want, got)
	}
	if recs := r.Records(); len(recs) != 1 || recs[0].Fallback != FallbackSerialSegments {
		t.Errorf("records = %+v, want one marked %q", recs, FallbackSerialSegments)
	}
}

// TestRetryBackoffHonorsCancellation: a context canceled during the
// backoff wait aborts the retry loop immediately with the context
// error, not another simulation attempt.
func TestRetryBackoffHonorsCancellation(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Retry: retry.Policy{MaxAttempts: 5, BaseDelay: time.Hour}})
	ctx, cancel := context.WithCancel(bg)
	var calls atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		calls.Add(1)
		cancel() // fail and cancel: the backoff sleep must abort
		return nil, &parsim.PanicError{Segment: 0, Value: "flaky"}
	}

	_, _, err := r.RunWithSource(ctx, "126.gcc", nas(config.Naive))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 1 {
		t.Errorf("canceled cell attempted %d times, want 1", calls.Load())
	}
	// Cancellation is not abandonment: the cell is simply unfinished.
	if len(r.Abandoned()) != 0 {
		t.Errorf("canceled cell listed as abandoned: %v", r.Abandoned())
	}
}

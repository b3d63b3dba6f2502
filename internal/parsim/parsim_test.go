package parsim

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

var bg = context.Background()

func recordingOf(t testing.TB, bench string) *emu.Recording {
	t.Helper()
	rec := emu.NewRecording(emu.New(workload.MustBuild(bench)))
	rec.Record(1 << 18)
	return rec
}

// TestBitIdenticalAcrossWorkerCounts is the determinism contract: with
// the decomposition fixed by the options, the worker count (and with it
// the scheduling order, or with one worker the in-order walk behind one
// warmer) must not change a single counter of the merged result.
func TestBitIdenticalAcrossWorkerCounts(t *testing.T) {
	rec := recordingOf(t, "129.compress")
	cfg := config.Default128().WithPolicy(config.Sync)
	opt := Options{TotalTiming: 24_000, TimingInsts: 3_000, FunctionalInsts: 6_000, SegmentPeriods: 2}

	var base *reflect.Value
	for _, workers := range []int{1, 2, 8} {
		opt.Workers = workers
		res, err := Run(bg, cfg, rec, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Committed < opt.TotalTiming {
			t.Fatalf("workers=%d: committed %d < budget %d", workers, res.Committed, opt.TotalTiming)
		}
		v := reflect.ValueOf(*res)
		if base == nil {
			base = &v
			continue
		}
		if !reflect.DeepEqual(base.Interface(), v.Interface()) {
			t.Errorf("workers=%d: result differs from workers=1:\n  1: %+v\n  %d: %+v",
				workers, base.Interface(), workers, v.Interface())
		}
	}
}

// TestSchedulingOrderIndependent re-runs the same decomposition several
// times at high worker counts; any dependence on which worker claims
// which segment would show up as run-to-run drift.
func TestSchedulingOrderIndependent(t *testing.T) {
	rec := recordingOf(t, "102.swim")
	cfg := config.Default128().WithPolicy(config.Naive)
	opt := Options{TotalTiming: 18_000, TimingInsts: 2_000, FunctionalInsts: 4_000, SegmentPeriods: 1, Workers: 8}
	first, err := Run(bg, cfg, rec, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(bg, cfg, rec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*first, *again) {
			t.Fatalf("run %d differs:\nfirst: %+v\nagain: %+v", i, *first, *again)
		}
	}
}

// TestFiniteProgramCovered: a budget far larger than the program must
// cover every instruction exactly once across all segments (committed
// in timing mode or skipped functionally) and stop cleanly.
func TestFiniteProgramCovered(t *testing.T) {
	p := workload.KernelRecurrence(500)
	// Measure the program's dynamic length with a plain full run.
	pl, err := core.New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	if err != nil {
		t.Fatal(err)
	}
	full, err := pl.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}

	rec := emu.NewRecording(emu.New(p))
	rec.Record(1 << 30)
	var first *stats.Run
	for _, workers := range []int{4, 1} {
		res, err := Run(bg, config.Default128().WithPolicy(config.Naive), rec, Options{
			TotalTiming: 1 << 20, TimingInsts: 1_000, FunctionalInsts: 500, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Committed + res.Skipped; got != full.Committed {
			t.Errorf("workers=%d: run covered %d instructions (committed %d + skipped %d), program has %d",
				workers, got, res.Committed, res.Skipped, full.Committed)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Errorf("workers=%d: result differs from workers=4:\n  4: %+v\n  %d: %+v", workers, first, workers, res)
		}
	}
}

// TestCanceledContext: a pre-canceled context must fail fast with the
// context error rather than simulate.
func TestCanceledContext(t *testing.T) {
	rec := recordingOf(t, "129.compress")
	ctx, cancel := context.WithCancel(bg)
	cancel()
	_, err := Run(ctx, config.Default128(), rec, Options{
		TotalTiming: 10_000, TimingInsts: 1_000, FunctionalInsts: 2_000,
	})
	if err == nil {
		t.Fatal("want context error, got nil")
	}
}

// TestRejectsBadOptions mirrors the serial entry point's validation.
func TestRejectsBadOptions(t *testing.T) {
	rec := recordingOf(t, "129.compress")
	if _, err := Run(bg, config.Default128(), rec, Options{TotalTiming: 0, TimingInsts: 1}); err == nil {
		t.Error("zero budget should error")
	}
	if _, err := Run(bg, config.Default128(), rec, Options{TotalTiming: 100, TimingInsts: 0}); err == nil {
		t.Error("zero timing window should error")
	}
	split := config.Default128().WithPolicy(config.Naive).WithSplitWindow(4)
	if _, err := Run(bg, split, rec, Options{TotalTiming: 100, TimingInsts: 10, FunctionalInsts: 10}); err == nil {
		t.Error("split-window sampling should error")
	}
}

// TestSharedSemaphoreBudget: with a fully-contended shared semaphore,
// Run must still make progress on the calling goroutine alone and
// return the same result (the budget throttles, never changes, the
// outcome).
func TestSharedSemaphoreBudget(t *testing.T) {
	rec := recordingOf(t, "129.compress")
	cfg := config.Default128().WithPolicy(config.Naive)
	opt := Options{TotalTiming: 12_000, TimingInsts: 2_000, FunctionalInsts: 4_000, SegmentPeriods: 1, Workers: 8}

	free, err := Run(bg, cfg, rec, opt)
	if err != nil {
		t.Fatal(err)
	}

	sem := NewSem(1)
	if err := sem.Acquire(bg); err != nil { // the "job" holds the only token
		t.Fatal(err)
	}
	opt.Sem = sem
	throttled, err := Run(bg, cfg, rec, opt)
	sem.Release()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*free, *throttled) {
		t.Errorf("semaphore throttling changed the result:\nfree: %+v\nthrottled: %+v", *free, *throttled)
	}
}

// TestCalibrationAgainstSerialSampled holds the interval-parallel
// engine's IPC within 2% of the serial sampled methodology — the whole
// stream as one RunSampledInterval — per benchmark at the same
// instruction budget and window sizes: the segments' functional warm-up
// approximates the serial run's accumulated detailed state, so the two
// must agree closely on phase-free workloads.
func TestCalibrationAgainstSerialSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	const total, tw, fw = 24_000, 3_000, 6_000
	cfg := config.Default128().WithPolicy(config.Sync)
	for _, bench := range workload.Names() {
		rec := recordingOf(t, bench)
		serialPl, err := core.New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatal(err)
		}
		serial, err := serialPl.RunSampledInterval(0, (total+tw-1)/tw*(tw+fw), tw, fw, 0)
		if err != nil {
			t.Fatalf("%s serial: %v", bench, err)
		}
		par, err := Run(bg, cfg, rec, Options{
			TotalTiming: total, TimingInsts: tw, FunctionalInsts: fw, SegmentPeriods: 2, Workers: 4,
		})
		if err != nil {
			t.Fatalf("%s parallel: %v", bench, err)
		}
		if dev := math.Abs(par.IPC()/serial.IPC() - 1); dev > 0.02 {
			t.Errorf("%s: parallel IPC %.4f vs serial %.4f (%.2f%% off, want <= 2%%)",
				bench, par.IPC(), serial.IPC(), 100*dev)
		}
	}
}

// countingStream counts the instructions a cursor decodes: every read
// of another position than the one it read last.
type countingStream struct {
	emu.Stream
	n    *atomic.Int64
	last int64
}

func (c *countingStream) At(seq int64) *emu.DynInst {
	if seq != c.last {
		c.n.Add(1)
		c.last = seq
	}
	return c.Stream.At(seq)
}

// TestInOrderReadsStreamAboutTwice: one worker without checkpoints (the
// runner's degraded attempt) walks the segments in stream order behind
// one functional warmer. The warmer reads the stream once and each
// segment its own region, plus what timing mode re-reads after a
// squash: 2.5 times the stream here, where fast-forwarding every
// segment from position 0 read 6.9 times it.
func TestInOrderReadsStreamAboutTwice(t *testing.T) {
	var reads atomic.Int64
	testStreamHook = func(s emu.Stream) emu.Stream { return &countingStream{Stream: s, n: &reads, last: -1} }
	defer func() { testStreamHook = nil }()

	rec := recordingOf(t, "129.compress")
	opt := Options{TotalTiming: 48_000, TimingInsts: 2_000, FunctionalInsts: 4_000, SegmentPeriods: 2, Workers: 1}
	if _, err := Run(bg, config.Default128().WithPolicy(config.Naive), rec, opt); err != nil {
		t.Fatal(err)
	}
	segs := opt.segments()
	stream := segs[len(segs)-1].end
	if n := reads.Load(); n > 3*stream {
		t.Errorf("%d segments read %d instructions of a %d-instruction stream, want at most 3 times the stream", len(segs), n, stream)
	}
}

package core

import (
	"reflect"
	"runtime"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// runSampled is the paper's sampled methodology (§3.1) run serially,
// the whole stream as one RunSampledInterval: ceil(totalTiming /
// timingInsts) sampling periods from position 0 with no detailed
// warm-up, committing at least totalTiming instructions in timing mode
// unless the trace ends first.
func runSampled(p *Pipeline, totalTiming, timingInsts, functionalInsts int64) (*stats.Run, error) {
	if err := p.checkSampled(timingInsts, functionalInsts); err != nil {
		return nil, err
	}
	nPeriods := (totalTiming + timingInsts - 1) / timingInsts
	return p.RunSampledInterval(0, nPeriods*(timingInsts+functionalInsts), timingInsts, functionalInsts, 0)
}

func TestSampledRunProgresses(t *testing.T) {
	p := workload.MustBuild("129.compress")
	pl, err := New(config.Default128().WithPolicy(config.Sync), emu.NewTrace(emu.New(p)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runSampled(pl, 40_000, 5_000, 10_000) // the paper's 1:2 ratio
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < 40_000 {
		t.Fatalf("committed %d, want >= 40000", r.Committed)
	}
	if r.Skipped == 0 {
		t.Fatal("sampled run should have skipped instructions functionally")
	}
	// 7 functional windows of 10k (one after each full timing window).
	if r.Skipped < 50_000 || r.Skipped > 80_000 {
		t.Errorf("skipped = %d, want about 70k", r.Skipped)
	}
	if r.IPC() <= 0 || r.IPC() > 8 {
		t.Errorf("implausible sampled IPC %.3f", r.IPC())
	}
}

func TestSampledCloseToFullTiming(t *testing.T) {
	// The paper found sampling changes results by <= ~3%. Our workloads
	// are phase-free, so sampled and full IPC should agree loosely.
	p := workload.MustBuild("102.swim")
	full, err := New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := full.Run(60_000)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := runSampled(sampled, 30_000, 10_000, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sr.IPC() / fr.IPC()
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("sampled IPC %.3f vs full %.3f (ratio %.3f): sampling distorts too much",
			sr.IPC(), fr.IPC(), ratio)
	}
}

func TestSampledRejectsBadArgs(t *testing.T) {
	p := workload.KernelStream(0)
	pl, _ := New(config.Default128(), emu.NewTrace(emu.New(p)))
	if _, err := runSampled(pl, 1000, 0, 10); err == nil {
		t.Error("zero timing window should error")
	}
	pl2, _ := New(config.Default128().WithPolicy(config.Naive).WithSplitWindow(4), emu.NewTrace(emu.New(p)))
	if _, err := runSampled(pl2, 1000, 100, 100); err == nil {
		t.Error("split-window sampling should error")
	}
}

func TestSampledFiniteProgramEnds(t *testing.T) {
	p := workload.KernelRecurrence(500)
	pl, _ := New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	r, err := runSampled(pl, 1<<20, 1_000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed+r.Skipped < 3000 {
		t.Errorf("run should cover the whole program: committed %d + skipped %d", r.Committed, r.Skipped)
	}
}

// TestSampledRunDeterministic: two sampled runs of the same benchmark
// under the same configuration must agree on every counter — the
// simulator has no hidden nondeterminism for sampling to amplify.
func TestSampledRunDeterministic(t *testing.T) {
	run := func() stats.Run {
		p := workload.MustBuild("099.go")
		pl, err := New(config.Default128().WithPolicy(config.Sync), emu.NewTrace(emu.New(p)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := runSampled(pl, 24_000, 3_000, 6_000)
		if err != nil {
			t.Fatal(err)
		}
		return *r
	}
	first, again := run(), run()
	if !reflect.DeepEqual(first, again) {
		t.Errorf("sampled runs differ:\nfirst: %+v\nagain: %+v", first, again)
	}
}

// TestSampledTraceEndsMidFunctionalWindow: when the program runs out in
// the middle of a functional window, the run must re-anchor cleanly at
// the trace end and cover every instruction exactly once rather than
// stall or overrun.
func TestSampledTraceEndsMidFunctionalWindow(t *testing.T) {
	p := workload.KernelRecurrence(500)
	full, _ := New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	fr, err := full.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	length := fr.Committed

	// One timing window, then a functional window longer than the rest of
	// the program: the trace necessarily ends inside the functional skip.
	pl, _ := New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	r, err := runSampled(pl, 2*length, 1_000, 2*length)
	if err != nil {
		t.Fatal(err)
	}
	if r.Skipped == 0 {
		t.Fatal("functional window should have skipped instructions")
	}
	if got := r.Committed + r.Skipped; got != length {
		t.Errorf("covered %d instructions (committed %d + skipped %d), program has %d",
			got, r.Committed, r.Skipped, length)
	}
}

// TestSampledBudgetExceedsProgram: a timing budget larger than the whole
// program degenerates to a full timing run — everything commits in
// timing mode, nothing is skipped.
func TestSampledBudgetExceedsProgram(t *testing.T) {
	p := workload.KernelRecurrence(200)
	full, _ := New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	fr, err := full.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}

	pl, _ := New(config.Default128().WithPolicy(config.Naive), emu.NewTrace(emu.New(p)))
	r, err := runSampled(pl, 1<<20, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Skipped != 0 {
		t.Errorf("oversized timing window skipped %d instructions", r.Skipped)
	}
	if r.Committed != fr.Committed {
		t.Errorf("committed %d, full run committed %d", r.Committed, fr.Committed)
	}
}

// TestSampledIntervalWarmupClamped: a warm-up longer than the stream
// before the segment start is clamped, so segment 0 with any warm-up
// equals segment 0 with none.
func TestSampledIntervalWarmupClamped(t *testing.T) {
	run := func(warmup int64) stats.Run {
		p := workload.MustBuild("129.compress")
		pl, err := New(config.Default128().WithPolicy(config.Sync), emu.NewTrace(emu.New(p)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := pl.RunSampledInterval(0, 18_000, 3_000, 6_000, warmup)
		if err != nil {
			t.Fatal(err)
		}
		return *r
	}
	none, clamped := run(0), run(5_000)
	if !reflect.DeepEqual(none, clamped) {
		t.Errorf("warm-up at stream start changed the result:\nnone: %+v\nclamped: %+v", none, clamped)
	}
}

// The *stats.Run that Run and RunSampledInterval return must not point
// into the Pipeline: the experiment runner's memo keeps one result per
// simulated cell, and a result aliasing p.res would keep every cell's
// whole Pipeline (window, caches, predictors) reachable.
func TestRunResultDoesNotRetainPipeline(t *testing.T) {
	const cells = 6
	prog := workload.MustBuild("126.gcc")
	for _, tc := range []struct {
		name string
		run  func(p *Pipeline) (*stats.Run, error)
	}{
		{"Run", func(p *Pipeline) (*stats.Run, error) { return p.Run(2000) }},
		{"RunSampled", func(p *Pipeline) (*stats.Run, error) { return runSampled(p, 2000, 500, 1000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			kept := make([]*stats.Run, 0, cells)
			for i := 0; i < cells; i++ {
				pl, err := New(config.Default128(), emu.NewTrace(emu.New(prog)))
				if err != nil {
					t.Fatal(err)
				}
				r, err := tc.run(pl)
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, r)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perCell := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / cells
			if perCell > 64<<10 {
				t.Errorf("each kept result retains %d KiB of heap; want a detached copy (< 64 KiB)", perCell>>10)
			}
			runtime.KeepAlive(kept)
		})
	}
}

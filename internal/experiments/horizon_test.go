package experiments

import (
	"context"
	"reflect"
	"testing"

	"mdspec/internal/cache"
	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// horizonConfigs are validated machines at the configuration caps: a
// window of config.MaxWindow, widths of at least the window, and the
// mechanisms that change how far fetch and commit run (split window,
// the address scheduler, ORACLE, selective recovery, wrong-path fetch).
func horizonConfigs(t *testing.T) []config.Machine {
	wide := config.Default128()
	wide.Window = config.MaxWindow
	wide.FetchWidth = 4 * config.MaxWindow
	wide.IssueWidth = 4 * config.MaxWindow
	wide.CommitWidth = 4 * config.MaxWindow
	wide.BranchesPerCycle = config.MaxWindow
	wide.IntALUs, wide.IntMulDivs, wide.FPUnits = 64, 64, 64
	// Ports stop at the D-cache's banks, the most Validate accepts: a
	// port beyond them adds only a bank queue. At that cap NAV runs here
	// with and without wrong-path fetch.
	wide.MemPorts = cache.DCacheBanks
	wrongPath := wide.WithPolicy(config.Naive)
	wrongPath.WrongPathFetch = true
	cfgs := []config.Machine{
		config.Default128().WithPolicy(config.Naive),
		wide,
		wide.WithPolicy(config.Naive),
		wide.WithPolicy(config.Oracle),
		wide.WithPolicy(config.Sync),
		wide.WithPolicy(config.Naive).WithRecovery(config.RecoverySelective),
		wide.WithPolicy(config.Naive).WithAddressScheduler(2),
		wide.WithPolicy(config.Naive).WithAddressScheduler(2).WithSplitWindow(4),
		wrongPath,
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
	return cfgs
}

// TestCaptureHorizonCoversEveryReplay holds captureHorizon, and with it
// core.ReadAhead, to every replay a cell makes. Each budget's horizon
// is a multiple of the recording chunk (4,096 instructions), so both
// the uncached runner's capture and the recording file are sealed
// exactly at the horizon, and a read one instruction past it panics.
// Full timing and sampled runs (with a functional window shorter than
// the bound) over machines at the caps must finish with no panic, retry
// or abandoned cell, in memory and over the file, with equal stats.
func TestCaptureHorizonCoversEveryReplay(t *testing.T) {
	benches := []string{"126.gcc", "145.fpppp"}
	cfgs := horizonConfigs(t)
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"full", Options{Insts: 8_192}},
		{"sampled", Options{Insts: 4_000, Sampled: true, TimingWindow: 1_000, FunctionalWindow: 3_096, SegmentPeriods: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			h := mode.opt.captureHorizon()
			if h%4096 != 0 {
				t.Fatalf("horizon %d is not a multiple of the 4,096-instruction chunk", h)
			}
			run := func(opt Options) (map[string]*stats.Run, *Runner) {
				r := NewRunner(opt)
				out := make(map[string]*stats.Run)
				for _, b := range benches {
					for _, c := range cfgs {
						res, _, err := r.RunWithSource(context.Background(), b, c)
						if err != nil {
							t.Fatalf("%s %s: %v", b, c.Name(), err)
						}
						out[b+" "+c.Name()] = res
					}
				}
				return out, r
			}
			// check requires every cell of r to have run once, with no
			// panic, and each benchmark's recording to be sealed at the
			// horizon, mapped from its file or captured in memory.
			check := func(r *Runner, mapped bool) {
				t.Helper()
				if c := r.Counters(); c.JobsRetried != 0 || c.JobsFailed != 0 {
					t.Errorf("mapped %v: retried %d and failed %d cells", mapped, c.JobsRetried, c.JobsFailed)
				}
				if ab := r.Abandoned(); len(ab) != 0 {
					t.Errorf("mapped %v: abandoned %+v", mapped, ab)
				}
				for _, b := range benches {
					rec, err := r.recording(bg, b)
					if err != nil {
						t.Fatal(err)
					}
					if rec.Mmapped() != mapped || !rec.Prefix() || rec.Len() != h {
						t.Errorf("%s: recording of %d instructions (prefix %v, mapped %v), want a prefix sealed at the horizon %d (mapped %v)",
							b, rec.Len(), rec.Prefix(), rec.Mmapped(), h, mapped)
					}
				}
			}
			want, mem := run(mode.opt)
			check(mem, false)
			mem.Close()

			opt := mode.opt
			opt.RecordingDir = t.TempDir()
			got, r := run(opt)
			defer r.Close()
			check(r, true)
			if !reflect.DeepEqual(got, want) {
				t.Error("stats over sealed recording files differ from captured recordings'")
			}
		})
	}
}

package experiments

import (
	"context"
	"reflect"
	"testing"

	"mdspec/internal/cache"
	"mdspec/internal/config"
	"mdspec/internal/emu"
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
// is a multiple of the recording chunk (4,096 instructions), so the
// file is sealed exactly at the horizon and a read one instruction past
// it panics. Full timing and sampled runs (with a functional window
// shorter than the bound) over machines at the caps must finish with
// no panic, retry or abandoned cell, and equal an uncached runner.
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
			want, live := run(mode.opt)
			live.Close()

			opt := mode.opt
			opt.RecordingDir = t.TempDir()
			got, r := run(opt)
			defer r.Close()
			if c := r.Counters(); c.JobsRetried != 0 || c.JobsFailed != 0 {
				t.Errorf("retried %d and failed %d cells over sealed recordings", c.JobsRetried, c.JobsFailed)
			}
			if ab := r.Abandoned(); len(ab) != 0 {
				t.Errorf("abandoned %+v", ab)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("stats over sealed recordings differ from an uncached runner's")
			}
			for _, b := range benches {
				src, err := r.recording(b)
				if err != nil {
					t.Fatal(err)
				}
				f, ok := src.(*emu.FileRecording)
				if !ok {
					t.Fatalf("%s: replayed from %T, want the recording file", b, src)
				}
				if !f.Prefix() || f.Len() != h {
					t.Errorf("%s: file holds %d instructions (prefix %v), want a prefix sealed at the horizon %d", b, f.Len(), f.Prefix(), h)
				}
			}
		})
	}
}

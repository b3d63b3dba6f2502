package core

import (
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/workload"
)

// FuzzValidatedConfigRuns pins the contract of config.Machine.Validate:
// a machine it accepts simulates. New and a short Run must neither
// panic nor end in the watchdog's *DeadlockError. The seeds include
// configurations an earlier Validate let through that the core could
// not run.
func FuzzValidatedConfigRuns(f *testing.F) {
	type seed struct {
		window, issue, branches, ports int
		as                             bool
		latency, policy                int
		entries, assoc, units          int
		frontEnd, squash, lsq          int
	}
	const fe, so = 4, 6 // Default128's front-end depth and squash overhead
	for _, s := range []seed{
		{128, 8, 4, 4, false, 0, int(config.NoSpec), 4096, 2, 0, fe, so, 0},
		{128, 8, 4, 4, true, 1, int(config.Naive), 4096, 2, 4, fe, so, 0},
		{100, 3, 1, 1, false, 0, int(config.StoreSets), 64, 4, 4, fe, so, 0},
		{1, 1, 1, 1, true, config.MaxSchedulerLatency, int(config.NoSpec), 1, 1, 0, fe, so, 0}, // slowest machine at the caps
		{2, 1, 1, 1, true, config.MaxSchedulerLatency, int(config.NoSpec), 1, 1, 2, fe, so, 0},
		{128, 8, 4, 4, false, 0, int(config.Naive), 4096, 2, 0, config.MaxFrontEndDepth, config.MaxSquashOverhead, config.MaxWindow},
		{1, 1, 1, 1, true, config.MaxSchedulerLatency, int(config.Naive), 1, 1, 0, config.MaxFrontEndDepth, config.MaxSquashOverhead, 1},
		{128, 0, 4, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},       // no issue slots
		{128, 8, 4, 4, false, 0, int(config.Sync), 4096, 0, 0, fe, so, 0},        // zero ways: divides by zero
		{128, 8, 4, 4, false, 0, int(config.Selective), 1, 2, 0, fe, so, 0},      // zero sets: index out of range
		{128, 8, 0, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},       // fetch stops at the first branch
		{128, 8, 4, 4, true, 1 << 20, int(config.Naive), 4096, 2, 0, fe, so, 0},  // loads wait past the watchdog
		{128, 8, 4, 4, false, 0, int(config.NoSpec), 4096, 2, 0, 1 << 40, so, 0}, // nothing reaches dispatch
		{128, 8, 4, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, 1 << 40, 0},  // fetch never resumes after a squash
		{128, 8, 4, 4, false, 0, int(config.NoSpec), 4096, 2, 2, fe, so, 16},     // younger split tasks fill the LSQ
		{config.MaxWindow, 64, 4, 4, true, 0, int(config.Naive), 4096, 2, config.MaxSplitUnits, fe, so, 0},
	} {
		f.Add(s.window, s.issue, s.branches, s.ports, s.as, s.latency, s.policy, s.entries, s.assoc, s.units, s.frontEnd, s.squash, s.lsq)
	}
	rec := emu.NewRecording(emu.New(workload.MustBuild("126.gcc")))
	f.Fuzz(func(t *testing.T, window, issue, branches, ports int, as bool, latency, policy, entries, assoc, units, frontEnd, squash, lsq int) {
		cfg := config.Default128()
		cfg.Window, cfg.IssueWidth, cfg.BranchesPerCycle, cfg.MemPorts = window, issue, branches, ports
		cfg.UseAddressScheduler, cfg.SchedulerLatency = as, latency
		cfg.Policy = config.Policy(policy)
		cfg.PredictorTable.Entries, cfg.PredictorTable.Assoc = entries, assoc
		cfg.FrontEndDepth, cfg.SquashOverhead, cfg.LSQSize = frontEnd, squash, lsq
		if units != 0 {
			cfg = cfg.WithSplitWindow(units)
		}
		if cfg.Validate() != nil {
			return
		}
		pl, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatalf("New rejects a validated config %+v: %v", cfg, err)
		}
		if _, err := pl.Run(2_000); err != nil {
			t.Fatalf("validated config %+v does not run: %v", cfg, err)
		}
	})
}

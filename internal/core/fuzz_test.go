package core

import (
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/workload"
)

// fuzzBudget is the instructions each fuzzed machine runs: the budget
// at which a machine at the caps with more ports than banks tripped.
const fuzzBudget = 8_192

// FuzzValidatedConfigRuns pins the contract of config.Machine.Validate:
// a machine it accepts simulates. New and a Run of fuzzBudget
// instructions of 126.gcc or 145.fpppp must neither panic nor end in
// the watchdog's *DeadlockError. The seeds include configurations an
// earlier Validate let through that the core could not run, and the
// machines at the caps, where more memory ports than D-cache banks
// once collapsed NAS/NAV with squash recovery to IPC 0.02.
func FuzzValidatedConfigRuns(f *testing.F) {
	type seed struct {
		fp                                            bool // 145.fpppp instead of 126.gcc
		window, fetch, issue, commit, branches, ports int
		as                                            bool
		latency, policy                               int
		entries, assoc, units                         int
		frontEnd, squash, lsq                         int
	}
	const fe, so = 4, 6 // Default128's front-end depth and squash overhead
	const w, capW = 8, config.MaxWindow
	for _, s := range []seed{
		{false, 128, w, 8, w, 4, 4, false, 0, int(config.NoSpec), 4096, 2, 0, fe, so, 0},
		{false, 128, w, 8, w, 4, 4, true, 1, int(config.Naive), 4096, 2, 4, fe, so, 0},
		{false, 100, w, 3, w, 1, 1, false, 0, int(config.StoreSets), 64, 4, 4, fe, so, 0},
		{false, 1, w, 1, w, 1, 1, true, config.MaxSchedulerLatency, int(config.NoSpec), 1, 1, 0, fe, so, 0}, // slowest machine at the caps
		{false, 2, w, 1, w, 1, 1, true, config.MaxSchedulerLatency, int(config.NoSpec), 1, 1, 2, fe, so, 0},
		{false, 128, w, 8, w, 4, 4, false, 0, int(config.Naive), 4096, 2, 0, config.MaxFrontEndDepth, config.MaxSquashOverhead, config.MaxWindow},
		{false, 1, w, 1, w, 1, 1, true, config.MaxSchedulerLatency, int(config.Naive), 1, 1, 0, config.MaxFrontEndDepth, config.MaxSquashOverhead, 1},
		{false, 128, w, 0, w, 4, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},       // no issue slots
		{false, 128, w, 8, w, 4, 4, false, 0, int(config.Sync), 4096, 0, 0, fe, so, 0},        // zero ways: divides by zero
		{false, 128, w, 8, w, 4, 4, false, 0, int(config.Selective), 1, 2, 0, fe, so, 0},      // zero sets: index out of range
		{false, 128, w, 8, w, 0, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},       // fetch stops at the first branch
		{false, 128, w, 8, w, 4, 4, true, 1 << 20, int(config.Naive), 4096, 2, 0, fe, so, 0},  // loads wait past the watchdog
		{false, 128, w, 8, w, 4, 4, false, 0, int(config.NoSpec), 4096, 2, 0, 1 << 40, so, 0}, // nothing reaches dispatch
		{false, 128, w, 8, w, 4, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, 1 << 40, 0},  // fetch never resumes after a squash
		{false, 128, w, 8, w, 4, 4, false, 0, int(config.NoSpec), 4096, 2, 2, fe, so, 16},     // younger split tasks fill the LSQ
		{false, config.MaxWindow, w, 64, w, 4, 4, true, 0, int(config.Naive), 4096, 2, config.MaxSplitUnits, fe, so, 0},
		// The caps under NAS/NAV with squash recovery, on both benchmarks.
		{false, capW, capW, capW, capW, capW, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},
		{true, capW, capW, capW, capW, capW, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},
		{true, capW, capW, capW, capW, capW, 4, true, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},
		{true, capW, capW, capW, capW, capW, 5, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0}, // more ports than banks: refused
		{true, capW, 1, capW, 1, capW, 4, false, 0, int(config.Naive), 4096, 2, 0, fe, so, 0},
	} {
		f.Add(s.fp, s.window, s.fetch, s.issue, s.commit, s.branches, s.ports, s.as, s.latency, s.policy,
			s.entries, s.assoc, s.units, s.frontEnd, s.squash, s.lsq)
	}
	gcc := emu.NewRecording(emu.New(workload.MustBuild("126.gcc")))
	gcc.Record(8_192 + ReadAhead)
	fpppp := emu.NewRecording(emu.New(workload.MustBuild("145.fpppp")))
	fpppp.Record(8_192 + ReadAhead)
	f.Fuzz(func(t *testing.T, fp bool, window, fetch, issue, commit, branches, ports int, as bool,
		latency, policy, entries, assoc, units, frontEnd, squash, lsq int) {
		cfg := config.Default128()
		cfg.Window, cfg.BranchesPerCycle, cfg.MemPorts = window, branches, ports
		cfg.FetchWidth, cfg.IssueWidth, cfg.CommitWidth = fetch, issue, commit
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
		rec := gcc
		if fp {
			rec = fpppp
		}
		pl, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatalf("New rejects a validated config %+v: %v", cfg, err)
		}
		if _, err := pl.Run(fuzzBudget); err != nil {
			t.Fatalf("validated config %+v does not run: %v", cfg, err)
		}
	})
}

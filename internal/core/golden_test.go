package core

import (
	"reflect"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// goldenConfigs enumerates every valid combination of policy, window
// shape, and recovery mechanism: the full matrix the event-driven
// scheduler must reproduce bit-for-bit.
func goldenConfigs() []config.Machine {
	nasPolicies := []config.Policy{
		config.NoSpec, config.Naive, config.Selective, config.StoreBarrier,
		config.Sync, config.Oracle, config.StoreSets,
	}
	shape := func(cfg config.Machine, split bool) config.Machine {
		if split {
			return cfg.WithSplitWindow(4)
		}
		return cfg
	}
	var cfgs []config.Machine
	for _, pol := range nasPolicies {
		for _, split := range []bool{false, true} {
			base := shape(config.Default128().WithPolicy(pol), split)
			cfgs = append(cfgs, base)
			cfgs = append(cfgs, base.WithRecovery(config.RecoverySelective))
		}
	}
	// AS supports only NO and NAV, squash recovery.
	for _, pol := range []config.Policy{config.NoSpec, config.Naive} {
		for _, split := range []bool{false, true} {
			cfgs = append(cfgs, shape(config.Default128().WithPolicy(pol).WithAddressScheduler(1), split))
		}
	}
	return cfgs
}

func goldenName(cfg config.Machine) string {
	name := cfg.Name()
	if cfg.Recovery == config.RecoverySelective {
		name += "+selinv"
	}
	if cfg.SplitWindow {
		name += "+split"
	}
	return name
}

func goldenRun(t *testing.T, cfg config.Machine, bench string, scan bool, insts int64) *stats.Run {
	t.Helper()
	pl, err := New(cfg, emu.NewTrace(emu.New(workload.MustBuild(bench))))
	if err != nil {
		t.Fatal(err)
	}
	run := pl.Run
	if scan {
		run = pl.runScan
	}
	res, err := run(insts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEventSchedulerGoldenEquivalence runs every configuration of the
// policy x shape x recovery matrix under both the event-driven scheduler
// and the reference per-cycle scan (scan_test.go), and requires the
// complete statistics records to be bit-identical. This is the
// correctness contract of the event-driven core: it changes when window
// entries are examined, never what the machine does.
func TestEventSchedulerGoldenEquivalence(t *testing.T) {
	const insts = 20_000
	const bench = "126.gcc"
	for _, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(goldenName(cfg), func(t *testing.T) {
			t.Parallel()
			if err := cfg.Validate(); err != nil {
				t.Fatalf("matrix produced invalid config: %v", err)
			}
			event := goldenRun(t, cfg, bench, false, insts)
			scan := goldenRun(t, cfg, bench, true, insts)
			if !reflect.DeepEqual(event, scan) {
				t.Errorf("event and scan schedulers diverge:\nevent: %+v\nscan:  %+v", event, scan)
			}
		})
	}
}

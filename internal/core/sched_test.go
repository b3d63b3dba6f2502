package core

import (
	"fmt"
	"strings"
	"testing"

	"mdspec/internal/cache"
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/isa"
	"mdspec/internal/prog"
	"mdspec/internal/workload"
)

// twoLoadProgram builds the checkViolations regression workload: a store
// whose operands hang off a serial multiply chain, followed by two loads
// of the same word. Under NAV both loads issue speculatively long before
// the store executes, so the store's completion scan finds both in the
// same address chain.
func twoLoadProgram() *prog.Program {
	b := prog.NewBuilder()
	arena := b.AllocInit(7)
	b.Li(isa.R1, int64(arena))
	b.Li(isa.R2, 3)
	for i := 0; i < 6; i++ {
		b.Mult(isa.R2, isa.R2)
		b.Mflo(isa.R2)
	}
	b.Sw(isa.R2, isa.R1, 0)
	b.Lw(isa.R3, isa.R1, 0)
	b.Lw(isa.R4, isa.R1, 0)
	b.Add(isa.R5, isa.R3, isa.R4)
	b.Halt()
	return b.MustProgram()
}

// TestTwoViolatingLoadsSameAddress pins down checkViolations' mid-scan
// behavior when one store completion catches two misspeculated loads of
// the same word. Under squash invalidation the first (oldest) load's
// squash kills the second too, so returning mid-scan loses nothing and
// exactly one violation is recorded. Under selective invalidation the
// scan must keep going and correct each load individually.
func TestTwoViolatingLoadsSameAddress(t *testing.T) {
	p := twoLoadProgram()
	want := dynLen(p)

	run := func(cfg config.Machine) *struct {
		committed, misspec, squashed int64
	} {
		pl, err := New(cfg, emu.NewTrace(emu.New(p)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := pl.Run(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return &struct{ committed, misspec, squashed int64 }{r.Committed, r.Misspeculations, r.SquashedInsts}
	}

	sq := run(config.Default128().WithPolicy(config.Naive))
	if sq.committed != want {
		t.Errorf("squash: committed %d, want %d", sq.committed, want)
	}
	if sq.misspec != 1 {
		t.Errorf("squash: %d misspeculations, want 1 (one squash covers both loads)", sq.misspec)
	}
	if sq.squashed < 2 {
		t.Errorf("squash: only %d squashed instructions, both loads should be thrown away", sq.squashed)
	}

	sel := run(config.Default128().WithPolicy(config.Naive).WithRecovery(config.RecoverySelective))
	if sel.committed != want {
		t.Errorf("selinv: committed %d, want %d", sel.committed, want)
	}
	if sel.misspec != 2 {
		t.Errorf("selinv: %d misspeculations, want 2 (the scan must correct BOTH loads)", sel.misspec)
	}
}

// checkAddrMapsMirrorROB is the reverse direction of the invariant
// checker's table checks: every window entry that should be published in
// an address map or pending list is, under the exact publication rules
// (loads at memory issue; stores at completion under NAS, at address
// posting under AS; pending stores until completion).
func (p *Pipeline) checkAddrMapsMirrorROB() error {
	r := &p.rob
	for seq := p.headSeq; seq < p.dispatchSeq; seq++ {
		s := p.slotIndex(seq)
		if r.seq[s] != seq {
			continue
		}
		f := r.flags[s]
		switch {
		case f&fLoad != 0:
			want := f&fMemIssued != 0
			got := p.loads.in[s] && p.loads.seq[s] == seq && p.loads.addr[s] == r.addr[s]
			if got != want {
				return fmt.Errorf("load %d: in loads table %v, memIssued %v", seq, got, want)
			}
		case f&fStore != 0:
			completed := f&fCompleted != 0
			want := completed
			if p.cfg.UseAddressScheduler {
				// Posting fires in processStoreEvents at the start of the
				// cycle after addrPosted is reached, so a store whose
				// posting time equals the current cycle is not visible yet.
				want = f&fAgen != 0 && r.addrPosted[s] < p.cycle
			}
			got := p.stores.in[s] && p.stores.seq[s] == seq && p.stores.addr[s] == r.addr[s]
			if got != want {
				return fmt.Errorf("store %d: in stores table %v, want %v", seq, got, want)
			}
			if gotPend := p.pendingStores.in[s]; gotPend != !completed {
				return fmt.Errorf("store %d: in pendingStores %v, completed %v", seq, gotPend, completed)
			}
		}
	}
	return nil
}

// TestAddrMapsMirrorROBUnderSquashStorms drives random same-arena
// programs — dense with memory-order violations — through the squash and
// selective-invalidation recovery paths, checking after every cycle that
// the intrusive address maps mirror the window exactly in both
// directions.
func TestAddrMapsMirrorROBUnderSquashStorms(t *testing.T) {
	cfgs := []config.Machine{
		config.Default128().WithPolicy(config.Naive),
		config.Default128().WithPolicy(config.Naive).WithRecovery(config.RecoverySelective),
		config.Default128().WithPolicy(config.Naive).WithAddressScheduler(1),
		config.Default128().WithPolicy(config.Naive).WithSplitWindow(4),
		config.Small64().WithPolicy(config.Naive),
	}
	for _, cfg := range cfgs {
		for seed := uint64(1); seed <= 6; seed++ {
			p := randProgram(seed * 15485863)
			want := dynLen(p)
			pl, err := New(cfg, emu.NewTrace(emu.New(p)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1<<16 && pl.res.Committed < want; i++ {
				pl.step()
				if err := pl.checkAddrMapsMirrorROB(); err != nil {
					t.Fatalf("%s seed %d cycle %d: %v", cfg.Name(), seed, i, err)
				}
				if err := pl.checkInvariants(); err != nil {
					t.Fatalf("%s seed %d cycle %d: %v", cfg.Name(), seed, i, err)
				}
			}
			if pl.res.Committed != want {
				t.Fatalf("%s seed %d: committed %d, want %d", cfg.Name(), seed, pl.res.Committed, want)
			}
		}
		// The recurrence kernel misspeculates constantly, so the storm
		// exercises the recovery removal paths, not just clean commits.
		pl, err := New(cfg, emu.NewTrace(emu.New(workload.KernelRecurrence(0))))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			pl.step()
			if err := pl.checkAddrMapsMirrorROB(); err != nil {
				t.Fatalf("%s recurrence cycle %d: %v", cfg.Name(), i, err)
			}
			if err := pl.checkInvariants(); err != nil {
				t.Fatalf("%s recurrence cycle %d: %v", cfg.Name(), i, err)
			}
		}
		// AS/NAV corrects most violations silently (§3.4), so only the
		// NAS configurations are required to squash during the storm.
		if pl.res.Misspeculations == 0 && !cfg.UseAddressScheduler {
			t.Errorf("%s: storm produced no violations; property not exercised", cfg.Name())
		}
	}
}

// TestStepZeroAllocSteadyState holds the event-driven core to zero
// allocations per cycle once warm: all scheduling state (wheel nodes,
// waiter lists, candidate bitmap, address maps) reuses its backing
// storage, and the shared recording serves reads without copying.
func TestStepZeroAllocSteadyState(t *testing.T) {
	rec := emu.NewRecording(emu.New(workload.MustBuild("126.gcc")))
	rec.Record(22_000*8 + ReadAhead)
	cfgs := []struct {
		name string
		cfg  config.Machine
	}{
		{"NAS/SYNC", config.Default128().WithPolicy(config.Sync)},
		{"AS/NAIVE", config.Default128().WithPolicy(config.Naive).WithAddressScheduler(1)},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := New(tc.cfg, rec.NewReplay())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				pl.step()
			}
			if avg := testing.AllocsPerRun(2000, func() { pl.step() }); avg != 0 {
				t.Errorf("steady-state step allocates %.2f times per cycle, want 0", avg)
			}
		})
	}
}

// TestNoOverflowEventsAtCaps runs the validated machines at the
// configuration caps that internal/experiments' capture-horizon test
// replays (window config.MaxWindow, widths four times the window,
// memory ports at the D-cache's banks) over an integer and a
// floating-point benchmark, at the budget where more ports than banks
// used to collapse a machine. No event may land past the wheel's
// horizon: the overflow slice is scanned every cycle, and a machine
// that fills it slows by orders of magnitude. over starts nil and only
// push appends to it, so a non-zero capacity means an event got there.
func TestNoOverflowEventsAtCaps(t *testing.T) {
	wide := config.Default128()
	wide.Window = config.MaxWindow
	wide.FetchWidth = 4 * config.MaxWindow
	wide.IssueWidth = 4 * config.MaxWindow
	wide.CommitWidth = 4 * config.MaxWindow
	wide.BranchesPerCycle = config.MaxWindow
	wide.IntALUs, wide.IntMulDivs, wide.FPUnits = 64, 64, 64
	wide.MemPorts = cache.DCacheBanks
	wrongPath := wide.WithPolicy(config.Naive)
	wrongPath.WrongPathFetch = true
	cfgs := []config.Machine{
		wide,
		wide.WithPolicy(config.Oracle),
		wide.WithPolicy(config.Sync),
		wide.WithPolicy(config.Naive),
		wide.WithPolicy(config.Naive).WithRecovery(config.RecoverySelective),
		wide.WithPolicy(config.Naive).WithAddressScheduler(2),
		wide.WithPolicy(config.Naive).WithAddressScheduler(2).WithSplitWindow(4),
		wrongPath,
	}
	for _, bench := range []string{"126.gcc", "145.fpppp"} {
		rec := emu.NewRecording(emu.New(workload.MustBuild(bench)))
		rec.Record(8_192 + ReadAhead)
		for _, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			pl, err := New(cfg, rec.NewReplay())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pl.Run(8_192); err != nil {
				t.Fatalf("%s %s: %v", bench, cfg.Name(), err)
			}
			if c := cap(pl.events.over); c != 0 {
				t.Errorf("%s %s: events went past the wheel's %d-cycle horizon (overflow capacity %d)",
					bench, cfg.Name(), wheelHorizon, c)
			}
		}
	}
}

// TestConstructionAllocsBounded pins the fixed cost a simulation pays
// before and around its first cycles: a sampled cell builds several
// fresh Table 2 machines, so construction must not allocate per cache
// set or per wheel bucket. The Run bound is the same at two budgets, so
// it also holds the warm loop to amortized-constant allocation.
func TestConstructionAllocsBounded(t *testing.T) {
	const maxNew, maxRun = 150, 250
	rec := emu.NewRecording(emu.New(workload.MustBuild("126.gcc")))
	rec.Record(60_000)
	cfg := config.Default128()
	if n := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg, rec.NewReplay()); err != nil {
			t.Fatal(err)
		}
	}); n > maxNew {
		t.Errorf("core.New allocates %.0f times, want <= %d", n, maxNew)
	}
	for _, insts := range []int64{20_000, 40_000} {
		if n := testing.AllocsPerRun(3, func() {
			pl, err := New(cfg, rec.NewReplay())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pl.Run(insts); err != nil {
				t.Fatal(err)
			}
		}); n > maxRun {
			t.Errorf("New+Run(%d) allocates %.0f times, want <= %d", insts, n, maxRun)
		}
	}
}

// TestDeadlockSnapshotRenders exercises the watchdog's one-shot state
// dump against a live mid-flight pipeline; the watchdog itself is
// unreachable in a healthy build, so the renderer gets its own test.
func TestDeadlockSnapshotRenders(t *testing.T) {
	rec := emu.NewRecording(emu.New(workload.MustBuild("126.gcc")))
	rec.Record(500 * 8)
	pl, err := New(config.Default128().WithPolicy(config.Sync), rec.NewReplay())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		pl.step()
	}
	snap := pl.deadlockSnapshot()
	for _, want := range []string{"window: head=", "next event:", "pendingStores="} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

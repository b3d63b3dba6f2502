package core

import (
	"fmt"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/workload"
)

// checkInvariants validates the pipeline's internal bookkeeping; tests
// call it between steps to catch state corruption early.
func (p *Pipeline) checkInvariants() error {
	// Occupancy bounded by the window.
	if p.dispatchSeq-p.headSeq > int64(p.cfg.Window) {
		return fmt.Errorf("window over-full: head=%d dispatch=%d", p.headSeq, p.dispatchSeq)
	}
	// Pending store lists contain only valid, in-flight stores, in
	// strictly ascending order, with consistent intrusive links.
	checkList := func(name string, l *seqList) error {
		count, prev := 0, int64(-1)
		for s := l.head; s != nilSlot; s = l.next[s] {
			if count++; count > p.cfg.Window {
				return fmt.Errorf("%s: link cycle", name)
			}
			if !l.in[s] {
				return fmt.Errorf("%s: slot %d linked but not marked present", name, s)
			}
			seq := l.seq[s]
			if seq <= prev {
				return fmt.Errorf("%s not strictly ascending: %d after %d", name, seq, prev)
			}
			prev = seq
			if p.rob.seq[p.slotIndex(seq)] != seq {
				return fmt.Errorf("%s references dead seq %d", name, seq)
			}
			if p.rob.flags[p.slotIndex(seq)]&fStore == 0 {
				return fmt.Errorf("%s references non-store seq %d", name, seq)
			}
		}
		if count != l.n {
			return fmt.Errorf("%s: chain length %d != recorded %d", name, count, l.n)
		}
		return nil
	}
	if err := checkList("pendingStores", &p.pendingStores); err != nil {
		return err
	}
	if err := checkList("unpostedStores", &p.unpostedStores); err != nil {
		return err
	}
	if err := checkList("pendingBarriers", &p.pendingBarriers); err != nil {
		return err
	}
	// A completed store must not be in pendingStores.
	for s := p.pendingStores.head; s != nilSlot; s = p.pendingStores.next[s] {
		if p.rob.flags[s]&fCompleted != 0 {
			return fmt.Errorf("completed store %d still pending", p.pendingStores.seq[s])
		}
	}
	// Address tables reference live entries of the right kind, hashed to
	// the right bucket, with each chain in ascending sequence order.
	checkTable := func(name string, t *addrTable, wantLoad bool) error {
		for b := range t.bhead {
			prev := int64(-1)
			for s := t.bhead[b]; s != nilSlot; s = t.next[s] {
				if !t.in[s] {
					return fmt.Errorf("%s: slot %d linked but not marked present", name, s)
				}
				if int(t.bucket(t.addr[s])) != b {
					return fmt.Errorf("%s: addr %#x in bucket %d", name, t.addr[s], b)
				}
				seq := t.seq[s]
				if seq <= prev {
					return fmt.Errorf("%s bucket %d not ascending: %d after %d", name, b, seq, prev)
				}
				prev = seq
				rs := p.slotIndex(seq)
				if p.rob.seq[rs] != seq || p.rob.addr[rs] != t.addr[s] {
					return fmt.Errorf("%s stale seq %d", name, seq)
				}
				if wantLoad != (p.rob.flags[rs]&fLoad != 0) {
					return fmt.Errorf("%s references wrong-kind seq %d", name, seq)
				}
			}
		}
		return nil
	}
	if err := checkTable("stores", &p.stores, false); err != nil {
		return err
	}
	if err := checkTable("loads", &p.loads, true); err != nil {
		return err
	}
	// Scheduling state: candidates are never parked; a slot parked on a
	// producer appears exactly once on that producer's waiter list, and
	// waiter lists are consistent with the parkedOn map.
	for s := int32(0); s < int32(p.cfg.Window); s++ {
		if p.cand.has(s) && p.parkedOn[s] != parkNone {
			return fmt.Errorf("candidate slot %d is parked on %d", s, p.parkedOn[s])
		}
	}
	for q := range p.wHead {
		for w := p.wHead[q]; w != nilSlot; w = p.wNext[w] {
			if p.parkedOn[w] != int32(q) {
				return fmt.Errorf("waiter %d on list %d but parked on %d", w, q, p.parkedOn[w])
			}
			if nw := p.wNext[w]; nw != nilSlot && p.wPrev[nw] != w {
				return fmt.Errorf("waiter list %d back-link broken at %d", q, w)
			}
		}
	}
	for s := range p.parkedOn {
		q := p.parkedOn[s]
		if q < 0 {
			continue // not parked, or waiting on a timed event
		}
		found := false
		for w := p.wHead[q]; w != nilSlot; w = p.wNext[w] {
			if w == int32(s) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("slot %d parked on %d but not on its waiter list", s, q)
		}
	}
	// Commit pointer sanity.
	if p.res.Committed != p.headSeq-p.res.Skipped {
		return fmt.Errorf("committed %d != head %d - skipped %d", p.res.Committed, p.headSeq, p.res.Skipped)
	}
	// LSQ occupancy must equal the in-flight memory instructions.
	memCount := 0
	for seq := p.headSeq; seq < p.dispatchSeq; seq++ {
		s := p.slotIndex(seq)
		if p.rob.seq[s] == seq && p.rob.flags[s]&fMem != 0 {
			memCount++
		}
	}
	if memCount != p.memInFlight {
		return fmt.Errorf("memInFlight %d != actual %d", p.memInFlight, memCount)
	}
	return nil
}

// TestInvariantsUnderAllPolicies steps several configurations cycle by
// cycle with the invariant checker armed.
func TestInvariantsUnderAllPolicies(t *testing.T) {
	cfgs := []config.Machine{
		config.Default128().WithPolicy(config.NoSpec),
		config.Default128().WithPolicy(config.Naive),
		config.Default128().WithPolicy(config.Sync),
		config.Default128().WithPolicy(config.StoreBarrier),
		config.Default128().WithPolicy(config.Naive).WithAddressScheduler(1),
		config.Default128().WithPolicy(config.NoSpec).WithAddressScheduler(0),
		config.Default128().WithPolicy(config.Naive).WithRecovery(config.RecoverySelective),
		config.Default128().WithPolicy(config.Naive).WithSplitWindow(4),
	}
	for _, cfg := range cfgs {
		for _, scan := range []bool{false, true} {
			cfg, scan := cfg, scan
			mode := "event"
			if scan {
				mode = "scan"
			}
			t.Run(cfg.Name()+"/"+mode, func(t *testing.T) {
				pl, err := New(cfg, emu.NewTrace(emu.New(workload.MustBuild("129.compress"))))
				if err != nil {
					t.Fatal(err)
				}
				step := pl.step
				if scan {
					step = pl.stepScan
				}
				for i := 0; i < 4000; i++ {
					step()
					if i%7 == 0 { // checking every cycle is slow; sample densely
						if err := pl.checkInvariants(); err != nil {
							t.Fatalf("cycle %d: %v", i, err)
						}
					}
				}
				if pl.res.Committed == 0 {
					t.Fatal("no progress")
				}
			})
		}
	}
}

// TestSimulationDeterministic runs identical simulations twice and
// requires bit-identical statistics.
func TestSimulationDeterministic(t *testing.T) {
	cfgs := []config.Machine{
		config.Default128().WithPolicy(config.Naive),
		config.Default128().WithPolicy(config.Sync),
		config.Default128().WithPolicy(config.Naive).WithAddressScheduler(1),
		config.Default128().WithPolicy(config.Naive).WithSplitWindow(4),
	}
	for _, cfg := range cfgs {
		for _, bench := range []string{"126.gcc", "104.hydro2d"} {
			run := func() string {
				pl, err := New(cfg, emu.NewTrace(emu.New(workload.MustBuild(bench))))
				if err != nil {
					t.Fatal(err)
				}
				r, err := pl.Run(20_000)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%d/%d/%d/%d/%d", r.Cycles, r.Committed,
					r.Misspeculations, r.SquashedInsts, r.BranchMispredicts)
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("%s on %s not deterministic: %s vs %s", cfg.Name(), bench, a, b)
			}
		}
	}
}

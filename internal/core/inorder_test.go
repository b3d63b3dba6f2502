package core

import (
	"fmt"
	"testing"

	"mdspec/internal/bpred"
	"mdspec/internal/cache"
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// InOrder is a single-issue, in-order, blocking-cache reference model.
// It shares the branch predictor and Table 2 memory hierarchy with the
// out-of-order pipeline but executes strictly sequentially: each
// instruction waits for its operands, runs to completion, and only then
// does the next one start address generation or execution. It serves as
// a baseline (the machine class the paper's techniques improve on) and
// as the differential oracle of TestOutOfOrderNeverSlowerThanInOrder:
// any out-of-order configuration must commit the same instructions and
// never be slower.
type InOrder struct {
	trace emu.Stream
	hier  *cache.Hierarchy
	bp    *bpred.Predictor
	res   stats.Run
	used  bool
}

// NewInOrder builds the reference model. Only the cache selection of cfg
// is consulted (PerfectCaches); widths and policies do not apply.
func NewInOrder(cfg config.Machine, trace emu.Stream) *InOrder {
	h := cache.Table2()
	if cfg.PerfectCaches {
		h = cache.Perfect()
	}
	return &InOrder{
		trace: trace,
		hier:  h,
		bp:    bpred.New(bpred.Default()),
	}
}

// Run executes up to maxInsts instructions and returns the statistics.
func (m *InOrder) Run(maxInsts int64) (*stats.Run, error) {
	if m.used {
		return nil, fmt.Errorf("core: InOrder.Run called twice")
	}
	m.used = true
	m.res.Config = "INORDER"

	cycle := int64(0)
	var lastBlock uint32
	haveBlock := false

	for seq := int64(0); seq < maxInsts; seq++ {
		d := m.trace.At(seq)
		if d == nil {
			break
		}
		// Instruction fetch: one block at a time, blocking.
		if blk := d.PC >> iCacheBlockShift; !haveBlock || blk != lastBlock {
			cycle = m.hier.I.Access(d.PC, cycle, false)
			lastBlock, haveBlock = blk, true
		}
		// Blocking execution: every prior instruction has completed.
		start := cycle
		op := d.Inst.Op
		var done int64
		switch {
		case op.IsLoad():
			addr := start + agenLatency
			done = m.hier.D.Access(d.Addr, addr, false)
			m.res.CommittedLoads++
		case op.IsStore():
			addr := start + agenLatency
			done = m.hier.D.Access(d.Addr, addr, true)
			m.res.CommittedStores++
		case op.IsBranch():
			done = start + 1
			m.res.Branches++
			if d.Inst.Op.IsCondBranch() {
				pred := m.bp.PredictDirection(d.PC)
				hist := m.bp.History()
				m.bp.SpeculateHistory(pred)
				m.bp.Resolve(d.PC, hist, pred, d.Taken)
				if pred != d.Taken {
					m.res.BranchMispredicts++
					done += 4 // re-fetch penalty (front-end depth)
				}
			}
		default:
			done = start + int64(op.Class().Latency())
		}
		cycle = start + 1 // next instruction issues the following cycle
		if done > cycle {
			cycle = done
		}
		m.res.Committed++
	}
	m.res.Cycles = cycle
	m.res.DCacheAccesses = m.hier.D.Stats.Accesses
	m.res.DCacheMisses = m.hier.D.Stats.Misses
	m.res.ICacheAccesses = m.hier.I.Stats.Accesses
	m.res.ICacheMisses = m.hier.I.Stats.Misses
	return &m.res, nil
}

func TestInOrderRuns(t *testing.T) {
	m := NewInOrder(config.Default128(), emu.NewTrace(emu.New(workload.MustBuild("126.gcc"))))
	r, err := m.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 20_000 {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.IPC() <= 0 || r.IPC() > 1 {
		t.Errorf("in-order scalar IPC must be in (0, 1], got %.3f", r.IPC())
	}
	if _, err := m.Run(10); err == nil {
		t.Error("second Run should fail")
	}
}

func TestOutOfOrderNeverSlowerThanInOrder(t *testing.T) {
	// The differential lower bound: every OOO configuration must commit
	// the same work at least as fast as the blocking scalar model.
	for _, bench := range []string{"129.compress", "102.swim", "130.li"} {
		p := workload.MustBuild(bench)
		ref := NewInOrder(config.Default128(), emu.NewTrace(emu.New(p)))
		base, err := ref.Run(20_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []config.Machine{
			config.Default128().WithPolicy(config.NoSpec),
			config.Default128().WithPolicy(config.Naive),
			config.Small64().WithPolicy(config.NoSpec),
		} {
			pl, err := New(cfg, emu.NewTrace(emu.New(p)))
			if err != nil {
				t.Fatal(err)
			}
			r, err := pl.Run(20_000)
			if err != nil {
				t.Fatal(err)
			}
			if r.IPC() < base.IPC() {
				t.Errorf("%s on %s: OOO IPC %.3f below in-order %.3f",
					cfg.Name(), bench, r.IPC(), base.IPC())
			}
		}
	}
}

func TestInOrderHaltingProgram(t *testing.T) {
	m := NewInOrder(config.Default128(), emu.NewTrace(emu.New(workload.KernelRecurrence(100))))
	r, err := m.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 || r.Committed > 1000 {
		t.Errorf("unexpected committed count %d", r.Committed)
	}
}

package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/isa"
	"mdspec/internal/prog"
	"mdspec/internal/stats"
)

// aluLoop builds a loop of independent ALU work (no memory traffic).
func aluLoop(iters int64) *prog.Program {
	b := prog.NewBuilder()
	b.Li(isa.R1, iters)
	b.Label("loop")
	b.Addi(isa.R2, isa.R2, 1)
	b.Addi(isa.R3, isa.R3, 2)
	b.Addi(isa.R4, isa.R4, 3)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, isa.R0, "loop")
	b.Halt()
	return b.MustProgram()
}

// recurrence builds the paper's Figure 7 loop: each iteration loads the
// value the previous iteration stored (a[i] = a[i-1] + 1), a loop-carried
// memory dependence at short distance.
func recurrence(iters int64) *prog.Program {
	b := prog.NewBuilder()
	arr := b.AllocInit(1)
	b.Li(isa.R1, int64(arr)) // &a[0]
	b.Li(isa.R5, iters)
	b.Label("loop")
	b.Lw(isa.R2, isa.R1, 0)              // load a[i-1]
	b.Addi(isa.R2, isa.R2, 1)            // compute a[i]
	b.Sw(isa.R2, isa.R1, prog.WordBytes) // store a[i]
	b.Addi(isa.R1, isa.R1, prog.WordBytes)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "loop")
	b.Halt()
	return b.MustProgram()
}

// disjoint builds a loop whose stores and loads touch unrelated arrays:
// every load has only false (ambiguous but untrue) dependences. The
// loads feed a loop-carried multiply-accumulate whose result is stored,
// so stores execute late and — under NAS/NO — pointlessly delay the next
// loads on the critical path.
func disjoint(iters int64) *prog.Program {
	if iters > 4000 {
		panic("disjoint: iters must fit the array")
	}
	b := prog.NewBuilder()
	src := b.Alloc(4096)
	dst := b.Alloc(4096)
	for i := 0; i < 4096; i++ {
		b.SetData(src+uint32(i*prog.WordBytes), int64(i%97))
	}
	b.Li(isa.R1, int64(src))
	b.Li(isa.R2, int64(dst))
	b.Li(isa.R5, iters)
	b.Li(isa.R7, 3)
	b.Label("loop")
	b.Lw(isa.R3, isa.R1, 0) // a[i]: never stored to (false deps only)
	b.Addi(isa.R1, isa.R1, 8)
	b.Mult(isa.R6, isa.R7) // acc *= 3 (loop-carried, slow)
	b.Mflo(isa.R6)
	b.Add(isa.R6, isa.R6, isa.R3) // fold the load into the chain
	b.Sw(isa.R6, isa.R2, 0)       // b[i] = acc: data is late
	b.Addi(isa.R2, isa.R2, 8)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "loop")
	b.Halt()
	return b.MustProgram()
}

// splitBait reproduces the paper's Figure 7 scenario at task granularity:
// the loop body is exactly one split-window task (32 instructions), with
// a store to a global at the END of each iteration and the dependent
// load of that global at the START of the next. In a split window the
// younger unit fetches and issues its load long before the older unit
// even fetches the store; in a continuous window the store always posts
// its address before the (later-fetched) load can access memory.
func splitBait(iters int64) *prog.Program {
	b := prog.NewBuilder()
	g := b.AllocInit(5)
	b.Li(isa.R9, int64(g)) // 1 inst (LUI)
	b.Li(isa.R5, iters)    // 1 inst
	b.Li(isa.R7, 3)        // 1 inst
	for i := 3; i < 32; i++ {
		b.Nop() // align the loop body to a task boundary
	}
	b.Label("loop")               // 32-instruction body == one 128/4 task
	b.Lw(isa.R3, isa.R9, 0)       // 0: load g (address ready instantly)
	b.Add(isa.R4, isa.R3, isa.R7) // 1: propagate the loaded value
	for i := 2; i < 27; i++ {     // 2..26: independent filler
		b.Addi(isa.R10, isa.R10, 1)
	}
	b.Add(isa.R2, isa.R4, isa.R5) // 27: store value changes every iteration
	b.Sw(isa.R2, isa.R9, 0)       // 28: store g at the task's end
	b.Addi(isa.R5, isa.R5, -1)    // 29
	b.Nop()                       // 30: pad so the taken-branch body is exactly 32
	b.Bne(isa.R5, isa.R0, "loop") // 31
	b.Halt()
	return b.MustProgram()
}

// simulate runs program p to completion (or cap) under cfg.
func simulate(t *testing.T, p *prog.Program, cfg config.Machine, cap int64) *stats.Run {
	t.Helper()
	pl, err := New(cfg, emu.NewTrace(emu.New(p)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := pl.Run(cap)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func allPolicies() []config.Policy {
	return []config.Policy{
		config.NoSpec, config.Naive, config.Selective,
		config.StoreBarrier, config.Sync, config.Oracle, config.StoreSets,
	}
}

func TestRunCompletesAllPolicies(t *testing.T) {
	for _, pol := range allPolicies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			r := simulate(t, recurrence(300), config.Default128().WithPolicy(pol), 1<<20)
			if r.Committed == 0 || r.Cycles == 0 {
				t.Fatalf("no progress: %+v", r)
			}
			if r.IPC() <= 0 || r.IPC() > float64(config.Default128().IssueWidth) {
				t.Errorf("implausible IPC %v", r.IPC())
			}
		})
	}
	for _, lat := range []int{0, 1, 2} {
		for _, pol := range []config.Policy{config.NoSpec, config.Naive} {
			cfg := config.Default128().WithPolicy(pol).WithAddressScheduler(lat)
			t.Run(cfg.Name(), func(t *testing.T) {
				r := simulate(t, recurrence(300), cfg, 1<<20)
				if r.Committed == 0 {
					t.Fatalf("no progress: %+v", r)
				}
			})
		}
	}
}

func TestCommittedCountsExact(t *testing.T) {
	// Committing to completion must retire exactly the dynamic
	// instruction count of the program, once, in order.
	p := recurrence(100)
	var want int64
	m := emu.New(p)
	var d emu.DynInst
	for m.Step(&d) {
		want++
	}
	for _, pol := range []config.Policy{config.NoSpec, config.Naive, config.Sync} {
		r := simulate(t, p, config.Default128().WithPolicy(pol), 1<<20)
		if r.Committed != want {
			t.Errorf("%v committed %d, want %d", pol, r.Committed, want)
		}
	}
}

func TestOracleNeverMisspeculates(t *testing.T) {
	r := simulate(t, recurrence(500), config.Default128().WithPolicy(config.Oracle), 1<<20)
	if r.Misspeculations != 0 {
		t.Errorf("oracle misspeculated %d times", r.Misspeculations)
	}
}

func TestNoSpecNeverMisspeculates(t *testing.T) {
	r := simulate(t, recurrence(500), config.Default128().WithPolicy(config.NoSpec), 1<<20)
	if r.Misspeculations != 0 || r.SquashedInsts != 0 {
		t.Errorf("no-speculation squashed: %+v", r)
	}
}

func TestNaiveMisspeculatesOnRecurrence(t *testing.T) {
	r := simulate(t, recurrence(500), config.Default128().WithPolicy(config.Naive), 1<<20)
	if r.Misspeculations == 0 {
		t.Error("naive speculation should violate the loop-carried dependence")
	}
	if r.SquashedInsts == 0 {
		t.Error("squashes should discard work")
	}
}

func TestSyncLearnsAndOutperformsNaive(t *testing.T) {
	nav := simulate(t, recurrence(2000), config.Default128().WithPolicy(config.Naive), 1<<21)
	syn := simulate(t, recurrence(2000), config.Default128().WithPolicy(config.Sync), 1<<21)
	if syn.MisspecRate() >= nav.MisspecRate() {
		t.Errorf("SYNC misspec rate %.4f should be below NAV %.4f",
			syn.MisspecRate(), nav.MisspecRate())
	}
	if syn.IPC() < nav.IPC() {
		t.Errorf("SYNC IPC %.3f should be >= NAV %.3f on a misspeculating loop",
			syn.IPC(), nav.IPC())
	}
}

func TestStoreSetsLearns(t *testing.T) {
	nav := simulate(t, recurrence(2000), config.Default128().WithPolicy(config.Naive), 1<<21)
	ss := simulate(t, recurrence(2000), config.Default128().WithPolicy(config.StoreSets), 1<<21)
	if ss.MisspecRate() >= nav.MisspecRate() {
		t.Errorf("store sets misspec %.4f should be below NAV %.4f",
			ss.MisspecRate(), nav.MisspecRate())
	}
}

func TestOracleBeatsNoSpecOnFalseDeps(t *testing.T) {
	or := simulate(t, disjoint(1000), config.Default128().WithPolicy(config.Oracle), 1<<21)
	no := simulate(t, disjoint(1000), config.Default128().WithPolicy(config.NoSpec), 1<<21)
	if or.IPC() <= no.IPC()*1.2 {
		t.Errorf("oracle IPC %.3f should clearly beat NAS/NO %.3f when only false deps exist",
			or.IPC(), no.IPC())
	}
}

func TestFalseDependenceAccounting(t *testing.T) {
	// Disjoint program: delayed loads have no true dependences.
	no := simulate(t, disjoint(1000), config.Default128().WithPolicy(config.NoSpec), 1<<21)
	if no.FalseDepRate() < 0.3 {
		t.Errorf("false-dependence rate %.3f too low for the disjoint workload", no.FalseDepRate())
	}
	if no.FalseDepLatency() <= 0 {
		t.Error("false-dependence resolution latency should be positive")
	}
	// Recurrence program: the delayed load's dependence is real.
	rec := simulate(t, recurrence(1000), config.Default128().WithPolicy(config.NoSpec), 1<<21)
	if rec.FalseDepRate() > 0.35 {
		t.Errorf("false-dependence rate %.3f too high for the recurrence workload", rec.FalseDepRate())
	}
}

func TestAddressSchedulerAvoidsMisspeculation(t *testing.T) {
	// §3.4/§3.7: in a continuous window with an address-based scheduler,
	// naive speculation misspeculates virtually never.
	r := simulate(t, recurrence(1000), config.Default128().WithPolicy(config.Naive).WithAddressScheduler(0), 1<<21)
	if rate := r.MisspecRate(); rate > 0.001 {
		t.Errorf("AS/NAV misspec rate %.4f should be ~0 in a continuous window", rate)
	}
}

func TestSplitWindowMisspeculatesWithAS(t *testing.T) {
	// §3.7: the same 0-cycle AS/NAV hardware that avoids virtually all
	// misspeculations in a continuous window cannot avoid them in a
	// split window, because younger units compute load addresses before
	// older units even fetch the stores.
	cont := simulate(t, splitBait(1000),
		config.Default128().WithPolicy(config.Naive).WithAddressScheduler(0), 1<<21)
	split := simulate(t, splitBait(1000),
		config.Default128().WithPolicy(config.Naive).WithAddressScheduler(0).WithSplitWindow(4), 1<<21)
	if cont.MisspecRate() > 0.001 {
		t.Errorf("continuous AS/NAV misspec rate %.4f should be ~0", cont.MisspecRate())
	}
	if split.Misspeculations < 100 {
		t.Errorf("split AS/NAV misspeculated only %d times; the Figure 7 effect is missing",
			split.Misspeculations)
	}
}

func TestSplitWindowCompletes(t *testing.T) {
	for _, pol := range []config.Policy{config.Naive, config.Sync, config.Oracle} {
		cfg := config.Default128().WithPolicy(pol).WithSplitWindow(4)
		r := simulate(t, recurrence(500), cfg, 1<<21)
		if r.Committed == 0 {
			t.Errorf("split window with %v made no progress", pol)
		}
	}
}

func TestALULoopThroughput(t *testing.T) {
	r := simulate(t, aluLoop(2000), config.Default128(), 1<<21)
	if r.IPC() < 2.0 {
		t.Errorf("ALU loop IPC %.3f too low; pipeline is over-serialized", r.IPC())
	}
}

func TestSmall64SlowerThanDefault128(t *testing.T) {
	big := simulate(t, disjoint(1000), config.Default128().WithPolicy(config.Oracle), 1<<21)
	small := simulate(t, disjoint(1000), config.Small64().WithPolicy(config.Oracle), 1<<21)
	if small.IPC() > big.IPC() {
		t.Errorf("64-entry machine (%.3f) should not beat the 128-entry one (%.3f)",
			small.IPC(), big.IPC())
	}
}

func TestSchedulerLatencyHurts(t *testing.T) {
	r0 := simulate(t, disjoint(1000), config.Default128().WithPolicy(config.Naive).WithAddressScheduler(0), 1<<21)
	r2 := simulate(t, disjoint(1000), config.Default128().WithPolicy(config.Naive).WithAddressScheduler(2), 1<<21)
	if r2.IPC() > r0.IPC() {
		t.Errorf("2-cycle scheduler (%.3f IPC) should not beat 0-cycle (%.3f)", r2.IPC(), r0.IPC())
	}
}

func TestRunTwiceFails(t *testing.T) {
	pl, err := New(config.Default128(), emu.NewTrace(emu.New(aluLoop(10))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(1000); err == nil {
		t.Fatal("second Run should fail")
	}
}

// cancelAfter is a context whose Err reports Canceled from its n-th
// call on, so a test can cancel RunContext at a known poll.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRunContextAlreadyCanceled: a context that is done before the run
// stops it before the first step.
func TestRunContextAlreadyCanceled(t *testing.T) {
	pl, err := New(config.Default128(), emu.NewTrace(emu.New(aluLoop(100_000))))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pl.RunContext(ctx, 50_000)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
	}
	if pl.cycle != 0 || pl.res.Committed != 0 {
		t.Errorf("ran %d cycles and committed %d before giving up", pl.cycle, pl.res.Committed)
	}
}

// TestRunContextCancelMidRun cancels a run at its third poll of the
// context: it stops there, after two intervals of ctxCheckSteps steps,
// with the cell unfinished. A real cancel from another goroutine stops
// a run that would otherwise take seconds.
func TestRunContextCancelMidRun(t *testing.T) {
	const budget = 5_000_000
	pl, err := New(config.Default128(), emu.NewTrace(emu.New(aluLoop(budget))))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), n: 3}
	res, err := pl.RunContext(ctx, budget)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunContext = %v, %v; want nil, context.Canceled", res, err)
	}
	if ctx.calls != 3 || pl.res.Committed == 0 || pl.res.Committed >= budget {
		t.Errorf("stopped after %d polls with %d of %d committed", ctx.calls, pl.res.Committed, budget)
	}

	pl, err = New(config.Default128(), emu.NewTrace(emu.New(aluLoop(budget))))
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := pl.RunContext(ctx2, budget); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after cancel = %v, want context.Canceled", err)
	}
	if pl.res.Committed >= budget {
		t.Errorf("committed all %d instructions despite the cancel", budget)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default128().WithPolicy(config.Sync).WithAddressScheduler(0)
	if _, err := New(cfg, emu.NewTrace(emu.New(aluLoop(10)))); err == nil {
		t.Fatal("AS/SYNC should be rejected")
	}
	bad := config.Default128()
	bad.Window = 0
	if _, err := New(bad, emu.NewTrace(emu.New(aluLoop(10)))); err == nil {
		t.Fatal("zero window should be rejected")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A tight store->load pair on the same address must forward, and
	// under ORACLE must never read the cache for the forwarded load.
	b := prog.NewBuilder()
	addr := b.Alloc(8)
	b.Li(isa.R1, int64(addr))
	b.Li(isa.R5, 500)
	b.Label("loop")
	b.Addi(isa.R2, isa.R2, 7)
	b.Sw(isa.R2, isa.R1, 0)
	b.Lw(isa.R3, isa.R1, 0) // always forwarded from the store
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "loop")
	b.Halt()
	r := simulate(t, b.MustProgram(), config.Default128().WithPolicy(config.Oracle), 1<<21)
	if r.Forwards < 400 {
		t.Errorf("forwards = %d, want ~500", r.Forwards)
	}
	if r.Misspeculations != 0 {
		t.Error("oracle must not misspeculate on forwarding")
	}
}

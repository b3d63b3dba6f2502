// Package core implements the cycle-level, execution-driven timing model
// of the paper's centralized, continuous-window superscalar processor
// (Table 2), including every load/store execution policy studied in §3:
//
//	NAS/NO, NAS/NAV, NAS/SEL, NAS/STORE, NAS/SYNC, NAS/ORACLE
//	AS/NO,  AS/NAV (with configurable address-scheduler latency)
//
// and, for §3.7, the distributed split-window variant in which fetch
// proceeds independently per unit and issue does not use global program
// order priority.
//
// The pipeline consumes the correct-path dynamic instruction stream from
// an emu.Stream (a lazily emulated emu.Trace, or a shared emu.Recording
// replayed across a sweep). Branch mispredictions stall fetch until the
// branch resolves (no wrong-path execution); memory-order violations
// squash the offending load and everything younger and rewind fetch
// (squash invalidation).
//
// The issue stage is event-driven: completing instructions wake the
// consumers parked on them, timed phases (address generation, memory
// access, store posting) push events onto a per-cycle calendar wheel,
// and cycles in which provably nothing can happen are skipped in one
// jump to the next event. Its executable specification, a full-window
// scan that examines every in-flight entry every cycle, lives in
// scan_test.go; the golden equivalence test holds the two to
// bit-identical statistics.
package core

import (
	"context"
	"fmt"
	"strings"

	"mdspec/internal/bpred"
	"mdspec/internal/cache"
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/isa"
	"mdspec/internal/mdp"
	"mdspec/internal/stats"
)

// noSeq marks "no sequence number".
const noSeq int64 = -1

// Per-entry flag bits, packed one word per window slot in robCols.flags.
// The low bit is the only mutable scheduling state (waiting vs issued);
// the opcode predicates and policy annotations are decoded once at
// dispatch and read on every examination, so keeping them in one word
// turns the issue stage's predicate cascade into a couple of masked
// loads instead of a scatter of bool columns.
const (
	// fIssued: executing (or executed); result at doneCycle. Clear means
	// the old stWaiting — dispatched, not all uops issued.
	fIssued uint32 = 1 << iota
	fLoad
	fStore
	fMem
	fBranch
	fJR    // indirect jump (the only opcode identity issue still needs)
	fTaken // architectural branch direction

	// Memory-operation bookkeeping.
	fAgen      // address-generation uop has issued
	fMemIssued // load: memory access launched; store: executed into buffer
	fCompleted // store completion event processed (left the pending sets)

	// Load speculation tracking.
	fPropagated // a dependent instruction has consumed the load's value

	// Policy annotations (set at dispatch).
	fWaitAll    // SEL: predicted dependent, wait for all prior stores
	fBarrier    // STORE: this store is a predicted barrier
	fHasSyn     // SYNC/SSET: synchronize via synonym
	fStoreIsSyn // store: marked as a synonym producer

	// Branch bookkeeping.
	fBpPred   // predicted direction
	fBpWrong  // misprediction (direction or target)
	fBpIsCond // conditional branch

	// False-dependence accounting (NO policies).
	fFdCounted
	fFdFalse
)

// robCols is the instruction window (RUU) in structure-of-arrays form:
// one dense column per field, indexed by window slot. Each examination
// of a wakeup candidate touches only the columns its check needs
// (liveness is one int64 compare, the predicate cascade one uint32
// load), so it loads a few words, not a ~200-byte entry struct. Fetch
// writes an instruction's columns straight into its slot (stage), so no
// record is copied on the way to dispatch. A per-slot struct with the
// hot fields in one cache line measured no faster.
//
//md:soa
type robCols struct {
	// seq is the occupying sequence number, or noSeq for a free slot.
	// It replaces the AoS valid flag + di.Seq pair: every liveness check
	// ("is seq still dispatched here?") is a single column compare.
	seq []int64

	// Packed predicates and scheduling state; see the f* bits above.
	flags []uint32

	// class is the execution class (functional unit + latency), decoded
	// at dispatch.
	class []isa.Class

	// Cycle columns (notYet until known).
	doneCycle  []int64 // result available
	addrReady  []int64 // effective address available
	addrPosted []int64 // AS: address visible to the scheduler
	memIssue   []int64 // cycle the memory uop issued
	memDone    []int64 // load: data available; store: buffer entry valid
	couldIssue []int64 // cycle the load could otherwise have accessed memory

	// Dependence columns: producer sequence numbers (noSeq = none).
	dep1, dep2  []int64
	prod        []int64 // architectural producer store (oracle/fd accounting)
	valueSource []int64 // seq of the store the load's value came from (noSeq = memory)
	syncOnSeq   []int64 // load: closest preceding synonym store to wait for

	// Value columns (from the trace, needed for AS value comparison and
	// store-buffer forwarding without re-touching the trace).
	specValue []int64 // the value the load actually obtained
	loadVal   []int64 // architectural load result
	storeVal  []int64 // architectural store value

	// Architectural scalars copied from the trace at dispatch.
	pc, addr, nextPC []uint32
	synonym          []uint32 // SYNC/SSET synonym or store-set ID
	bpHist           []uint32 // predictor history at prediction time
}

// init allocates every column at the window size; colparity keeps the
// column list in lockstep with the struct.
//
//md:soalifecycle robCols
func (r *robCols) init(w int) {
	r.seq = make([]int64, w)
	for i := range r.seq {
		r.seq[i] = noSeq
	}
	r.flags = make([]uint32, w)
	r.class = make([]isa.Class, w)
	r.doneCycle = make([]int64, w)
	r.addrReady = make([]int64, w)
	r.addrPosted = make([]int64, w)
	r.memIssue = make([]int64, w)
	r.memDone = make([]int64, w)
	r.couldIssue = make([]int64, w)
	r.dep1 = make([]int64, w)
	r.dep2 = make([]int64, w)
	r.prod = make([]int64, w)
	r.valueSource = make([]int64, w)
	r.syncOnSeq = make([]int64, w)
	r.specValue = make([]int64, w)
	r.loadVal = make([]int64, w)
	r.storeVal = make([]int64, w)
	r.pc = make([]uint32, w)
	r.addr = make([]uint32, w)
	r.nextPC = make([]uint32, w)
	r.synonym = make([]uint32, w)
	r.bpHist = make([]uint32, w)
}

// live reports whether slot s holds a dispatched, in-flight instruction.
//
//md:hotpath
func (r *robCols) live(s int32) bool { return r.seq[s] != noSeq }

// has reports whether any of the flag bits f are set on slot s.
//
//md:hotpath
func (r *robCols) has(s int32, f uint32) bool { return r.flags[s]&f != 0 }

// set sets the flag bits f on slot s.
//
//md:hotpath
func (r *robCols) set(s int32, f uint32) { r.flags[s] |= f }

// clear clears the flag bits f on slot s.
//
//md:hotpath
func (r *robCols) clear(s int32, f uint32) { r.flags[s] &^= f }

const notYet int64 = 1 << 62

// fetchRec is an instruction moving through the front end. Fetch has
// already staged it in its window slot; dispatch publishes that slot.
type fetchRec struct {
	seq   int64
	ready int64 // dispatchable at this cycle
}

// Pipeline is one configured simulation instance.
type Pipeline struct {
	cfg   config.Machine
	trace emu.Stream
	hier  *cache.Hierarchy
	bp    *bpred.Predictor

	sel   *mdp.Selective
	sbar  *mdp.StoreBarrier
	mdpt  *mdp.MDPT
	ssets *mdp.StoreSets

	cycle int64
	rob   robCols

	headSeq     int64 // oldest in-flight (next to commit)
	dispatchSeq int64 // next sequence number to dispatch
	fetchSeq    int64 // next sequence number to fetch
	traceEnded  bool  // the program's end has been observed
	traceLen    int64 // exact dynamic length, valid once traceEnded

	// fetchQ holds fetched-but-undispatched instructions; the live
	// records are fetchQ[fetchHead:]. The continuous window consumes the
	// queue strictly in order, so dispatch advances the cursor instead of
	// compacting the slice every cycle. Split-window dispatch skips
	// stalled records out of order and still compacts, leaving fetchHead
	// at 0.
	fetchQ    []fetchRec
	fetchHead int

	// Fetch stall state.
	blockedOnBranch int64 // seq of unresolved mispredicted branch (noSeq = none)
	fetchResumeAt   int64 // earliest cycle fetch may proceed
	lastFetchBlock  uint32
	haveFetchBlock  bool

	// Wrong-path fetch state (cfg.WrongPathFetch): while blocked on a
	// mispredicted branch, the front end streams I-cache accesses down
	// the wrong path.
	wrongPathPC     uint32
	wrongPathBlocks int

	// Split-window state (cfg.SplitWindow).
	unitFetchSeq   []int64 // per-unit next fetch seq
	unitBlockedOn  []int64 // per-unit unresolved mispredicted branch
	unitResumeAt   []int64
	unitFetchBlock []uint32
	unitHaveBlock  []bool
	issueRotate    int

	// Ordered (ascending seq) lists of in-window stores in various states.
	pendingStores   seqList // dispatched, not yet executed
	unpostedStores  seqList // AS: dispatched, address not yet posted
	pendingBarriers seqList // STORE: predicted barrier stores not yet executed

	// stores: in-window stores whose address is known to the hardware
	// (NAS: executed; AS: posted), keyed by word address.
	// loads: in-window loads that have performed their access.
	stores addrTable
	loads  addrTable

	// postQ holds stores whose addresses are travelling to the address
	// scheduler; compQ holds stores whose execution is completing.
	postQ []int64
	compQ []int64

	// memInFlight counts dispatched, uncommitted loads and stores (the
	// LSQ occupancy).
	memInFlight int

	// Per-cycle resource pools (reset each cycle).
	issueLeft, aluLeft, mulLeft, fpLeft, portLeft int

	res stats.Run

	// draining pauses fetch so the window can empty (sampling).
	draining bool

	// Event-driven scheduler state.
	cand     candSet    // wakeup candidate slots (iterated in rotated seq order)
	events   eventWheel // pending completions / postings / corrections
	activity bool       // anything happened this cycle (guards the cycle skip)

	// slotMask is Window-1 when the window is a power of two (the common
	// case), letting the slot mapping avoid an integer division.
	slotMask int64

	// Parking: parkedOn[s] is parkNone, parkTimer, or the producer slot
	// whose waiter list (wHead/wNext/wPrev) slot s is linked into.
	parkedOn            []int32
	wHead, wNext, wPrev []int32

	// parkReq carries a failed issue attempt's wakeup source out of
	// tryIssue* (parkNone: stay a candidate; parkTimer: an event is
	// already scheduled; else: the producer slot to park on).
	parkReq int32

	// splitCursors is the reusable per-unit cursor buffer of the
	// split-window issue walk: each holds the unit's position in its
	// rotated candidate sub-range. It lives for the pipeline's lifetime
	// so the per-cycle issue stage allocates nothing.
	splitCursors []int32

	// Generation-stamped invalidation marks (selectiveInvalidate's
	// transitive-consumer set; replaces a per-call map).
	invGen, invSeq []int64
	curGen         int64

	// violScratch snapshots matching loads in checkViolations so
	// recovery actions can edit the address chains mid-walk.
	violScratch []int64

	// warm replays functional windows (and interval-parallel warm-up)
	// into this pipeline's caches and branch predictor; see warm.go.
	warm Warmer

	// cycleBase is subtracted from the cycle counter when reporting
	// Cycles: a sampled segment's detailed warm-up advances the clock but
	// is erased from the statistics (see Pipeline.resetStats).
	cycleBase int64

	// san holds the mdsan sanitizer's preallocated scratch; empty (and
	// sanitize a no-op) unless built with -tags mdsan.
	san mdsanState
}

// New builds a pipeline over the given dynamic instruction stream. Its
// cache hierarchy and branch predictor may be ones another pipeline
// handed back (Recycle), reset to exactly what New would build.
func New(cfg config.Machine, trace emu.Stream) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h, bp := takeWarmState(cfg.PerfectCaches, cfg.BranchPredictor)
	p := &Pipeline{
		cfg:             cfg,
		trace:           trace,
		hier:            h,
		bp:              bp,
		blockedOnBranch: noSeq,
	}
	w := cfg.Window
	p.rob.init(w)
	p.stores.init(w)
	p.loads.init(w)
	p.pendingStores.init(w)
	p.unpostedStores.init(w)
	p.pendingBarriers.init(w)
	if w&(w-1) == 0 {
		p.slotMask = int64(w - 1)
	}
	units := 1
	if cfg.SplitWindow {
		units = cfg.SplitUnits
	}
	p.cand.init(w)
	p.splitCursors = make([]int32, units)
	p.parkedOn = make([]int32, w)
	p.wHead = make([]int32, w)
	p.wNext = make([]int32, w)
	p.wPrev = make([]int32, w)
	for i := 0; i < w; i++ {
		p.parkedOn[i] = parkNone
		p.wHead[i] = nilSlot
	}
	p.invGen = make([]int64, w)
	p.invSeq = make([]int64, w)
	p.events.init()
	p.violScratch = make([]int64, 0, 64)
	p.san.init(w)
	switch cfg.Policy {
	case config.Selective:
		p.sel = mdp.NewSelective(cfg.PredictorTable)
	case config.StoreBarrier:
		p.sbar = mdp.NewStoreBarrier(cfg.PredictorTable)
	case config.Sync:
		p.mdpt = mdp.NewMDPT(cfg.PredictorTable)
	case config.StoreSets:
		p.ssets = mdp.NewStoreSets(cfg.PredictorTable)
	}
	if cfg.SplitWindow {
		u := cfg.SplitUnits
		p.unitFetchSeq = make([]int64, u)
		p.unitBlockedOn = make([]int64, u)
		p.unitResumeAt = make([]int64, u)
		p.unitFetchBlock = make([]uint32, u)
		p.unitHaveBlock = make([]bool, u)
		for i := 0; i < u; i++ {
			p.unitBlockedOn[i] = noSeq
			p.unitFetchSeq[i] = noSeq
		}
	}
	p.warm = Warmer{trace: trace, hier: h, bp: p.bp}
	p.res.Config = cfg.Name()
	return p, nil
}

// Run simulates until maxInsts instructions have committed (or the trace
// ends) and returns the collected statistics. It is RunContext that
// cannot be canceled.
func (p *Pipeline) Run(maxInsts int64) (*stats.Run, error) {
	return p.RunContext(context.Background(), maxInsts)
}

// ctxCheckSteps is how many steps RunContext takes between two looks at
// its context: a few milliseconds of simulation at most, and a cost
// per step too small to measure.
const ctxCheckSteps = 4096

// RunContext is Run that gives up with ctx's error once ctx is done,
// so a canceled request does not hold a worker for the rest of a long
// cell. It polls ctx before the first step and every ctxCheckSteps
// steps after.
func (p *Pipeline) RunContext(ctx context.Context, maxInsts int64) (*stats.Run, error) {
	if p.cycle != 0 || p.res.Committed != 0 {
		return nil, fmt.Errorf("core: Run called twice on one Pipeline")
	}
	maxCycles := maxInsts*200 + 100_000 // livelock guard (IPC < 0.005 means a bug)
	for steps := 0; p.res.Committed < maxInsts; steps++ {
		if steps%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if p.traceEnded && p.headSeq >= p.traceLen {
			break // every instruction has committed
		}
		p.step()
		if p.cycle > maxCycles {
			return nil, &DeadlockError{
				Config: p.cfg.Name(), Phase: "run",
				Cycles: p.cycle, Committed: p.res.Committed, Target: maxInsts,
				Snapshot: p.deadlockSnapshot(),
			}
		}
	}
	p.captureMemStats()
	res := p.res // a copy: the caller must not keep the Pipeline alive
	return &res, nil
}

// captureMemStats copies the memory system's counters into the result at
// the end of a run.
func (p *Pipeline) captureMemStats() {
	p.res.Cycles = p.cycle - p.cycleBase
	p.res.DCacheAccesses = p.hier.D.Stats.Accesses
	p.res.DCacheMisses = p.hier.D.Stats.Misses
	p.res.ICacheAccesses = p.hier.I.Stats.Accesses
	p.res.ICacheMisses = p.hier.I.Stats.Misses
}

// deadlockSnapshot renders a one-shot dump of the machine state for the
// Run watchdog's error: where the window stands, what the head is stuck
// on, which slots are parked on what, and when the scheduler next
// expects anything to happen. It runs once, on the failure path only,
// so readability beats allocation discipline here.
func (p *Pipeline) deadlockSnapshot() string {
	r := &p.rob
	var b strings.Builder
	fmt.Fprintf(&b, "  cycle=%d window: head=%d dispatch=%d occupancy=%d/%d\n",
		p.cycle, p.headSeq, p.dispatchSeq, p.dispatchSeq-p.headSeq, p.cfg.Window)
	if hs := p.slotIndex(p.headSeq); r.seq[hs] == p.headSeq {
		f := r.flags[hs]
		fmt.Fprintf(&b, "  head seq=%d load=%v store=%v branch=%v agen=%v memIssued=%v completed=%v addrReady=%d memDone=%d dep1=%d dep2=%d parkedOn=%d\n",
			p.headSeq, f&fLoad != 0, f&fStore != 0, f&fBranch != 0, f&fAgen != 0, f&fMemIssued != 0,
			f&fCompleted != 0, r.addrReady[hs], r.memDone[hs], r.dep1[hs], r.dep2[hs], p.parkedOn[hs])
	} else {
		fmt.Fprintf(&b, "  head seq=%d not dispatched (window empty or hole)\n", p.headSeq)
	}
	if next := p.nextEventCycle(); next >= notYet {
		fmt.Fprintf(&b, "  next event: none (wheel n=%d overflow=%d)\n", p.events.n, len(p.events.over))
	} else {
		fmt.Fprintf(&b, "  next event: cycle %d (wheel n=%d overflow=%d)\n", next, p.events.n, len(p.events.over))
	}
	const maxParked = 16
	parked := 0
	for s := range p.parkedOn {
		q := p.parkedOn[s]
		if q == parkNone {
			continue
		}
		if parked++; parked > maxParked {
			continue
		}
		f := r.flags[s]
		on := "timer"
		if q >= 0 {
			on = fmt.Sprintf("slot %d (seq %d)", q, r.seq[q])
		}
		fmt.Fprintf(&b, "  parked: slot %d seq=%d load=%v store=%v on %s\n",
			s, r.seq[s], f&fLoad != 0, f&fStore != 0, on)
	}
	if parked > maxParked {
		fmt.Fprintf(&b, "  ... and %d more parked slots\n", parked-maxParked)
	}
	fmt.Fprintf(&b, "  parked=%d pendingStores=%d unpostedStores=%d fetchQ=%d postQ=%d compQ=%d",
		parked, p.pendingStores.n, p.unpostedStores.n, len(p.fetchQ)-p.fetchHead, len(p.postQ), len(p.compQ))
	return b.String()
}

// step advances the machine by one cycle. It is the zero-allocation
// warm path: after warmup, steady-state stepping must not allocate
// (pinned by TestStepZeroAllocSteadyState and enforced statically by
// mdvet's hotpathalloc walk rooted here).
//
//md:hotpath
func (p *Pipeline) step() {
	// Reset per-cycle resource pools.
	p.issueLeft = p.cfg.IssueWidth
	p.aluLeft = p.cfg.IntALUs
	p.mulLeft = p.cfg.IntMulDivs
	p.fpLeft = p.cfg.FPUnits
	p.portLeft = p.cfg.MemPorts
	p.activity = false

	p.processWakeups()
	// Stages are processed commit-first so that results produced this
	// cycle are consumed no earlier than the next cycle.
	p.processStoreEvents()
	p.commit()
	p.issue()
	p.dispatch()
	if p.cfg.SplitWindow {
		p.fetchSplit()
	} else {
		p.fetch()
	}
	p.cycle++
	if !p.activity {
		p.trySkip()
	}
	// No-op unless built with -tags mdsan; see mdsan_on.go.
	p.sanitize()
}

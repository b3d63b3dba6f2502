// Package config defines the simulated machine configurations and the
// A/B naming scheme of the paper's §3: whether an address-based scheduler
// is present (AS vs NAS) and which memory dependence speculation policy
// guides load execution.
package config

import (
	"fmt"
	"hash/fnv"
	"strings"

	"mdspec/internal/bpred"
	"mdspec/internal/cache"
	"mdspec/internal/mdp"
)

// Policy is the memory dependence speculation policy (the "B" in the
// paper's A/B configuration names).
type Policy int

// Policies from §2.1, plus the store-set extension.
const (
	// NoSpec: loads wait until all their ambiguous dependences resolve.
	NoSpec Policy = iota
	// Naive: loads access memory as soon as their address is ready.
	Naive
	// Selective: predicted-dependent loads are not speculated.
	Selective
	// StoreBarrier: loads after a predicted-dependent store all wait.
	StoreBarrier
	// Sync: speculation/synchronization via the MDPT.
	Sync
	// Oracle: perfect a-priori knowledge of all memory dependences.
	Oracle
	// StoreSets: Chrysos & Emer store-set synchronization (extension).
	StoreSets
)

var policyNames = map[Policy]string{
	NoSpec: "NO", Naive: "NAV", Selective: "SEL", StoreBarrier: "STORE",
	Sync: "SYNC", Oracle: "ORACLE", StoreSets: "SSET",
}

// String returns the paper's abbreviation (NO, NAV, SEL, STORE, SYNC,
// ORACLE) or SSET for the store-set extension.
func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy converts a paper-style abbreviation into a Policy.
func ParsePolicy(s string) (Policy, error) {
	for p, name := range policyNames {
		if strings.EqualFold(s, name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("config: unknown policy %q", s)
}

// Recovery selects the misspeculation recovery mechanism (§2 of the
// paper).
type Recovery int

// Recovery mechanisms.
const (
	// RecoverySquash is squash invalidation: the misspeculated load and
	// every younger instruction are discarded and re-fetched (the
	// hardware mechanism "used today" per the paper).
	RecoverySquash Recovery = iota
	// RecoverySelective is selective invalidation (the paper's [16]
	// reference): only the misspeculated load and the instructions that
	// consumed erroneous data re-execute; independent younger work is
	// preserved.
	RecoverySelective
)

// String names the recovery mechanism.
func (r Recovery) String() string {
	if r == RecoverySelective {
		return "selinv"
	}
	return "squash"
}

// Machine describes the simulated processor. The zero value is invalid;
// start from Default128 or Small64.
type Machine struct {
	// Window is the reorder buffer (RUU) size in entries. The LSQ and
	// store buffer are the same size (Table 2: 128-entry each).
	Window int
	// FetchWidth, IssueWidth and CommitWidth are per-cycle limits.
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	// BranchesPerCycle caps predictions consumed by fetch in one cycle.
	BranchesPerCycle int
	// FrontEndDepth is the fetch-to-dispatch latency in cycles
	// (Table 2: "a combined 4 cycles ... to be fetched and placed into
	// the reorder buffer").
	FrontEndDepth int
	// MemPorts is the number of load/store ports to the D-cache.
	MemPorts int
	// LSQSize bounds the in-flight loads+stores (the combined load/store
	// queue of Table 2); 0 means "as large as the window" (the paper's
	// configuration: both are 128 entries).
	LSQSize int
	// IntALUs, IntMulDivs, FPUnits are functional-unit pool sizes (all
	// fully pipelined).
	IntALUs    int
	IntMulDivs int
	FPUnits    int

	// UseAddressScheduler selects AS (true) vs NAS (false) configurations.
	UseAddressScheduler bool
	// SchedulerLatency is the extra latency (cycles) the address-based
	// scheduler adds to each load memory issue (Figure 3 sweeps 0..2).
	SchedulerLatency int

	// Policy is the memory dependence speculation policy.
	Policy Policy
	// PredictorTable sizes the SEL/STORE/SYNC/SSET predictor tables.
	PredictorTable mdp.TableConfig
	// BranchPredictor selects the direction predictor (default: the
	// paper's McFarling combined predictor).
	BranchPredictor bpred.Kind

	// SquashOverhead is the fixed pipeline-refill penalty, in cycles,
	// charged when a memory-order violation squashes (on top of the
	// re-fetch/re-execute cost that emerges naturally).
	SquashOverhead int
	// Recovery selects squash vs selective invalidation on violations.
	Recovery Recovery
	// PerfectCaches replaces the Table 2 hierarchy with always-hit
	// caches (ablations/tests).
	PerfectCaches bool
	// WrongPathFetch models wrong-path instruction fetch during branch
	// misprediction stalls: the front end keeps fetching sequentially
	// from the (wrong) predicted target, polluting the I-cache and L2,
	// until the branch resolves. Off by default (the base model treats
	// misprediction as a pure fetch bubble).
	WrongPathFetch bool

	// SplitWindow enables the distributed, split-window model of §3.7
	// with SplitUnits sub-windows.
	SplitWindow bool
	SplitUnits  int
}

// Name returns the paper-style configuration name, e.g. "NAS/SYNC" or
// "AS/NAV+1".
func (m Machine) Name() string {
	a := "NAS"
	if m.UseAddressScheduler {
		a = "AS"
	}
	n := a + "/" + m.Policy.String()
	if m.UseAddressScheduler && m.SchedulerLatency > 0 {
		n += fmt.Sprintf("+%d", m.SchedulerLatency)
	}
	if m.Recovery == RecoverySelective {
		n += "/selinv"
	}
	if m.SplitWindow {
		n = "SPLIT:" + n
	}
	return n
}

// Hash returns a stable 64-bit hex digest over every Machine field.
// Two configurations hash equal iff they are identical, so artifacts
// can carry configuration identity beyond the (lossy) paper-style Name:
// e.g. MDPT-size ablation variants all render as "NAS/SYNC" but hash
// differently.
func (m Machine) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", m)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Default128 is the paper's Table 2 machine: 128-entry window, 8-wide,
// 4 memory ports, 8 copies of all functional units.
func Default128() Machine {
	return Machine{
		Window:           128,
		FetchWidth:       8,
		IssueWidth:       8,
		CommitWidth:      8,
		BranchesPerCycle: 4,
		FrontEndDepth:    4,
		MemPorts:         4,
		IntALUs:          8,
		IntMulDivs:       8,
		FPUnits:          8,
		Policy:           NoSpec,
		PredictorTable:   mdp.DefaultTable(),
		SquashOverhead:   6,
	}
}

// Small64 is the 64-entry variant of §3.2: issue width 4, 2 memory
// ports, 2 copies of each functional unit.
func Small64() Machine {
	m := Default128()
	m.Window = 64
	m.IssueWidth = 4
	m.MemPorts = 2
	m.IntALUs = 2
	m.IntMulDivs = 2
	m.FPUnits = 2
	return m
}

// WithPolicy returns a copy of m with the policy set.
func (m Machine) WithPolicy(p Policy) Machine {
	m.Policy = p
	return m
}

// WithAddressScheduler returns a copy of m with the address-based
// scheduler enabled at the given latency.
func (m Machine) WithAddressScheduler(latency int) Machine {
	m.UseAddressScheduler = true
	m.SchedulerLatency = latency
	return m
}

// WithSplitWindow returns a copy of m using the split-window model with
// the given number of units.
func (m Machine) WithSplitWindow(units int) Machine {
	m.SplitWindow = true
	m.SplitUnits = units
	return m
}

// Caps on what one configuration may ask for. Each sits far above every
// experiment and every cell the benchmark serves (window 256, 16,384
// predictor entries, scheduler latency 2, front-end depth 4, squash
// overhead 6, 4 split-window units); they exist so that a request
// cannot size an allocation, or stall the machine, without bound.
// LSQSize is capped at MaxWindow, and MemPorts at cache.DCacheBanks.
//
// MaxSplitUnits bounds what a split window costs: each cycle walks
// every unit, and under AS/NAV more units issue more loads ahead of
// unresolved stores. At window MaxWindow under AS/NAV, 8,192
// instructions of the slowest of the 18 benchmarks took 0.16 s at 64
// units, 0.80 s at 128 and 3.6 s at 256; 129.compress took 26 s at
// 4,096.
const (
	MaxWindow           = 4096
	MaxPredictorEntries = 1 << 18
	MaxSchedulerLatency = 64
	MaxFrontEndDepth    = 64
	MaxSquashOverhead   = 64
	MaxSplitUnits       = 64
)

// Validate reports configuration errors: every configuration it
// accepts simulates (FuzzValidatedConfigRuns in internal/core holds it
// to that).
func (m Machine) Validate() error {
	t := m.PredictorTable
	switch {
	case m.Window <= 0:
		return fmt.Errorf("config: window must be positive")
	case m.Window > MaxWindow:
		return fmt.Errorf("config: window %d exceeds the cap of %d", m.Window, MaxWindow)
	case m.FetchWidth <= 0 || m.IssueWidth <= 0 || m.CommitWidth <= 0:
		return fmt.Errorf("config: widths must be positive")
	case m.BranchesPerCycle <= 0:
		return fmt.Errorf("config: fetch must accept at least one branch per cycle")
	case m.MemPorts <= 0:
		return fmt.Errorf("config: need at least one memory port")
	case m.MemPorts > cache.DCacheBanks:
		// A port beyond the banks adds no bandwidth, only a bank queue
		// that squashed loads keep booked.
		return fmt.Errorf("config: %d memory ports exceed the D-cache's %d banks", m.MemPorts, cache.DCacheBanks)
	case m.IntALUs <= 0 || m.FPUnits <= 0 || m.IntMulDivs <= 0:
		return fmt.Errorf("config: need at least one of each functional unit")
	case m.SchedulerLatency < 0:
		return fmt.Errorf("config: scheduler latency cannot be negative")
	case m.SchedulerLatency > MaxSchedulerLatency:
		return fmt.Errorf("config: scheduler latency %d exceeds the cap of %d", m.SchedulerLatency, MaxSchedulerLatency)
	case policyNames[m.Policy] == "":
		return fmt.Errorf("config: unknown policy %d", int(m.Policy))
	case t.Assoc < 1:
		return fmt.Errorf("config: predictor table needs at least one way")
	case t.Entries < t.Assoc || t.Entries%t.Assoc != 0:
		return fmt.Errorf("config: predictor table entries (%d) must be a positive multiple of its ways (%d)", t.Entries, t.Assoc)
	case t.Entries > MaxPredictorEntries:
		return fmt.Errorf("config: predictor table of %d entries exceeds the cap of %d", t.Entries, MaxPredictorEntries)
	case (t.Entries/t.Assoc)&(t.Entries/t.Assoc-1) != 0:
		return fmt.Errorf("config: predictor table set count %d/%d must be a power of two", t.Entries, t.Assoc)
	case m.FrontEndDepth < 0 || m.FrontEndDepth > MaxFrontEndDepth:
		return fmt.Errorf("config: front-end depth %d outside [0, %d]", m.FrontEndDepth, MaxFrontEndDepth)
	case m.SquashOverhead < 0 || m.SquashOverhead > MaxSquashOverhead:
		return fmt.Errorf("config: squash overhead %d outside [0, %d]", m.SquashOverhead, MaxSquashOverhead)
	case m.LSQSize < 0:
		return fmt.Errorf("config: LSQ size cannot be negative")
	case m.LSQSize > MaxWindow:
		return fmt.Errorf("config: LSQ size %d exceeds the cap of %d", m.LSQSize, MaxWindow)
	case m.SplitWindow && (m.SplitUnits < 2 || m.Window%m.SplitUnits != 0):
		return fmt.Errorf("config: split window needs >= 2 units evenly dividing the window")
	case m.SplitWindow && m.SplitUnits > MaxSplitUnits:
		return fmt.Errorf("config: %d split-window units exceed the cap of %d", m.SplitUnits, MaxSplitUnits)
	case m.SplitWindow && m.LSQSize != 0 && m.LSQSize < m.Window:
		// Younger tasks dispatch first and can fill a smaller LSQ while
		// the oldest task waits for a slot: the machine deadlocks.
		return fmt.Errorf("config: a split window needs an LSQ of 0 or at least the window (%d), not %d", m.Window, m.LSQSize)
	case m.UseAddressScheduler && m.Policy != NoSpec && m.Policy != Naive:
		return fmt.Errorf("config: AS configurations support only NO and NAV policies (paper §3.4)")
	case m.Recovery == RecoverySelective && m.UseAddressScheduler:
		return fmt.Errorf("config: selective invalidation applies to NAS configurations (AS corrects loads in place)")
	}
	return nil
}

// WithRecovery returns a copy of m with the recovery mechanism set.
func (m Machine) WithRecovery(r Recovery) Machine {
	m.Recovery = r
	return m
}

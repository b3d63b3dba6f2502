// Package stats collects and reduces simulation statistics. A Run holds
// the raw counters one simulation produces; helpers compute the derived
// metrics the paper reports (IPC, misspeculation rate over committed
// loads, false-dependence ratio and resolution latency) and the
// arithmetic means used in the paper's summary.
package stats

import (
	"fmt"
	"strings"
)

// Run is the outcome of a single simulation.
//
// Every exported counter added here must also reach the flat CSV
// schema in internal/experiments (the JSON artifact marshals the whole
// struct and cannot drift): mdvet's statsguard analyzer enforces the
// pairing between this annotation and the //md:statssink functions.
//
//md:statsstruct
type Run struct {
	Config    string // configuration name, e.g. "NAS/SYNC"
	Workload  string // benchmark name, e.g. "126.gcc"
	Cycles    int64
	Committed int64 // committed (retired) instructions

	CommittedLoads  int64
	CommittedStores int64

	// Misspeculations counts memory-order violations that triggered a
	// squash (per the paper: over all committed loads).
	Misspeculations int64
	// SquashedInsts counts instructions thrown away by memory-order
	// squashes (the "work lost" component of the penalty).
	SquashedInsts int64

	// FalseDepLoads counts committed loads that were delayed by at least
	// one false (ambiguous but untrue) dependence; FalseDepDelay is the
	// summed resolution latency in cycles (Table 3's definitions).
	FalseDepLoads int64
	FalseDepDelay int64

	// Branch statistics.
	Branches          int64
	BranchMispredicts int64

	// Memory system statistics.
	DCacheAccesses uint64
	DCacheMisses   uint64
	ICacheAccesses uint64
	ICacheMisses   uint64

	// Forwards counts loads satisfied from the store buffer.
	Forwards int64
	// SyncWaits counts loads delayed by predictor-enforced
	// synchronization (SYNC/SSET) or barriers (SEL/STORE).
	SyncWaits int64

	// Skipped counts instructions fast-forwarded functionally during
	// sampled simulation (not included in Committed or IPC).
	Skipped int64

	// Commit-stall breakdown: cycles in which nothing committed,
	// classified by what the oldest instruction was doing. Together with
	// the committing cycles these sum to Cycles.
	StallEmpty int64 // window empty (fetch starvation: misprediction, I-cache)
	StallMem   int64 // head is a load/store waiting on memory or the policy
	StallExec  int64 // head executing or waiting for operands/FUs
}

// StallBreakdown returns the fraction of cycles with no commit,
// split by cause (empty window / memory / execution).
func (r *Run) StallBreakdown() (empty, mem, exec float64) {
	if r.Cycles == 0 {
		return 0, 0, 0
	}
	c := float64(r.Cycles)
	return float64(r.StallEmpty) / c, float64(r.StallMem) / c, float64(r.StallExec) / c
}

// IPC returns committed instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// MisspecRate returns misspeculations per committed load.
func (r *Run) MisspecRate() float64 {
	if r.CommittedLoads == 0 {
		return 0
	}
	return float64(r.Misspeculations) / float64(r.CommittedLoads)
}

// FalseDepRate returns the fraction of committed loads delayed by false
// dependences (Table 3 "FD").
func (r *Run) FalseDepRate() float64 {
	if r.CommittedLoads == 0 {
		return 0
	}
	return float64(r.FalseDepLoads) / float64(r.CommittedLoads)
}

// FalseDepLatency returns the average false-dependence resolution
// latency in cycles (Table 3 "RL").
func (r *Run) FalseDepLatency() float64 {
	if r.FalseDepLoads == 0 {
		return 0
	}
	return float64(r.FalseDepDelay) / float64(r.FalseDepLoads)
}

// BranchMissRate returns mispredictions per executed branch.
func (r *Run) BranchMissRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.BranchMispredicts) / float64(r.Branches)
}

// String renders a one-line summary.
func (r *Run) String() string {
	return fmt.Sprintf("%-12s %-12s IPC=%.3f cycles=%d insts=%d misspec=%.4f%% bmiss=%.2f%%",
		r.Workload, r.Config, r.IPC(), r.Cycles, r.Committed,
		100*r.MisspecRate(), 100*r.BranchMissRate())
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table formats rows of (label, columns...) with aligned columns; a
// minimal fixed-width renderer for the experiment CLIs.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cols ...string) { t.Rows = append(t.Rows, cols) }

// String renders the table. Rows may be ragged: columns beyond the
// header still get their own measured width instead of being crammed
// into the last header column's width.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

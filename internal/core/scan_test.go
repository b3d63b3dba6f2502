package core

import (
	"fmt"

	"mdspec/internal/stats"
)

// This file holds the executable specification of the issue stage: a
// stepper that examines every in-flight entry every cycle, oldest
// first (the split window makes its rotating per-unit passes instead),
// and never skips a cycle. The golden equivalence test holds the
// event-driven core (candidate set, parking, event wheel, cycle skip)
// to bit-identical statistics against it.
//
// The reference never consults the candidate set, parking, or the
// wheel to decide what to examine. It does keep that bookkeeping
// current — it drains due wakeups and reports every attempt's outcome
// through afterIssue/applyParkReq — so that the wheel stays bounded and
// the invariant checks (checkInvariants, -tags mdsan) hold in both
// modes.

// runScan is Run over stepScan.
func (p *Pipeline) runScan(maxInsts int64) (*stats.Run, error) {
	maxCycles := maxInsts*200 + 100_000
	for p.res.Committed < maxInsts && !(p.traceEnded && p.headSeq >= p.traceLen) {
		p.stepScan()
		if p.cycle > maxCycles {
			return nil, fmt.Errorf("scan reference: no progress by cycle %d\n%s", p.cycle, p.deadlockSnapshot())
		}
	}
	p.captureMemStats()
	res := p.res
	return &res, nil
}

// stepScan is step with the reference issue walk and no cycle skip.
func (p *Pipeline) stepScan() {
	p.issueLeft = p.cfg.IssueWidth
	p.aluLeft = p.cfg.IntALUs
	p.mulLeft = p.cfg.IntMulDivs
	p.fpLeft = p.cfg.FPUnits
	p.portLeft = p.cfg.MemPorts

	p.processWakeups() // bookkeeping only; the walks below ignore it
	p.processStoreEvents()
	p.commit()
	if p.cfg.SplitWindow {
		p.issueSplitScan()
	} else {
		p.issueScan()
	}
	p.dispatch()
	if p.cfg.SplitWindow {
		p.fetchSplit()
	} else {
		p.fetch()
	}
	p.cycle++
	p.sanitize()
}

// scanTry examines slot s once and records the outcome in the
// scheduler bookkeeping, as the event walks do.
func (p *Pipeline) scanTry(s int32) bool {
	p.parkReq = parkNone
	if p.tryIssue(s) {
		p.afterIssue(s)
		return true
	}
	p.applyParkReq(s)
	return false
}

// issueScan is the continuous-window reference: a full
// headSeq→dispatchSeq scan every cycle.
func (p *Pipeline) issueScan() {
	for seq := p.headSeq; seq < p.dispatchSeq && p.issueLeft > 0; seq++ {
		s := p.slotIndex(seq)
		if p.rob.seq[s] != seq {
			continue
		}
		p.scanTry(s)
	}
}

// issueSplitScan is the split-window reference: round-robin across
// units, each pass offering one issue opportunity per unit, starting
// from a rotating unit, until the issue width is exhausted or nothing
// can issue.
func (p *Pipeline) issueSplitScan() {
	units := p.cfg.SplitUnits
	taskSize := int64(p.cfg.Window / units)
	cursors := make([]int64, units) // per-unit sequence cursors
	for u := range cursors {
		cursors[u] = p.headSeq
	}
	for p.issueLeft > 0 {
		progress := false
		for off := 0; off < units && p.issueLeft > 0; off++ {
			u := (p.issueRotate + off) % units
			// Advance this unit's cursor to its next issuable uop.
			for seq := cursors[u]; seq < p.headSeq+int64(p.cfg.Window); seq++ {
				if int((seq/taskSize)%int64(units)) != u {
					continue
				}
				s := p.slotIndex(seq)
				if p.rob.seq[s] != seq {
					continue
				}
				if p.scanTry(s) {
					cursors[u] = seq // revisit: entry may have a second uop
					progress = true
					break
				}
			}
		}
		if !progress {
			break
		}
	}
	p.issueRotate++
}

package core

import (
	"fmt"

	"mdspec/internal/cache"
	"mdspec/internal/stats"
)

// RunSampledInterval runs the timing/functional alternation over the
// stream region [start, end): the machine is functionally fast-forwarded
// toward start (caches and branch predictor warm, no cycles charged, no
// statistics recorded), then sampling periods of timingInsts +
// functionalInsts instructions are simulated back to back, each anchored
// at the absolute stream position start + k*period.
//
// warmupInsts requests a detailed-but-unmeasured warm-up: the last
// warmupInsts instructions before start are simulated in full timing
// mode and then erased from the statistics. Functional warming cannot
// train state that only timing exposes — above all the memory dependence
// predictors, which learn from violations and synchronizations — so a
// mid-stream segment entered with a purely functional warm-up starts
// with a cold MDPT and overstates misspeculation. The warm-up stretch
// covers the tail of the preceding functional region (positions a
// single whole-stream interval merely warms), closing that gap.
//
// It is the per-segment engine of the interval-parallel orchestrator
// (internal/parsim), which decomposes one sampled run — the paper's
// sampling methodology (§3.1) — into such segments on period
// boundaries. Because every window is delimited by absolute stream
// positions rather than committed-instruction counts, a segment's
// result depends only on (configuration, stream, bounds, windows) —
// never on which worker ran it or when — so the merged result is
// bit-identical for any worker count.
func (p *Pipeline) RunSampledInterval(start, end, timingInsts, functionalInsts, warmupInsts int64) (*stats.Run, error) {
	if err := p.checkSampled(timingInsts, functionalInsts); err != nil {
		return nil, err
	}
	if start < 0 || end <= start {
		return nil, fmt.Errorf("core: invalid sampling interval [%d, %d)", start, end)
	}
	if warmupInsts < 0 {
		return nil, fmt.Errorf("core: invalid warm-up length %d", warmupInsts)
	}
	if warmupInsts > start {
		warmupInsts = start
	}
	if p.warm.seq > start-warmupInsts {
		return nil, fmt.Errorf("core: restored warm state at %d is past the warm-up start %d",
			p.warm.seq, start-warmupInsts)
	}
	period := timingInsts + functionalInsts
	maxCycles := (end-start+warmupInsts)*200 + 100_000
	p.prewarm(start - warmupInsts)
	if warmupInsts > 0 && !p.finished() {
		// Detailed warm-up: timing-simulate [start-warmupInsts, start),
		// then drain and erase every trace of it from the statistics.
		for p.headSeq < start && !p.finished() {
			p.step()
			if p.cycle > maxCycles {
				return nil, p.sampledDeadlock("sampled-warmup")
			}
		}
		if !p.finished() {
			if err := p.drainWindow(maxCycles); err != nil {
				return nil, err
			}
			if n := start - p.fetchSeq; n > 0 {
				p.skipFunctional(n)
			}
		}
		p.resetStats()
	}
	for pStart := start; pStart < end && !p.finished(); pStart += period {
		boundary := pStart + period
		if boundary > end {
			boundary = end
		}
		if p.headSeq >= boundary {
			continue // an earlier drain overshot this entire period
		}
		if tEnd := min64(pStart+timingInsts, end); p.headSeq < tEnd {
			// Timing window, delimited by stream position.
			for p.headSeq < tEnd && !p.finished() {
				p.step()
				if p.cycle > maxCycles {
					return nil, p.sampledDeadlock("sampled-segment")
				}
			}
			if p.finished() {
				break
			}
			if err := p.drainWindow(maxCycles); err != nil {
				return nil, err
			}
		}
		// Functional window: skip to the next period boundary (the drain
		// may already have carried the machine into, or past, it). The
		// last period's trailing window warms state no further timing
		// window will observe, so it is elided.
		if boundary < end {
			if n := boundary - p.fetchSeq; n > 0 {
				p.skipFunctional(n)
			}
		}
	}
	p.captureMemStats()
	res := p.res // a copy: the caller must not keep the Pipeline alive
	return &res, nil
}

// sampledDeadlock builds the typed watchdog error for a stalled sampled
// phase, with the same machine-state snapshot the continuous-run
// watchdog emits.
func (p *Pipeline) sampledDeadlock(phase string) *DeadlockError {
	return &DeadlockError{
		Config: p.cfg.Name(), Phase: phase,
		Cycles: p.cycle, Committed: p.res.Committed,
		Snapshot: p.deadlockSnapshot(),
	}
}

// checkSampled validates the shared preconditions of the sampled entry
// points: a continuous window, sane window sizes, an unused pipeline.
func (p *Pipeline) checkSampled(timingInsts, functionalInsts int64) error {
	if p.cfg.SplitWindow {
		return fmt.Errorf("core: sampling is not supported with a split window")
	}
	if timingInsts <= 0 || functionalInsts < 0 {
		return fmt.Errorf("core: invalid sampling windows %d:%d", timingInsts, functionalInsts)
	}
	if p.cycle != 0 || p.res.Committed != 0 || p.headSeq != 0 {
		return fmt.Errorf("core: sampled run called on a used Pipeline")
	}
	return nil
}

// prewarm functionally advances a fresh pipeline to stream position seq
// and re-anchors the empty window there. The warm-up leaves no trace in
// the statistics: nothing is counted as skipped, and the cache and
// memory counters are reset afterwards, so the pipeline reports only its
// own segment's behavior.
//
// A pipeline that imported a checkpoint (RestoreWarm) arrives here with
// its warmer already mid-stream; AdvanceTo then replays only the residue
// between the checkpoint position and seq, which is the whole point of
// checkpointing. For a fresh pipeline AdvanceTo(seq) is identical to the
// full Advance(seq) fast-forward.
func (p *Pipeline) prewarm(seq int64) {
	if seq > 0 || p.warm.seq > 0 {
		p.warm.AdvanceTo(seq)
		p.fetchSeq = p.warm.seq
		if p.warm.ended {
			p.markTraceEnd()
		}
		p.headSeq = p.fetchSeq
		p.dispatchSeq = p.fetchSeq
		p.trace.Release(p.headSeq)
	}
	p.hier.D.Stats = cache.Stats{}
	p.hier.I.Stats = cache.Stats{}
	p.hier.L2.Stats = cache.Stats{}
	p.hier.Mem.Accesses = 0
}

// resetStats erases everything simulated so far from the statistics —
// the detailed warm-up of a mid-stream segment trains predictors and
// caches but must not be measured. Identity fields survive; cycles are
// reported relative to the new base from here on.
func (p *Pipeline) resetStats() {
	cfgName, wl := p.res.Config, p.res.Workload
	p.res = stats.Run{Config: cfgName, Workload: wl}
	p.cycleBase = p.cycle
	p.hier.D.Stats = cache.Stats{}
	p.hier.I.Stats = cache.Stats{}
	p.hier.L2.Stats = cache.Stats{}
	p.hier.Mem.Accesses = 0
}

// drainWindow pauses fetch and steps until the window is architecturally
// clean (everything fetched has committed).
func (p *Pipeline) drainWindow(maxCycles int64) error {
	p.draining = true
	for p.headSeq < p.dispatchSeq || len(p.fetchQ) > p.fetchHead {
		p.step()
		if p.cycle > maxCycles {
			p.draining = false
			return p.sampledDeadlock("sampled-drain")
		}
	}
	p.draining = false
	return nil
}

// finished reports whether every instruction of a finite program has
// committed.
func (p *Pipeline) finished() bool {
	return p.traceEnded && p.headSeq >= p.traceLen
}

// skipFunctional advances n instructions functionally via the embedded
// Warmer: branch predictor and caches observe the stream (staying warm)
// but no pipeline timing is modeled. The window must be empty.
func (p *Pipeline) skipFunctional(n int64) {
	// Each functional window re-observes its first instruction block; the
	// warmer's block-transition state does not survive the timing window
	// in between.
	p.warm.seq = p.fetchSeq
	p.warm.haveBlock = false
	p.res.Skipped += p.warm.Advance(n)
	p.fetchSeq = p.warm.seq
	if p.warm.ended && !p.traceEnded {
		p.markTraceEnd()
	}
	// Re-anchor the (empty) window after the skipped region.
	p.headSeq = p.fetchSeq
	p.dispatchSeq = p.fetchSeq
	p.haveFetchBlock = false
	p.blockedOnBranch = noSeq
	if p.fetchResumeAt < p.cycle {
		p.fetchResumeAt = p.cycle
	}
	p.trace.Release(p.headSeq)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

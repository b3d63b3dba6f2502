package core

import (
	"mdspec/internal/bpred"
	"mdspec/internal/cache"
	"mdspec/internal/emu"
)

// Warmer functionally replays a dynamic instruction stream into a cache
// hierarchy and a branch predictor without modeling any pipeline timing.
// It is the standalone generalization of the sampled run's functional
// windows (§3.1): the caches observe every memory reference and the
// predictor observes every conditional branch, so microarchitectural
// state stays warm, but no cycles are charged and no Pipeline is needed.
//
// A Warmer has two users: a Pipeline running RunSampledInterval, which
// fast-forwards to its segment start and skips each functional window
// with it, and checkpoint capture (internal/ckpt), which advances a
// standalone Warmer through the stream and snapshots it at each
// interval-parallel segment's warm-up start.
type Warmer struct {
	trace emu.Stream
	hier  *cache.Hierarchy
	bp    *bpred.Predictor

	seq       int64 // next stream position to replay
	lastBlock uint32
	haveBlock bool
	ended     bool
}

// NewWarmer returns a Warmer that replays trace into hier and bp,
// starting at stream position 0.
func NewWarmer(trace emu.Stream, hier *cache.Hierarchy, bp *bpred.Predictor) *Warmer {
	return &Warmer{trace: trace, hier: hier, bp: bp}
}

// Seq returns the next stream position the warmer will replay.
func (w *Warmer) Seq() int64 { return w.seq }

// Ended reports whether the warmer has observed the end of the program.
func (w *Warmer) Ended() bool { return w.ended }

// Advance functionally replays up to n instructions, warming the caches
// and the branch predictor, and returns how many instructions were
// actually replayed (fewer than n only when the program ends). It is the
// per-shard fast-forward loop of the interval-parallel engine and must
// stay allocation-free in the steady state.
//
//md:hotpath
func (w *Warmer) Advance(n int64) int64 {
	var i int64
	for ; i < n; i++ {
		d := w.trace.At(w.seq)
		if d == nil {
			w.ended = true
			break
		}
		if blk := d.PC >> iCacheBlockShift; !w.haveBlock || blk != w.lastBlock {
			w.hier.I.Warm(d.PC, false)
			w.lastBlock, w.haveBlock = blk, true
		}
		switch {
		case d.IsLoad():
			w.hier.D.Warm(d.Addr, false)
		case d.IsStore():
			w.hier.D.Warm(d.Addr, true)
		case d.Inst.Op.IsCondBranch():
			pred := w.bp.PredictDirection(d.PC)
			hist := w.bp.History()
			w.bp.SpeculateHistory(pred)
			w.bp.Resolve(d.PC, hist, pred, d.Taken)
		}
		w.seq++
	}
	return i
}

// AdvanceTo replays until the warmer's position reaches seq (or the
// program ends) and returns the number of instructions replayed.
func (w *Warmer) AdvanceTo(seq int64) int64 {
	if seq <= w.seq {
		return 0
	}
	return w.Advance(seq - w.seq)
}

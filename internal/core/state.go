package core

import (
	"encoding/binary"
	"errors"
	"sync"

	"mdspec/internal/bpred"
	"mdspec/internal/cache"
	"mdspec/internal/config"
	"mdspec/internal/emu"
)

// Warm-state export/import for the Warmer: everything a functional
// warming pass accumulates — the cache hierarchy, the branch predictor,
// and the warmer's own stream cursor — flattened to bytes and restored
// bit-exactly. This is the state a checkpoint frame (internal/ckpt)
// carries; restoring a frame captured at stream position S leaves the
// machine indistinguishable from one that functionally advanced 0→S
// itself.

// Sentinel decode errors (RestoreState is a hot path).
var (
	// ErrStateTruncated reports a warm-state buffer shorter than its
	// layout implies.
	ErrStateTruncated = errors.New("core: warm state truncated")
	// ErrPipelineUsed reports a RestoreWarm call on a pipeline that has
	// already simulated or warmed.
	ErrPipelineUsed = errors.New("core: RestoreWarm called on a used Pipeline")
	// ErrStatePosition reports a warm-state stream position below zero.
	ErrStatePosition = errors.New("core: warm state stream position negative")
)

const warmerHdrBytes = 8 + 4 + 1 // seq, lastBlock, flags

// newWarmState builds the cache hierarchy and branch predictor implied
// by a machine configuration — the warm-state-relevant slice of the
// config. Pipeline construction and standalone checkpoint capture both
// go through here, so a captured frame restores into machines with the
// exact same geometry.
func newWarmState(perfectCaches bool, kind bpred.Kind) (*cache.Hierarchy, *bpred.Predictor) {
	h := cache.Table2()
	if perfectCaches {
		h = cache.Perfect()
	}
	bpCfg := bpred.Default()
	bpCfg.Kind = kind
	return h, bpred.New(bpCfg)
}

// warmKey names a warm configuration: the two fields newWarmState reads.
type warmKey struct {
	perfectCaches bool
	kind          bpred.Kind
}

// warmState is one recycled cache hierarchy and branch predictor.
type warmState struct {
	hier *cache.Hierarchy
	bp   *bpred.Predictor
}

// warmPools holds the warm states pipelines handed back (Recycle), one
// *sync.Pool per warmKey. Every pooled state is reset to what
// newWarmState builds, so New cannot tell a recycled state from a fresh
// one; the pools let the GC drop what no simulation reuses.
var warmPools sync.Map

// takeWarmState returns a recycled warm state for the configuration, or
// a fresh one when none is pooled.
func takeWarmState(perfectCaches bool, kind bpred.Kind) (*cache.Hierarchy, *bpred.Predictor) {
	if pool, ok := warmPools.Load(warmKey{perfectCaches, kind}); ok {
		if s, ok := pool.(*sync.Pool).Get().(*warmState); ok {
			return s.hier, s.bp
		}
	}
	return newWarmState(perfectCaches, kind)
}

// Recycle hands the pipeline's cache hierarchy and branch predictor
// back, reset to the state New builds, for a later New under the same
// warm configuration: a sampled run's segments (internal/parsim) reuse
// one warm state each instead of allocating about a megabyte apiece.
// The pipeline no longer holds the state and must not be used after.
func (p *Pipeline) Recycle() {
	if p.hier == nil {
		return
	}
	p.hier.Reset()
	p.bp.Reset()
	key := warmKey{p.cfg.PerfectCaches, p.cfg.BranchPredictor}
	pool, ok := warmPools.Load(key)
	if !ok {
		pool, _ = warmPools.LoadOrStore(key, new(sync.Pool))
	}
	pool.(*sync.Pool).Put(&warmState{p.hier, p.bp})
	p.hier, p.bp = nil, nil
	p.warm.hier, p.warm.bp = nil, nil
}

// NewMachineWarmer returns a standalone Warmer over the cache hierarchy
// and branch predictor that cfg's Pipeline would build — the capture
// side of checkpointing: advance it through the stream and snapshot its
// state at the positions of interest.
func NewMachineWarmer(cfg config.Machine, trace emu.Stream) *Warmer {
	h, bp := newWarmState(cfg.PerfectCaches, cfg.BranchPredictor)
	return NewWarmer(trace, h, bp)
}

// StateLen returns the exact AppendState footprint of this warmer.
func (w *Warmer) StateLen() int {
	return warmerHdrBytes + w.hier.StateLen() + w.bp.StateLen()
}

// AppendState appends the warmer's complete warm state — cursor, cache
// hierarchy, branch predictor — to b and returns the extended slice.
func (w *Warmer) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(w.seq))
	b = binary.LittleEndian.AppendUint32(b, w.lastBlock)
	var flags byte
	if w.haveBlock {
		flags |= 1
	}
	if w.ended {
		flags |= 2
	}
	b = append(b, flags)
	b = w.hier.AppendState(b)
	return w.bp.AppendState(b)
}

// StateSeq returns the stream position of a warm state AppendState
// wrote: the position its warmer had reached, where a restored machine
// resumes.
func StateSeq(state []byte) (int64, error) {
	if len(state) < warmerHdrBytes {
		return 0, ErrStateTruncated
	}
	return int64(binary.LittleEndian.Uint64(state)), nil
}

// RestoreState overwrites the warmer's state from the front of b and
// returns the bytes consumed. On error the warmer may be partially
// restored; callers must discard the machine.
//
//md:hotpath
func (w *Warmer) RestoreState(b []byte) (int, error) {
	seq, err := StateSeq(b)
	if err != nil {
		return 0, err
	}
	if seq < 0 {
		return 0, ErrStatePosition
	}
	lastBlock := binary.LittleEndian.Uint32(b[8:])
	flags := b[12]
	off := warmerHdrBytes
	n, err := w.hier.RestoreState(b[off:])
	off += n
	if err != nil {
		return off, err
	}
	n, err = w.bp.RestoreState(b[off:])
	off += n
	if err != nil {
		return off, err
	}
	w.seq = seq
	w.lastBlock = lastBlock
	w.haveBlock = flags&1 != 0
	w.ended = flags&2 != 0
	return off, nil
}

// RestoreWarm imports a warm-state snapshot into a fresh pipeline, as if
// the pipeline had functionally fast-forwarded to the snapshot's stream
// position itself. The next RunSampledInterval then only advances the
// residue between the snapshot position and its warm-up start.
//
// It must be called before any simulation; restoring into a used
// pipeline returns ErrPipelineUsed. On a decode error the pipeline may
// hold partial state and must be discarded (the interval-parallel
// engine rebuilds the machine and falls back to a full functional
// fast-forward).
func (p *Pipeline) RestoreWarm(state []byte) error {
	if p.cycle != 0 || p.res.Committed != 0 || p.headSeq != 0 || p.fetchSeq != 0 || p.warm.seq != 0 {
		return ErrPipelineUsed
	}
	_, err := p.warm.RestoreState(state)
	return err
}

// Package bpred implements the branch prediction hardware from the
// paper's Table 2: a 64K-entry McFarling combined predictor (a 2-bit
// bimodal component, a gselect component with 5 bits of global history,
// and a 2-bit-counter selector), a 2K-entry branch target buffer, and a
// 64-entry return-address stack.
package bpred

import "mdspec/internal/isa"

// Kind selects the direction-prediction scheme.
type Kind int

// Direction predictor kinds. The paper's machine uses Combined
// (McFarling); the others exist for sensitivity studies.
const (
	// Combined: bimodal + gselect chosen by a 2-bit selector (Table 2).
	Combined Kind = iota
	// GShare: single table indexed by PC xor global history.
	GShare
	// Bimodal: single 2-bit-counter table indexed by PC.
	Bimodal
	// StaticTaken: always predicts taken (no learning).
	StaticTaken
)

// String names the predictor kind.
func (k Kind) String() string {
	switch k {
	case GShare:
		return "gshare"
	case Bimodal:
		return "bimodal"
	case StaticTaken:
		return "static-taken"
	}
	return "combined"
}

// Config sizes the predictor. The zero value is invalid; use Default.
type Config struct {
	Kind         Kind
	TableEntries int // entries per component table (bimodal, gselect, selector)
	HistoryBits  int // global history bits for gselect
	BTBEntries   int
	RASEntries   int
}

// Default is the paper's Table 2 configuration.
func Default() Config {
	return Config{Kind: Combined, TableEntries: 64 * 1024, HistoryBits: 5, BTBEntries: 2048, RASEntries: 64}
}

// counter is a 2-bit saturating counter; taken when >= 2.
type counter uint8

func (c *counter) update(taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func (c counter) taken() bool { return c >= 2 }

// Predictor is the combined branch predictor.
type Predictor struct {
	cfg      Config
	bimodal  []counter
	gselect  []counter
	selector []counter // >= 2 selects gselect, else bimodal
	history  uint32    // speculative global history (youngest bit = last branch)
	histMask uint32
	idxMask  uint32

	btb    []btbEntry
	btbWay uint32
	ras    []uint32
	rasTop int

	// statistics
	Lookups, DirMisses, TargetMisses uint64
}

type btbEntry struct {
	tag    uint32
	target uint32
	valid  bool
}

// New returns a predictor with cfg (all table sizes must be powers of two).
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:      cfg,
		bimodal:  make([]counter, cfg.TableEntries),
		gselect:  make([]counter, cfg.TableEntries),
		selector: make([]counter, cfg.TableEntries),
		histMask: uint32(1<<cfg.HistoryBits) - 1,
		idxMask:  uint32(cfg.TableEntries) - 1,
		btb:      make([]btbEntry, cfg.BTBEntries),
		ras:      make([]uint32, cfg.RASEntries),
	}
	p.Reset()
	return p
}

func pcIndex(pc uint32) uint32 { return pc >> 2 }

func (p *Predictor) bimodalIdx(pc uint32) uint32 { return pcIndex(pc) & p.idxMask }

// gselectIdx concatenates low PC bits with the supplied global history
// snapshot. The history used to predict a branch must also be used to
// train it, so the snapshot travels with the in-flight branch.
func (p *Predictor) gselectIdx(pc, hist uint32) uint32 {
	return ((pcIndex(pc) << p.cfg.HistoryBits) | (hist & p.histMask)) & p.idxMask
}

// History returns the current speculative global history. Callers save it
// at prediction time and pass it back to Resolve.
func (p *Predictor) History() uint32 { return p.history }

// gshareIdx xors low PC bits with the history (for Kind == GShare).
func (p *Predictor) gshareIdx(pc, hist uint32) uint32 {
	return (pcIndex(pc) ^ (hist & p.histMask)) & p.idxMask
}

// PredictDirection returns the predicted direction for a conditional
// branch at pc under the current global history. It does not update any
// state.
func (p *Predictor) PredictDirection(pc uint32) bool {
	switch p.cfg.Kind {
	case StaticTaken:
		return true
	case Bimodal:
		return p.bimodal[p.bimodalIdx(pc)].taken()
	case GShare:
		return p.gselect[p.gshareIdx(pc, p.history)].taken()
	}
	bi := p.bimodal[p.bimodalIdx(pc)].taken()
	gs := p.gselect[p.gselectIdx(pc, p.history)].taken()
	if p.selector[p.bimodalIdx(pc)].taken() {
		return gs
	}
	return bi
}

// SpeculateHistory shifts a predicted direction into the global history;
// call once per predicted conditional branch, at prediction time.
func (p *Predictor) SpeculateHistory(taken bool) {
	p.history = (p.history << 1) & p.histMask
	if taken {
		p.history |= 1
	}
}

// Resolve trains the direction tables with the actual outcome of the
// conditional branch at pc. hist must be the global history snapshot
// taken when the branch was predicted (History() before
// SpeculateHistory). If the prediction was wrong the speculative history
// is repaired to the post-branch architectural state.
func (p *Predictor) Resolve(pc, hist uint32, predicted, actual bool) {
	switch p.cfg.Kind {
	case StaticTaken:
		// No tables to train.
	case Bimodal:
		p.bimodal[p.bimodalIdx(pc)].update(actual)
	case GShare:
		p.gselect[p.gshareIdx(pc, hist)].update(actual)
	default:
		bIdx, gIdx := p.bimodalIdx(pc), p.gselectIdx(pc, hist)
		bi := p.bimodal[bIdx]
		gs := p.gselect[gIdx]
		// Selector trains toward whichever component was right (when
		// they disagree).
		if bi.taken() != gs.taken() {
			p.selector[bIdx].update(gs.taken() == actual)
		}
		p.bimodal[bIdx].update(actual)
		p.gselect[gIdx].update(actual)
	}
	p.Lookups++
	if predicted != actual {
		p.DirMisses++
		// On a misprediction everything fetched after the branch is
		// squashed, so the speculative history reverts to the snapshot
		// extended with the actual outcome.
		p.history = ((hist << 1) | boolBit(actual)) & p.histMask
	}
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// btbIdx maps a PC to its BTB set (direct mapped).
func (p *Predictor) btbIdx(pc uint32) uint32 {
	return pcIndex(pc) & uint32(len(p.btb)-1)
}

// LookupTarget returns the predicted target of the taken branch or jump
// at pc and whether the BTB hit.
func (p *Predictor) LookupTarget(pc uint32) (uint32, bool) {
	e := &p.btb[p.btbIdx(pc)]
	if e.valid && e.tag == pc {
		return e.target, true
	}
	return 0, false
}

// UpdateTarget installs pc -> target in the BTB.
func (p *Predictor) UpdateTarget(pc, target uint32) {
	e := &p.btb[p.btbIdx(pc)]
	e.tag, e.target, e.valid = pc, target, true
}

// PushReturn pushes a return address (used on calls).
func (p *Predictor) PushReturn(addr uint32) {
	p.ras[p.rasTop%len(p.ras)] = addr
	p.rasTop++
}

// PopReturn pops and returns the predicted return address; ok is false
// if the stack is empty.
func (p *Predictor) PopReturn() (uint32, bool) {
	if p.rasTop == 0 {
		return 0, false
	}
	p.rasTop--
	return p.ras[p.rasTop%len(p.ras)], true
}

// Predict predicts the outcome of the branch instruction in at pc:
// whether it is taken and, if taken, its target. Call SpeculateHistory
// separately for conditional branches, and Resolve when the branch
// executes. nextPC is the fall-through address.
func (p *Predictor) Predict(pc uint32, in *isa.Inst, nextPC uint32) (taken bool, target uint32) {
	switch in.Op {
	case isa.J:
		return true, in.Target
	case isa.JAL:
		p.PushReturn(nextPC)
		return true, in.Target
	case isa.JR:
		if t, ok := p.PopReturn(); ok {
			return true, t
		}
		if t, ok := p.LookupTarget(pc); ok {
			return true, t
		}
		return true, 0 // unknown target: caller treats as misprediction
	default: // conditional
		taken = p.PredictDirection(pc)
		if !taken {
			return false, nextPC
		}
		return true, in.Target
	}
}

// MissRate returns the fraction of resolved conditional branches whose
// direction was mispredicted.
func (p *Predictor) MissRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.DirMisses) / float64(p.Lookups)
}

package core

import (
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/isa"
)

// iCacheBlockShift matches the 32-byte I-cache blocks of Table 2.
const iCacheBlockShift = 5

// maxFetchBlocks is the fetch unit's per-cycle limit on distinct
// (possibly non-contiguous) instruction blocks (Table 2: "Combining of
// up to 4 non-continuous blocks").
const maxFetchBlocks = 4

// wrongPathBlockBudget caps how far down the wrong path the front end
// streams before it would realistically have filled its fetch buffers.
const wrongPathBlockBudget = 8

// ReadAhead bounds how far past its instruction budget any run of a
// configuration Validate accepts reads the stream. A run stops once
// commit reaches the budget, and one cycle can commit at most the
// window, so commit overshoots by less than config.MaxWindow; fetch, in
// both fetch and fetchSplit, never runs more than Window ahead of
// commit. Wrong-path fetch touches only the I-cache, and refetch after
// a squash reads older positions. A sampled run reads below the end of
// its last period plus the same bound, since its functional windows
// skip only up to a period boundary.
const ReadAhead = 2 * config.MaxWindow

// fetch implements the continuous-window front end: instructions are
// fetched strictly in program order; a mispredicted branch stalls fetch
// until the branch executes.
func (p *Pipeline) fetch() {
	if p.blockedOnBranch != noSeq && p.cfg.WrongPathFetch && p.wrongPathBlocks > 0 {
		// Pollute the I-cache along the mispredicted path, one block per
		// cycle, until the branch resolves.
		p.hier.I.Access(p.wrongPathPC, p.cycle, false)
		p.wrongPathPC += 1 << iCacheBlockShift
		p.wrongPathBlocks--
		p.activity = true
	}
	if p.draining || p.blockedOnBranch != noSeq || p.cycle < p.fetchResumeAt {
		return
	}
	if p.traceEnded && p.fetchSeq >= p.traceLen {
		return
	}
	fetched, branches, blocks := 0, 0, 0
	for fetched < p.cfg.FetchWidth {
		// Respect the window: never run further than Window ahead of
		// commit (the front-end queue is part of that budget). This is
		// what frees the slot that stage writes: its previous occupant
		// has committed or was squashed.
		if p.fetchSeq >= p.headSeq+int64(p.cfg.Window) {
			break
		}
		d := p.trace.At(p.fetchSeq)
		if d == nil {
			p.markTraceEnd()
			return
		}
		// Instruction cache: charge one access per block transition.
		blk := d.PC >> iCacheBlockShift
		if !p.haveFetchBlock || blk != p.lastFetchBlock {
			if blocks == maxFetchBlocks {
				break
			}
			blocks++
			done := p.hier.I.Access(d.PC, p.cycle, false)
			p.activity = true
			p.lastFetchBlock, p.haveFetchBlock = blk, true
			if done > p.cycle+p.hier.I.Config().HitLatency {
				// Miss: these instructions arrive when the fill does.
				p.fetchResumeAt = done
				break
			}
		}
		isBranch := d.IsBranch()
		if isBranch {
			if branches == p.cfg.BranchesPerCycle {
				break
			}
			branches++
		}
		seq := p.fetchSeq
		s := p.slotIndex(seq)
		p.stage(s, d)
		wrong, wrongPC := false, uint32(0)
		if isBranch {
			wrong, wrongPC = p.predictBranch(s, d)
		}
		//md:allocok amortized: fetchQ reaches its steady capacity and is reused
		p.fetchQ = append(p.fetchQ, fetchRec{seq: seq, ready: p.cycle + int64(p.cfg.FrontEndDepth)})
		p.fetchSeq++
		fetched++
		p.activity = true
		if wrong {
			// Stall until the branch resolves; optionally stream
			// wrong-path fetches meanwhile.
			p.blockedOnBranch = seq
			p.wrongPathPC = wrongPC
			p.wrongPathBlocks = wrongPathBlockBudget
			break
		}
	}
}

// predictBranch runs the branch predictor for the fetched branch d,
// records the prediction in d's window slot s, and reports whether the
// predicted next PC differs from the architectural one, along with the
// predicted (wrong-path) next PC.
func (p *Pipeline) predictBranch(s int32, d *emu.DynInst) (wrong bool, wrongPC uint32) {
	r := &p.rob
	in := d.Inst
	fallthrough_ := d.PC + isa.InstBytes
	if in.Op.IsCondBranch() {
		r.bpHist[s] = p.bp.History()
		pred := p.bp.PredictDirection(d.PC)
		p.bp.SpeculateHistory(pred)
		wrong = pred != d.Taken
		f := fBpIsCond
		wrongPC = fallthrough_
		if pred {
			f |= fBpPred
			wrongPC = in.Target
		}
		if wrong {
			f |= fBpWrong
		}
		r.set(s, f)
		return wrong, wrongPC
	}
	_, tgt := p.bp.Predict(d.PC, in, fallthrough_)
	if tgt != d.NextPC {
		r.set(s, fBpWrong)
		return true, tgt
	}
	return false, tgt
}

// fetchSplit implements the distributed, split-window front end of §3.7:
// the window is divided into SplitUnits sub-windows; tasks (contiguous
// trace chunks the size of a sub-window) are assigned round-robin; each
// unit fetches its own task independently, so younger instructions may
// be fetched long before older ones.
func (p *Pipeline) fetchSplit() {
	units := p.cfg.SplitUnits
	perUnit := p.cfg.FetchWidth / units
	if perUnit == 0 {
		perUnit = 1
	}
	taskSize := int64(p.cfg.Window / units)
	for u := 0; u < units; u++ {
		if p.unitFetchSeq[u] == noSeq {
			p.unitFetchSeq[u] = int64(u) * taskSize // initial task
		}
		if p.unitBlockedOn[u] != noSeq || p.cycle < p.unitResumeAt[u] {
			continue
		}
		fetched, branches, blocks := 0, 0, 0
		for fetched < perUnit {
			seq := p.unitFetchSeq[u]
			if p.traceEnded && seq >= p.traceLen {
				break // this unit has run off the end of the program
			}
			// The slot must be free (previous occupant committed):
			// fetch stages the instruction into it.
			if seq >= p.headSeq+int64(p.cfg.Window) {
				break
			}
			d := p.trace.At(seq)
			if d == nil {
				p.markTraceEnd()
				break
			}
			blk := d.PC >> iCacheBlockShift
			if !p.unitHaveBlock[u] || blk != p.unitFetchBlock[u] {
				if blocks == maxFetchBlocks {
					break
				}
				blocks++
				done := p.hier.I.Access(d.PC, p.cycle, false)
				p.activity = true
				p.unitFetchBlock[u], p.unitHaveBlock[u] = blk, true
				if done > p.cycle+p.hier.I.Config().HitLatency {
					p.unitResumeAt[u] = done
					break
				}
			}
			isBranch := d.IsBranch()
			if isBranch {
				if branches == p.cfg.BranchesPerCycle {
					break
				}
				branches++
			}
			s := p.slotIndex(seq)
			p.stage(s, d)
			wrong := false
			if isBranch {
				wrong, _ = p.predictBranch(s, d)
			}
			//md:allocok amortized: fetchQ reaches its steady capacity and is reused
			p.fetchQ = append(p.fetchQ, fetchRec{seq: seq, ready: p.cycle + int64(p.cfg.FrontEndDepth)})
			p.advanceUnitFetch(u, taskSize)
			fetched++
			p.activity = true
			if wrong {
				p.unitBlockedOn[u] = seq
				break
			}
		}
	}
}

// advanceUnitFetch moves unit u's fetch pointer to the next instruction
// of its current task, or to the start of its next task.
func (p *Pipeline) advanceUnitFetch(u int, taskSize int64) {
	seq := p.unitFetchSeq[u] + 1
	if seq%taskSize == 0 {
		// Finished the task: skip to this unit's next one.
		seq += int64(p.cfg.SplitUnits-1) * taskSize
	}
	p.unitFetchSeq[u] = seq
}

// dispatch moves front-end instructions into the window, applying
// per-policy dispatch-time work (predictor lookups, synonym matching).
// The instructions are already staged in their slots; the queue holds
// only their sequence numbers and ready cycles.
func (p *Pipeline) dispatch() {
	width := p.cfg.IssueWidth
	lsq := p.cfg.LSQSize
	if lsq == 0 {
		lsq = p.cfg.Window
	}
	dispatched := 0
	if !p.cfg.SplitWindow {
		// Program order: a stalled record stalls everything younger, so
		// the queue is consumed from the head and the cursor advances.
		h := p.fetchHead
		for ; h < len(p.fetchQ); h++ {
			rec := p.fetchQ[h]
			lsqFull := p.memInFlight >= lsq && p.rob.has(p.slotIndex(rec.seq), fMem)
			if dispatched >= width || rec.ready > p.cycle || rec.seq >= p.headSeq+int64(p.cfg.Window) || lsqFull {
				break
			}
			p.dispatchOne(rec.seq)
			dispatched++
		}
		p.fetchHead = h
		if h == len(p.fetchQ) {
			p.fetchQ = p.fetchQ[:0]
			p.fetchHead = 0
		} else if h > 0 && 2*h >= cap(p.fetchQ) {
			// Normalize occasionally so fetch's tail appends reuse the
			// front of the array instead of growing it without bound.
			n := copy(p.fetchQ, p.fetchQ[h:])
			p.fetchQ = p.fetchQ[:n]
			p.fetchHead = 0
		}
	} else {
		// Split window: units dispatch independently, so stalled records
		// are skipped and the queue is compacted in place.
		out := p.fetchQ[:0]
		for _, rec := range p.fetchQ {
			lsqFull := p.memInFlight >= lsq && p.rob.has(p.slotIndex(rec.seq), fMem)
			if dispatched >= width || rec.ready > p.cycle || rec.seq >= p.headSeq+int64(p.cfg.Window) || lsqFull {
				//md:allocok reuse-append into fetchQ[:0]; never exceeds the old length
				out = append(out, rec)
				continue
			}
			p.dispatchOne(rec.seq)
			dispatched++
		}
		p.fetchQ = out
	}
	if dispatched > 0 {
		p.activity = true
	}
}

// opMeta precomputes the dispatch-time window flags and functional-unit
// class per opcode, replacing a handful of per-instruction predicate
// calls with one table read. Indexed by the full uint8 opcode range so
// the lookup never bounds-checks.
var opMeta [256]struct {
	flags uint32
	class isa.Class
}

func init() {
	for i := range opMeta {
		op := isa.Op(i)
		f := uint32(0)
		if op.IsLoad() {
			f |= fLoad | fMem
		}
		if op.IsStore() {
			f |= fStore | fMem
		}
		if op.IsBranch() {
			f |= fBranch
		}
		if op == isa.JR {
			f |= fJR
		}
		opMeta[i].flags = f
		opMeta[i].class = op.Class()
	}
}

// stage writes the fetched instruction d into its window slot s: every
// column but seq, which dispatchOne writes to publish the entry. The
// slot is free (fetch never runs more than Window ahead of commit) and
// nothing reads a slot's other columns until seq names it, so fetch
// fills the slot in place and no record is copied on the way to
// dispatch. Every column is written explicitly: slots are reused and
// carry a previous occupant's values; colparity enforces the
// every-column contract. predictBranch adds the prediction afterwards.
//
//md:hotpath
//md:soalifecycle robCols
//md:colok seq dispatchOne publishes the slot
func (p *Pipeline) stage(s int32, d *emu.DynInst) {
	r := &p.rob
	m := &opMeta[d.Inst.Op]
	f := m.flags
	if d.Taken {
		f |= fTaken
	}
	r.flags[s] = f
	r.class[s] = m.class
	r.doneCycle[s] = notYet
	r.addrReady[s] = notYet
	r.addrPosted[s] = notYet
	r.memIssue[s] = 0
	r.memDone[s] = notYet
	r.couldIssue[s] = notYet
	r.dep1[s] = d.Dep1Seq
	r.dep2[s] = d.Dep2Seq
	r.prod[s] = d.ProducerSeq
	r.valueSource[s] = noSeq
	r.syncOnSeq[s] = noSeq
	r.specValue[s] = 0
	r.loadVal[s] = d.LoadVal
	r.storeVal[s] = d.StoreVal
	r.pc[s] = d.PC
	r.addr[s] = d.Addr
	r.nextPC[s] = d.NextPC
	r.synonym[s] = 0
	r.bpHist[s] = 0
}

// dispatchOne moves the staged instruction seq into the window: it
// publishes the slot, applies the policy's dispatch-time work and makes
// the entry a wakeup candidate.
//
//md:hotpath
func (p *Pipeline) dispatchOne(seq int64) {
	s := p.slotIndex(seq)
	r := &p.rob
	r.seq[s] = seq
	if seq >= p.dispatchSeq {
		p.dispatchSeq = seq + 1
	}
	switch f := r.flags[s]; {
	case f&fStore != 0:
		p.memInFlight++
		p.dispatchStore(s)
	case f&fLoad != 0:
		p.memInFlight++
		p.dispatchLoad(s)
	}
	p.candInsert(seq)
}

// dispatchStore applies store-side policy work at dispatch.
func (p *Pipeline) dispatchStore(s int32) {
	r := &p.rob
	seq := r.seq[s]
	p.pendingStores.insert(s, seq)
	if p.cfg.UseAddressScheduler {
		p.unpostedStores.insert(s, seq)
	}
	switch p.cfg.Policy {
	case config.StoreBarrier:
		if p.sbar.Predict(r.pc[s], p.cycle) {
			r.set(s, fBarrier)
			p.pendingBarriers.insert(s, seq)
		}
	case config.Sync:
		if syn, ok := p.mdpt.StoreSynonym(r.pc[s], p.cycle); ok {
			r.set(s, fStoreIsSyn)
			r.synonym[s] = syn
		}
	case config.StoreSets:
		if id, ok := p.ssets.SSID(r.pc[s], p.cycle); ok {
			r.set(s, fStoreIsSyn)
			r.synonym[s] = id
		}
	}
}

// dispatchLoad applies load-side policy work at dispatch.
func (p *Pipeline) dispatchLoad(s int32) {
	r := &p.rob
	switch p.cfg.Policy {
	case config.Selective:
		if p.sel.Predict(r.pc[s], p.cycle) {
			r.set(s, fWaitAll)
		}
	case config.Sync:
		if syn, ok := p.mdpt.LoadSynonym(r.pc[s], p.cycle); ok {
			r.set(s, fHasSyn)
			r.synonym[s] = syn
			r.syncOnSeq[s] = p.closestSynonymStore(r.seq[s], syn)
		}
	case config.StoreSets:
		if id, ok := p.ssets.SSID(r.pc[s], p.cycle); ok {
			r.set(s, fHasSyn)
			r.synonym[s] = id
			r.syncOnSeq[s] = p.closestSynonymStore(r.seq[s], id)
		}
	}
}

// closestSynonymStore returns the youngest in-window store older than
// loadSeq marked as a producer of synonym syn, or noSeq.
func (p *Pipeline) closestSynonymStore(loadSeq int64, syn uint32) int64 {
	lo := p.headSeq
	for q := loadSeq - 1; q >= lo; q-- {
		s := p.slotIndex(q)
		if p.rob.seq[s] != q {
			continue
		}
		f := p.rob.flags[s]
		if f&fStore != 0 && f&fStoreIsSyn != 0 && p.rob.synonym[s] == syn {
			return q
		}
	}
	return noSeq
}

// markTraceEnd records the program's exact dynamic length the first time
// fetch runs off the end of the trace. Other fetch sequencers (split
// window) keep fetching instructions below this bound.
func (p *Pipeline) markTraceEnd() {
	p.traceEnded = true
	p.traceLen = p.trace.Len()
}

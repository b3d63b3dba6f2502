package core

import "mdspec/internal/config"

// processStoreEvents runs at the start of each cycle: it publishes store
// addresses that have reached the address-based scheduler (AS) and
// finalizes stores whose execution completes this cycle — inserting them
// into the disambiguation structures and checking younger speculative
// loads for memory-order violations.
func (p *Pipeline) processStoreEvents() {
	r := &p.rob
	if len(p.postQ) > 0 {
		keep := p.postQ[:0]
		for _, seq := range p.postQ {
			s := p.slotIndex(seq)
			if r.seq[s] != seq {
				continue // squashed
			}
			if p.cycle < r.addrPosted[s] {
				//md:allocok reuse-append into postQ[:0]; never exceeds the old length
				keep = append(keep, seq)
				continue
			}
			// The address is now visible to the scheduler: it no longer
			// blocks AS/NO loads, and matching loads will wait on it.
			p.unpostedStores.remove(s, seq)
			p.stores.insert(s, r.addr[s], seq)
			p.activity = true
		}
		p.postQ = keep
	}
	if len(p.compQ) > 0 {
		keep := p.compQ[:0]
		for _, seq := range p.compQ {
			s := p.slotIndex(seq)
			if r.seq[s] != seq || r.flags[s]&fMemIssued == 0 {
				continue // squashed or selectively invalidated
			}
			if p.cycle < r.memDone[s] {
				//md:allocok reuse-append into compQ[:0]; never exceeds the old length
				keep = append(keep, seq)
				continue
			}
			p.completeStore(s)
			p.activity = true
		}
		p.compQ = keep
	}
}

// completeStore finalizes an executed store: its data is in the store
// buffer and its address is known to the violation-detection hardware.
func (p *Pipeline) completeStore(s int32) {
	r := &p.rob
	seq := r.seq[s]
	r.set(s, fCompleted)
	p.pendingStores.remove(s, seq)
	if r.flags[s]&fBarrier != 0 {
		p.pendingBarriers.remove(s, seq)
	}
	if !p.cfg.UseAddressScheduler {
		// Under AS the address was published at posting time.
		p.stores.insert(s, r.addr[s], seq)
	} else {
		p.unpostedStores.remove(s, seq)
	}
	p.checkViolations(s)
}

// checkViolations scans younger loads that already performed a memory
// access to the same word without seeing this store's value. Under NAS
// policies a match squashes immediately; under AS/NAV the paper's three
// conditions apply (§3.4): the load must have read, propagated the value
// to a dependent, and the value must differ — otherwise the load's value
// is silently corrected in the store buffer.
func (p *Pipeline) checkViolations(st int32) {
	r := &p.rob
	stSeq := r.seq[st]
	stAddr := r.addr[st]
	stVal := r.storeVal[st]
	// Snapshot the matching younger loads before processing them. The
	// recovery actions below (squashFrom, selectiveInvalidate) remove
	// loads from the very address chain being walked — including loads
	// other than the one being recovered, when consumers are reset
	// transitively — so iterating the live chain would skip entries
	// mid-scan. The snapshot is ascending in sequence number (the chain
	// is sorted), and every entry is revalidated before processing.
	t := &p.loads
	scratch := p.violScratch[:0]
	b := t.bucket(stAddr)
	for s := t.bhead[b]; s != nilSlot; s = t.next[s] {
		if t.addr[s] == stAddr && t.seq[s] > stSeq {
			//md:allocok amortized: violScratch grows to the deepest match set and is reused
			scratch = append(scratch, t.seq[s])
		}
	}
	p.violScratch = scratch
	for _, ls := range scratch {
		le := p.slotIndex(ls)
		if r.seq[le] != ls || r.flags[le]&fMemIssued == 0 {
			continue
		}
		if r.valueSource[le] >= stSeq {
			continue // load already saw this store (or a younger one)
		}
		if p.cfg.UseAddressScheduler {
			if r.flags[le]&fPropagated != 0 && r.specValue[le] != stVal {
				p.squashFrom(le, st)
				return
			}
			// Silent or un-propagated: correct the load in place.
			r.valueSource[le] = stSeq
			r.specValue[le] = stVal
			if r.flags[le]&fPropagated == 0 {
				nd := max64(r.memDone[le], p.cycle+1)
				r.memDone[le], r.doneCycle[le] = nd, nd
				p.events.push(nd, le)
			}
			continue
		}
		// NAS detection is address-based: any match is a violation.
		if p.cfg.Recovery == config.RecoverySelective {
			p.selectiveInvalidate(le, st)
			continue // later loads of the same word may also need fixing
		}
		// Returning mid-scan after a squash is correct, not an early
		// exit: the snapshot is ascending, so every remaining entry is
		// younger than the squashed load and was just invalidated by
		// squashFrom (which kills the load and everything after it).
		// Re-executed loads re-enter the chain and, if they misspeculate
		// again, are caught by a later completion's scan.
		p.squashFrom(le, st)
		return
	}
}

// selectiveInvalidate implements the paper's §2 alternative to squash
// invalidation: only the misspeculated load and the instructions that
// consumed its erroneous value are re-executed; independent younger work
// survives. The load re-forwards the store's value; every transitive
// consumer is reset to re-issue.
func (p *Pipeline) selectiveInvalidate(load, st int32) {
	r := &p.rob
	p.res.Misspeculations++
	p.trainPredictors(r.pc[load], r.pc[st])

	// The load re-executes by forwarding the just-completed store.
	loadSeq := r.seq[load]
	r.valueSource[load] = r.seq[st]
	r.specValue[load] = r.storeVal[st]
	r.clear(load, fPropagated)
	nd := max64(p.cycle+1+int64(p.cfg.SquashOverhead), r.memDone[st]+1)
	r.memDone[load], r.doneCycle[load] = nd, nd
	p.events.push(nd, load)
	p.res.SquashedInsts++ // work redone

	// Transitively reset consumers of invalidated values. The invalid
	// set is a generation-stamped mark per window slot (invGen/invSeq):
	// bumping curGen clears the previous pass for free, so no per-call
	// map is allocated.
	p.curGen++
	g := p.curGen
	p.invGen[load], p.invSeq[load] = g, loadSeq
	for seq := loadSeq + 1; seq < p.dispatchSeq; seq++ {
		s := p.slotIndex(seq)
		if r.seq[s] != seq {
			continue
		}
		f := r.flags[s]
		depends := p.invalidated(r.dep1[s], g, loadSeq) || p.invalidated(r.dep2[s], g, loadSeq) ||
			(f&fLoad != 0 && f&fMemIssued != 0 && p.invalidated(r.valueSource[s], g, loadSeq))
		if !depends {
			continue
		}
		if p.resetForReexecution(s) {
			p.invGen[s], p.invSeq[s] = g, seq
			p.res.SquashedInsts++
		}
	}
}

// invalidated reports whether seq was marked in invalidation pass g.
// Marks older than base can never have been set this pass (only the
// recovered load and younger consumers are marked), so the guard also
// keeps noSeq and committed producers out of the slot arithmetic.
func (p *Pipeline) invalidated(seq, g, base int64) bool {
	if seq == noSeq || seq < base {
		return false
	}
	s := p.slotIndex(seq)
	return p.invGen[s] == g && p.invSeq[s] == seq
}

// trainPredictors records a violation with whichever dependence
// predictor the active policy uses.
func (p *Pipeline) trainPredictors(loadPC, storePC uint32) {
	switch p.cfg.Policy {
	case config.Selective:
		p.sel.RecordViolation(loadPC, p.cycle)
	case config.StoreBarrier:
		p.sbar.RecordViolation(storePC, p.cycle)
	case config.Sync:
		p.mdpt.RecordViolation(loadPC, storePC, p.cycle)
	case config.StoreSets:
		p.ssets.RecordViolation(loadPC, storePC, p.cycle)
	}
}

// resetForReexecution rewinds one in-flight instruction so it issues
// again with corrected inputs. It reports whether the entry actually
// had produced (possibly wrong) state worth invalidating.
func (p *Pipeline) resetForReexecution(s int32) bool {
	r := &p.rob
	seq := r.seq[s]
	f := r.flags[s]
	switch {
	case f&fLoad != 0:
		if f&(fAgen|fMemIssued) == 0 {
			return false // never produced anything wrong
		}
		if f&fMemIssued != 0 {
			p.loads.removeSeq(s, r.addr[s], seq)
		}
		// If the base register value was wrong the address regenerates;
		// the memory phase always redoes.
		r.clear(s, fAgen|fMemIssued|fIssued|fPropagated|fFdCounted|fFdFalse)
		r.addrReady[s] = notYet
		r.memDone[s] = notYet
		r.doneCycle[s] = notYet
		r.memIssue[s] = 0
		r.valueSource[s] = noSeq
		r.couldIssue[s] = notYet
		p.candInsert(seq)
		return true
	case f&fStore != 0:
		if f&(fAgen|fMemIssued|fIssued) == 0 {
			return false
		}
		if f&fCompleted != 0 || p.storePosted(s) {
			p.stores.removeSeq(s, r.addr[s], seq)
		}
		if f&fCompleted != 0 {
			// It left the pending sets at completion; make it pending
			// again (stores still in compQ were never removed).
			p.pendingStores.insert(s, seq)
			if f&fBarrier != 0 {
				p.pendingBarriers.insert(s, seq)
			}
			r.clear(s, fCompleted)
		}
		if p.cfg.UseAddressScheduler && f&fAgen != 0 {
			p.unpostedStores.insert(s, seq)
		}
		r.clear(s, fAgen|fMemIssued|fIssued)
		r.addrReady[s] = notYet
		r.addrPosted[s] = notYet
		r.memDone[s] = notYet
		r.doneCycle[s] = notYet
		p.candInsert(seq)
		return true
	default:
		if f&fIssued == 0 {
			return false
		}
		r.clear(s, fIssued)
		r.doneCycle[s] = notYet
		p.candInsert(seq)
		return true
	}
}

// storePosted reports whether an AS store's address has been published.
func (p *Pipeline) storePosted(s int32) bool {
	return p.cfg.UseAddressScheduler && p.rob.flags[s]&fAgen != 0 && p.cycle >= p.rob.addrPosted[s]
}

// squashFrom performs squash invalidation: the misspeculated load and
// every younger instruction are thrown away, fetch rewinds to the load,
// and the active dependence predictor is trained with the violation.
// The store slot st is older than the squash point and survives.
func (p *Pipeline) squashFrom(load, st int32) {
	r := &p.rob
	loadSeq := r.seq[load]
	loadPC, storePC := r.pc[load], r.pc[st]
	p.res.Misspeculations++
	p.trainPredictors(loadPC, storePC)

	// Invalidate every in-flight instruction at or after the load. Each
	// squashed slot is also detached from the scheduler: out of its
	// candidate queue and off whatever waiter list it parked on (the
	// producer may be older than the squash point and survive).
	for seq := loadSeq; seq < p.dispatchSeq; seq++ {
		s := p.slotIndex(seq)
		if r.seq[s] != seq {
			continue
		}
		p.res.SquashedInsts++
		f := r.flags[s]
		if f&fMem != 0 {
			p.memInFlight--
		}
		switch {
		case f&fStore != 0:
			p.pendingStores.remove(s, seq)
			p.unpostedStores.remove(s, seq)
			if f&fBarrier != 0 {
				p.pendingBarriers.remove(s, seq)
			}
			p.stores.removeSeq(s, r.addr[s], seq)
		case f&fLoad != 0:
			if f&fMemIssued != 0 {
				p.loads.removeSeq(s, r.addr[s], seq)
			}
		}
		p.unpark(s)
		p.cand.clear(s)
		r.seq[s] = noSeq
	}

	// Drop squashed front-end instructions and rewind fetch.
	keep := p.fetchQ[:0]
	for i := p.fetchHead; i < len(p.fetchQ); i++ {
		if p.fetchQ[i].seq < loadSeq {
			//md:allocok reuse-append into fetchQ[:0]; never exceeds the old length
			keep = append(keep, p.fetchQ[i])
		}
	}
	p.fetchQ = keep
	p.fetchHead = 0

	resume := p.cycle + int64(p.cfg.SquashOverhead)
	if p.cfg.SplitWindow {
		units := p.cfg.SplitUnits
		taskSize := int64(p.cfg.Window / units)
		t0 := loadSeq / taskSize
		u0 := int(t0 % int64(units))
		for u := 0; u < units; u++ {
			// The first sequence >= loadSeq belonging to unit u.
			var cand int64
			if u == u0 {
				cand = loadSeq
			} else {
				dt := int64((u - u0 + units) % units)
				cand = (t0 + dt) * taskSize
			}
			if p.unitFetchSeq[u] == noSeq || p.unitFetchSeq[u] > cand {
				p.unitFetchSeq[u] = cand
			}
			if p.unitBlockedOn[u] >= loadSeq {
				p.unitBlockedOn[u] = noSeq
			}
			p.unitResumeAt[u] = max64(p.unitResumeAt[u], resume)
			p.unitHaveBlock[u] = false
		}
	} else {
		p.dispatchSeq = loadSeq
		p.fetchSeq = loadSeq
		p.blockedOnBranch = noSeq
		p.fetchResumeAt = max64(p.fetchResumeAt, resume)
		p.haveFetchBlock = false
	}
}

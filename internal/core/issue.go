package core

import (
	"mdspec/internal/config"
	"mdspec/internal/isa"
)

// agenLatency is address generation: one cycle to fetch the base
// register plus one cycle for the add (§3.4.1's discussion).
const agenLatency = 2

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// issue is the out-of-order issue stage. The continuous window examines
// entries strictly oldest-first (program order priority, §2.2); the
// split window rotates across units, giving no global program-order
// priority. Either walk visits only wakeup candidates. The reference
// walks in scan_test.go scan the whole in-flight range every cycle
// instead; they reach issuable entries in the same order with the same
// issue-width cutoff, so the two issue identically cycle for cycle.
func (p *Pipeline) issue() {
	if p.cfg.SplitWindow {
		p.issueSplitEvent()
	} else {
		p.issueEvent()
	}
}

// issueEvent is the event-driven continuous-window issue stage: it
// examines only the wakeup candidates, oldest first — the same order
// the scan reaches them in, because parked entries are exactly those
// whose examination neither issues nor has side effects. Loads past
// address generation stay candidates even while blocked, since
// examining them drives the false-dependence accounting (couldIssue,
// fdCounted) that must match the scan cycle for cycle. Ascending
// sequence order is the bitmap's rotated slot order: slots [head, W)
// first, then the wrapped slots [0, head).
func (p *Pipeline) issueEvent() {
	w := int32(p.cfg.Window)
	h := p.slotIndex(p.headSeq)
	lo, hi := h, w
	for phase := 0; phase < 2 && p.issueLeft > 0; phase++ {
		for s := p.cand.next(lo, hi); s != nilSlot && p.issueLeft > 0; s = p.cand.next(s+1, hi) {
			if !p.rob.live(s) {
				p.cand.clear(s) // candidate committed or squashed since
				continue
			}
			p.parkReq = parkNone
			if p.tryIssue(s) {
				p.activity = true
				p.afterIssue(s)
			} else {
				p.applyParkReq(s)
			}
		}
		lo, hi = 0, h
	}
}

// issueSplitEvent is the event-driven split-window issue stage: the
// same rotating per-unit passes as the reference split scan, walking
// each unit's candidates instead of its whole sub-window. Each unit's
// task occupies the contiguous slot range [u*task, (u+1)*task), so its
// candidates are a sub-range of the shared bitmap, iterated in the
// rotated order that matches ascending sequence numbers. Per-unit
// cursors persist across passes; nothing unblocks within a cycle (all
// completion conditions are of the form "cycle >= t" with t strictly in
// the future at issue), so an exhausted unit stays exhausted for the
// rest of the cycle: later rounds skip it, and the walk ends once every
// unit is exhausted.
func (p *Pipeline) issueSplitEvent() {
	units := p.cfg.SplitUnits
	w := int32(p.cfg.Window)
	task := w / int32(units)
	h := p.slotIndex(p.headSeq)
	cur := p.splitCursors
	for u := range cur {
		cur[u] = 0
	}
	first := p.issueRotate % units
	exhausted := 0
	for p.issueLeft > 0 && exhausted < units {
		progress := false
		u := first - 1
		for n := 0; n < units && p.issueLeft > 0; n++ {
			if u++; u == units {
				u = 0
			}
			if cur[u] == task {
				continue
			}
			a := int32(u) * task
			b := a + task
			st := a // rotation point: the unit's oldest possible slot
			if h > a && h < b {
				st = h
			}
			v := cur[u]
			for v < task {
				// Map the rotated cursor back to a slot: positions
				// [0, b-st) are slots [st, b); the rest wrap to [a, st).
				var s int32
				if v < b-st {
					s = p.cand.next(st+v, b)
					if s == nilSlot {
						v = b - st
						continue
					}
					v = s - st
				} else {
					s = p.cand.next(a+(v-(b-st)), st)
					if s == nilSlot {
						v = task
						break
					}
					v = (b - st) + (s - a)
				}
				if !p.rob.live(s) {
					p.cand.clear(s) // candidate committed or squashed since
					v++
					continue
				}
				p.parkReq = parkNone
				if p.tryIssue(s) {
					p.activity = true
					p.afterIssue(s)
					if !p.cand.has(s) {
						// Fully issued or parked; otherwise stay to
						// revisit: the entry may have a second uop.
						v++
					}
					progress = true
					break
				}
				p.applyParkReq(s)
				v++
			}
			if cur[u] = v; v == task {
				exhausted++
			}
		}
		if !progress {
			break
		}
	}
	p.issueRotate++
}

// afterIssue updates the candidate set after a successful issue: a
// fully issued entry leaves; an entry whose next phase is purely timed
// (its address generation is in flight) parks until the event it
// scheduled for itself fires.
func (p *Pipeline) afterIssue(s int32) {
	if p.parkReq == parkTimer {
		p.parkTimed(s)
		return
	}
	if p.entryFullyIssued(s) {
		p.cand.clear(s)
	}
}

// entryFullyIssued reports that the entry has no pending uop left to
// issue (its remaining progress is pure latency).
func (p *Pipeline) entryFullyIssued(s int32) bool {
	f := p.rob.flags[s]
	if f&fMem != 0 {
		return f&fMemIssued != 0
	}
	return f&fIssued != 0
}

// applyParkReq parks a blocked candidate when its failed issue attempt
// named a wakeup source. Entries blocked on policy conditions or
// per-cycle resources stay candidates and are re-examined every cycle —
// their examination performs the same (idempotent) accounting the
// scan's would, and their unblocking is not tied to a single event.
func (p *Pipeline) applyParkReq(s int32) {
	switch p.parkReq {
	case parkNone:
	case parkTimer:
		p.parkTimed(s)
	default:
		p.parkOn(s, p.parkReq)
	}
}

// requestParkDep asks the issue walk to park the current candidate on
// the window slot of its unready producer. This is safe even when
// (split window) the producer has not been dispatched yet: dep lies in
// [headSeq, headSeq+Window), so slot dep%Window can only be occupied by
// dep itself until dep commits, and dep's own issue will push the
// wakeup event.
func (p *Pipeline) requestParkDep(dep int64) {
	p.parkReq = p.slotIndex(dep)
}

// unitOf returns the split-window unit owning seq.
func (p *Pipeline) unitOf(seq int64) int {
	taskSize := int64(p.cfg.Window / p.cfg.SplitUnits)
	return int((seq / taskSize) % int64(p.cfg.SplitUnits))
}

// tryIssue attempts to issue the next pending uop of the entry in slot
// s; it reports whether anything issued this call.
func (p *Pipeline) tryIssue(s int32) bool {
	f := p.rob.flags[s]
	switch {
	case f&fLoad != 0:
		return p.tryIssueLoad(s)
	case f&fStore != 0:
		return p.tryIssueStore(s)
	default:
		return p.tryIssueSimple(s)
	}
}

// depReady reports whether the operand produced by dep is available.
func (p *Pipeline) depReady(dep int64) bool {
	if dep == noSeq || dep < p.headSeq {
		return true // from the register file
	}
	s := p.slotIndex(dep)
	r := &p.rob
	if r.seq[s] != dep {
		// Split window: the producer has not even been fetched yet.
		return false
	}
	f := r.flags[s]
	if f&fMem != 0 {
		return f&fMemIssued != 0 && p.cycle >= r.memDone[s]
	}
	return f&fIssued != 0 && p.cycle >= r.doneCycle[s]
}

// markPropagated flags producing loads whose value this issue consumed
// (used by the AS/NAV misspeculation conditions, §3.4).
func (p *Pipeline) markPropagated(deps ...int64) {
	for _, dep := range deps {
		if dep == noSeq || dep < p.headSeq {
			continue
		}
		s := p.slotIndex(dep)
		if p.rob.seq[s] == dep && p.rob.flags[s]&fLoad != 0 {
			p.rob.set(s, fPropagated)
		}
	}
}

// takeFU consumes a functional unit of the class, reporting success.
// The issue slot itself is consumed by the caller on success.
func (p *Pipeline) takeFU(c isa.Class) bool {
	switch c {
	case isa.ClassIntMult, isa.ClassIntDiv:
		if p.mulLeft == 0 {
			return false
		}
		p.mulLeft--
	case isa.ClassFPAdd, isa.ClassFPMulS, isa.ClassFPMulD, isa.ClassFPDivS, isa.ClassFPDivD:
		if p.fpLeft == 0 {
			return false
		}
		p.fpLeft--
	case isa.ClassNop:
		// No functional unit.
	default: // integer ALU, branches, address adds
		if p.aluLeft == 0 {
			return false
		}
		p.aluLeft--
	}
	return true
}

// tryIssueSimple handles non-memory instructions (ALU, FP, branches).
func (p *Pipeline) tryIssueSimple(s int32) bool {
	r := &p.rob
	if r.flags[s]&fIssued != 0 {
		return false
	}
	if !p.depReady(r.dep1[s]) {
		p.requestParkDep(r.dep1[s])
		return false
	}
	if !p.depReady(r.dep2[s]) {
		p.requestParkDep(r.dep2[s])
		return false
	}
	if p.issueLeft == 0 || !p.takeFU(r.class[s]) {
		return false
	}
	p.issueLeft--
	r.set(s, fIssued)
	r.doneCycle[s] = p.cycle + int64(r.class[s].Latency())
	p.events.push(r.doneCycle[s], s)
	p.markPropagated(r.dep1[s], r.dep2[s])
	if r.flags[s]&fBranch != 0 {
		p.resolveBranch(s)
	}
	return true
}

// resolveBranch trains the predictor and, on a misprediction, schedules
// the fetch redirect for when the branch completes.
func (p *Pipeline) resolveBranch(s int32) {
	r := &p.rob
	f := r.flags[s]
	seq := r.seq[s]
	if f&fBpIsCond != 0 {
		p.bp.Resolve(r.pc[s], r.bpHist[s], f&fBpPred != 0, f&fTaken != 0)
	}
	if f&fJR != 0 {
		p.bp.UpdateTarget(r.pc[s], r.nextPC[s])
	}
	if f&fBpWrong == 0 {
		return
	}
	resume := r.doneCycle[s] + 1
	if p.cfg.SplitWindow {
		u := p.unitOf(seq)
		if p.unitBlockedOn[u] == seq {
			p.unitBlockedOn[u] = noSeq
			p.unitResumeAt[u] = max64(p.unitResumeAt[u], resume)
			p.unitHaveBlock[u] = false
		}
		return
	}
	if p.blockedOnBranch == seq {
		p.blockedOnBranch = noSeq
		p.fetchResumeAt = max64(p.fetchResumeAt, resume)
		p.haveFetchBlock = false
	}
}

// tryIssueStore advances a store: under AS, address generation issues as
// soon as the base register is ready (consuming issue bandwidth and an
// ALU — the §3.4.1 resource cost) and the address is posted to the
// scheduler after the scheduler latency; the data-merge issues when the
// value arrives. Under NAS, the store issues once, when both address and
// data operands are ready.
func (p *Pipeline) tryIssueStore(s int32) bool {
	r := &p.rob
	if r.flags[s]&fMemIssued != 0 {
		return false
	}
	seq := r.seq[s]
	if p.cfg.UseAddressScheduler {
		if r.flags[s]&fAgen == 0 {
			if !p.depReady(r.dep1[s]) {
				p.requestParkDep(r.dep1[s])
				return false
			}
			if p.issueLeft == 0 || !p.takeFU(isa.ClassIntALU) {
				return false
			}
			p.issueLeft--
			r.set(s, fAgen)
			r.addrReady[s] = p.cycle + agenLatency
			r.addrPosted[s] = r.addrReady[s] + int64(p.cfg.SchedulerLatency)
			//md:allocok amortized: postQ is drained each cycle, capacity is retained
			p.postQ = append(p.postQ, seq)
			p.events.push(r.addrReady[s], s)  // wake the data-merge phase
			p.events.push(r.addrPosted[s], s) // fire the posting in postQ
			p.parkReq = parkTimer
			p.markPropagated(r.dep1[s])
			return true
		}
		if p.cycle < r.addrReady[s] {
			p.parkReq = parkTimer // the agen event is already scheduled
			return false
		}
		if !p.depReady(r.dep2[s]) {
			p.requestParkDep(r.dep2[s])
			return false
		}
		if p.issueLeft == 0 {
			return false
		}
		p.issueLeft--
		r.set(s, fMemIssued|fIssued)
		r.memIssue[s] = p.cycle
		r.memDone[s] = p.cycle + 1 // merge the data into the buffer entry
		r.doneCycle[s] = r.memDone[s]
		//md:allocok amortized: compQ is drained each cycle, capacity is retained
		p.compQ = append(p.compQ, seq)
		p.events.push(r.memDone[s], s)
		p.markPropagated(r.dep2[s])
		return true
	}
	// NAS: single issue event needing base and data.
	if !p.depReady(r.dep1[s]) {
		p.requestParkDep(r.dep1[s])
		return false
	}
	if !p.depReady(r.dep2[s]) {
		p.requestParkDep(r.dep2[s])
		return false
	}
	if p.issueLeft == 0 || !p.takeFU(isa.ClassIntALU) {
		return false
	}
	p.issueLeft--
	r.set(s, fMemIssued|fIssued)
	r.memIssue[s] = p.cycle
	r.memDone[s] = p.cycle + agenLatency // operand fetch + address add
	r.doneCycle[s] = r.memDone[s]
	r.addrReady[s] = r.memDone[s]
	//md:allocok amortized: compQ is drained each cycle, capacity is retained
	p.compQ = append(p.compQ, seq)
	p.events.push(r.memDone[s], s)
	p.markPropagated(r.dep1[s], r.dep2[s])
	return true
}

// tryIssueLoad advances a load through its two phases: address
// generation (register-scheduled), then the memory access (scheduled by
// the active load/store policy).
func (p *Pipeline) tryIssueLoad(s int32) bool {
	r := &p.rob
	if r.flags[s]&fAgen == 0 {
		if !p.depReady(r.dep1[s]) {
			p.requestParkDep(r.dep1[s])
			return false
		}
		if p.issueLeft == 0 || !p.takeFU(isa.ClassIntALU) {
			return false
		}
		p.issueLeft--
		r.set(s, fAgen)
		r.addrReady[s] = p.cycle + agenLatency
		p.events.push(r.addrReady[s], s)
		p.parkReq = parkTimer
		p.markPropagated(r.dep1[s])
		return true
	}
	if r.flags[s]&fMemIssued != 0 {
		return false
	}
	if p.cycle < r.addrReady[s] {
		p.parkReq = parkTimer // the agen event is already scheduled
		return false
	}
	if r.couldIssue[s] == notYet {
		r.couldIssue[s] = max64(r.addrReady[s], p.cycle)
	}
	eligible, storeWait := p.loadEligible(s)
	if !eligible {
		if storeWait && r.flags[s]&fFdCounted == 0 {
			// Table 3 accounting: at the moment the load could otherwise
			// access memory, does a true dependence actually exist?
			r.set(s, fFdCounted)
			if !p.trueDepPending(s) {
				r.set(s, fFdFalse)
			}
		}
		p.parkOnStoreBlock(s)
		return false
	}
	if p.issueLeft == 0 || p.portLeft == 0 {
		return false
	}
	p.issueLeft--
	p.portLeft--
	p.issueLoadMem(s)
	return true
}

// loadEligible applies the active policy. storeWait reports that the
// load is (or would be) blocked behind unresolved earlier stores — used
// for false-dependence accounting.
func (p *Pipeline) loadEligible(s int32) (eligible, storeWait bool) {
	r := &p.rob
	seq := r.seq[s]
	if p.cfg.UseAddressScheduler {
		return p.loadEligibleAS(s)
	}
	switch p.cfg.Policy {
	case config.NoSpec:
		if p.anyPendingStoreBefore(seq) {
			return false, true
		}
		return true, false
	case config.Naive:
		return true, false
	case config.Selective:
		if r.flags[s]&fWaitAll != 0 && p.anyPendingStoreBefore(seq) {
			return false, true
		}
		return true, false
	case config.StoreBarrier:
		if !p.pendingBarriers.empty() && p.pendingBarriers.minSeq() < seq {
			return false, true
		}
		return true, false
	case config.Sync, config.StoreSets:
		if r.flags[s]&fHasSyn != 0 && r.syncOnSeq[s] != noSeq {
			syn := r.syncOnSeq[s]
			ss := p.slotIndex(syn)
			if r.seq[ss] == syn && r.flags[ss]&fStore != 0 {
				// Free to issue one cycle after the producer issues.
				if r.flags[ss]&fMemIssued == 0 || p.cycle < r.memIssue[ss]+1 {
					return false, true
				}
			}
		}
		return true, false
	case config.Oracle:
		// Perfect knowledge: wait exactly for the producing store, even
		// if (split window) it has not been fetched yet.
		prod := r.prod[s]
		if prod != noSeq && prod >= p.headSeq {
			ps := p.slotIndex(prod)
			if r.seq[ps] != prod || r.flags[ps]&fMemIssued == 0 || p.cycle < r.memIssue[ps]+1 {
				return false, true
			}
		}
		return true, false
	}
	return true, false
}

// loadEligibleAS implements the address-based scheduler: the load
// compares its address against the posted addresses of earlier stores.
// A posted match always makes the load wait for that store's data; under
// AS/NO, unposted earlier stores also block the load.
func (p *Pipeline) loadEligibleAS(s int32) (eligible, storeWait bool) {
	r := &p.rob
	seq := r.seq[s]
	if p.cfg.Policy == config.NoSpec && p.anyUnpostedStoreBefore(seq) {
		return false, true
	}
	if m := p.youngestPostedMatch(r.addr[s], seq); m != nilSlot {
		if r.flags[m]&fMemIssued == 0 || p.cycle < r.memIssue[m]+1 {
			return false, true
		}
	}
	return true, false
}

// anyPendingStoreBefore reports whether any store older than seq has not
// yet executed.
func (p *Pipeline) anyPendingStoreBefore(seq int64) bool {
	return !p.pendingStores.empty() && p.pendingStores.minSeq() < seq
}

// anyUnpostedStoreBefore reports whether any store older than seq has
// not yet posted its address to the scheduler.
func (p *Pipeline) anyUnpostedStoreBefore(seq int64) bool {
	return !p.unpostedStores.empty() && p.unpostedStores.minSeq() < seq
}

// youngestPostedMatch returns the window slot of the youngest store
// older than loadSeq whose posted address matches addr, or nilSlot. The
// bucket chain is sequence-sorted, so the first youngest-first hit on
// addr wins.
func (p *Pipeline) youngestPostedMatch(addr uint32, loadSeq int64) int32 {
	t := &p.stores
	b := t.bucket(addr)
	for s := t.btail[b]; s != nilSlot; s = t.prev[s] {
		if t.addr[s] != addr || t.seq[s] >= loadSeq {
			continue
		}
		if p.rob.seq[s] == t.seq[s] {
			return s
		}
	}
	return nilSlot
}

// parkOnStoreBlock parks a policy-blocked load on the store responsible
// for the block, for the policies whose block releases only at a store
// completion (or address posting) — both event-covered on the store's
// slot, so the load is re-examined the cycle its eligibility can first
// change. The load may wake to find a different store now blocking; it
// then re-parks on that one. Policies whose blocks release on store
// *issue* (Sync, StoreSets, Oracle, posted-address matches) keep the
// load as a candidate: their release cycle (memIssue+1) precedes the
// store's completion event, so a park could wake too late.
func (p *Pipeline) parkOnStoreBlock(s int32) {
	seq := p.rob.seq[s]
	if p.cfg.UseAddressScheduler {
		if p.cfg.Policy == config.NoSpec {
			if q := p.unpostedStores.youngestBelow(seq); q != nilSlot {
				p.parkReq = q
			}
		}
		return
	}
	switch p.cfg.Policy {
	case config.NoSpec:
		p.parkReq = p.pendingStores.youngestBelow(seq)
	case config.Selective:
		if p.rob.flags[s]&fWaitAll != 0 {
			if q := p.pendingStores.youngestBelow(seq); q != nilSlot {
				p.parkReq = q
			}
		}
	case config.StoreBarrier:
		if q := p.pendingBarriers.youngestBelow(seq); q != nilSlot {
			p.parkReq = q
		}
	}
}

// trueDepPending reports whether the load's architectural producer store
// is uncommitted and not yet executed (including, in the split window,
// producers that have not even been fetched).
func (p *Pipeline) trueDepPending(s int32) bool {
	r := &p.rob
	prod := r.prod[s]
	if prod == noSeq || prod < p.headSeq {
		return false
	}
	ps := p.slotIndex(prod)
	if r.seq[ps] != prod {
		return true // not yet dispatched (split window)
	}
	return r.flags[ps]&fMemIssued == 0 || p.cycle < r.memDone[ps]
}

// issueLoadMem launches the load's memory access: forwarding from the
// store buffer when the producing store has executed, otherwise a
// (possibly stale) D-cache access. Under AS the scheduler latency is
// added in front of the access.
func (p *Pipeline) issueLoadMem(s int32) {
	r := &p.rob
	seq := r.seq[s]
	eff := p.cycle
	if p.cfg.UseAddressScheduler {
		eff += int64(p.cfg.SchedulerLatency)
	}
	var done int64
	prod := r.prod[s]
	if prod != noSeq && prod >= p.headSeq {
		// The producing store has not committed: it is either in flight
		// or (split window) not yet fetched.
		ps := p.slotIndex(prod)
		if r.seq[ps] == prod && r.flags[ps]&fMemIssued != 0 {
			// Store buffer forward of the correct value.
			done = max64(eff, r.memDone[ps]) + 1
			r.valueSource[s] = prod
			r.specValue[s] = r.loadVal[s]
			p.res.Forwards++
		} else if src := p.youngestExecutedMatch(r.addr[s], seq); src != nilSlot {
			// Speculative forward from an older (stale) store.
			done = max64(eff, r.memDone[src]) + 1
			r.valueSource[s] = r.seq[src]
			r.specValue[s] = r.storeVal[src]
			p.res.Forwards++
		} else {
			// Speculative read around the pending producer: the load
			// obtains the pre-store memory value.
			done = p.hier.D.Access(r.addr[s], eff, false)
			r.valueSource[s] = noSeq
			r.specValue[s] = p.trace.At(prod).OldVal
		}
	} else {
		// No in-window producer: architecturally clean access.
		done = p.hier.D.Access(r.addr[s], eff, false)
		r.valueSource[s] = noSeq
		r.specValue[s] = r.loadVal[s]
	}
	r.set(s, fMemIssued|fIssued)
	r.memIssue[s] = p.cycle
	r.memDone[s] = done
	r.doneCycle[s] = done
	p.events.push(done, s)
	// Loads issue out of order; the table keeps per-address chains
	// sequence-sorted for the violation scan.
	p.loads.insert(s, r.addr[s], seq)
}

// youngestExecutedMatch returns the window slot of the youngest executed
// in-window store older than loadSeq writing addr, or nilSlot.
func (p *Pipeline) youngestExecutedMatch(addr uint32, loadSeq int64) int32 {
	t := &p.stores
	b := t.bucket(addr)
	r := &p.rob
	for s := t.btail[b]; s != nilSlot; s = t.prev[s] {
		if t.addr[s] != addr || t.seq[s] >= loadSeq {
			continue
		}
		if r.seq[s] == t.seq[s] && r.flags[s]&fMemIssued != 0 && p.cycle >= r.memDone[s] {
			return s
		}
	}
	return nilSlot
}

//go:build mdsan

// The mdsan build tag compiles cycle-level invariant checks into the
// pipeline: every step ends by validating the scheduler and
// disambiguation bookkeeping against the architectural window state,
// panicking at the first corrupted cycle instead of letting the damage
// surface thousands of cycles later as a statistics mismatch. Normal
// builds compile sanitize to an empty function (mdsan_off.go). The
// reference scan stepper in scan_test.go ends its cycles the same way
// and keeps the scheduler bookkeeping current, so every check below
// runs under both issue walks.
//
// The checks, in order:
//
//  1. Address-table mirror: the stores/loads tables and the window
//     agree in both directions — every table slot references a live,
//     matching ROB entry, and every in-flight memory op whose address
//     the hardware knows is present in its table.
//  2. Calendar-wheel accounting: the bucket lists and the free list
//     partition the node pool, the ring's event count matches its
//     buckets, and overflow events never point into the drained past.
//  3. Candidate bitmap: every candidate slot holds a valid entry and
//     is not simultaneously parked.
//  4. Parking: waiter lists and parkedOn agree exactly; a parked slot
//     waits on a strictly older producer that is live (or, split
//     window only, not yet dispatched); timer-parked slots have a
//     pending wheel event to wake them (a missed wakeup is a
//     livelock).
//
// The happy path allocates nothing, so the zero-allocation pin test
// also passes under -tags mdsan.
package core

import "fmt"

// mdsanState is the sanitizer's preallocated scratch: a per-slot stamp
// of the last cycle an event for the slot was seen pending, used to
// verify timer-parked slots are wake-covered without allocating.
type mdsanState struct {
	evStamp []int64
}

func (m *mdsanState) init(w int) {
	m.evStamp = make([]int64, w)
	for i := range m.evStamp {
		m.evStamp[i] = -1
	}
}

// sanitize validates the pipeline's internal bookkeeping at the end of
// one step. It panics on the first violation.
func (p *Pipeline) sanitize() {
	w := p.cfg.Window

	// Window occupancy bound.
	if p.dispatchSeq-p.headSeq > int64(w) {
		panic(fmt.Sprintf("mdsan: window over-full: head=%d dispatch=%d window=%d",
			p.headSeq, p.dispatchSeq, w))
	}

	p.sanTables()
	p.sanWheel()
	p.sanCandidates()
	p.sanParking()
}

// sanTables checks the address tables and store lists against the ROB,
// in both directions.
func (p *Pipeline) sanTables() {
	r := &p.rob
	// Table -> ROB: an occupied table slot references the live entry of
	// the right kind occupying that window slot. A seq match implies the
	// slot is live (free slots hold noSeq, never a table's seq).
	for s := 0; s < p.cfg.Window; s++ {
		if p.stores.in[s] {
			if r.seq[s] != p.stores.seq[s] || r.addr[s] != p.stores.addr[s] || r.flags[s]&fStore == 0 {
				panic(fmt.Sprintf("mdsan: stores table slot %d (seq %d addr %#x) does not mirror the ROB",
					s, p.stores.seq[s], p.stores.addr[s]))
			}
		}
		if p.loads.in[s] {
			if r.seq[s] != p.loads.seq[s] || r.addr[s] != p.loads.addr[s] || r.flags[s]&fLoad == 0 {
				panic(fmt.Sprintf("mdsan: loads table slot %d (seq %d addr %#x) does not mirror the ROB",
					s, p.loads.seq[s], p.loads.addr[s]))
			}
		}
	}
	// ROB -> tables: every in-flight memory op whose address the
	// hardware knows appears in its table.
	for seq := p.headSeq; seq < p.dispatchSeq; seq++ {
		s := p.slotIndex(seq)
		if r.seq[s] != seq {
			continue
		}
		f := r.flags[s]
		switch {
		case f&fLoad != 0:
			if (f&fMemIssued != 0) != p.loads.in[s] {
				panic(fmt.Sprintf("mdsan: load %d memIssued=%v but loads-table presence=%v",
					seq, f&fMemIssued != 0, p.loads.in[s]))
			}
		case f&fStore != 0:
			completed := f&fCompleted != 0
			if p.pendingStores.in[s] == completed {
				panic(fmt.Sprintf("mdsan: store %d completed=%v but pendingStores presence=%v",
					seq, completed, p.pendingStores.in[s]))
			}
			if p.cfg.UseAddressScheduler {
				// AS: a dispatched store sits in unpostedStores until
				// either the scheduler sees its address (moves to the
				// stores table) or execution completes first (drops out
				// of unpostedStores and is in neither until posting).
				switch {
				case p.unpostedStores.in[s] && p.stores.in[s]:
					panic(fmt.Sprintf("mdsan: AS store %d is both unposted and posted", seq))
				case p.unpostedStores.in[s] && completed:
					panic(fmt.Sprintf("mdsan: completed AS store %d still in unpostedStores", seq))
				case !p.unpostedStores.in[s] && !p.stores.in[s] && !completed:
					panic(fmt.Sprintf("mdsan: in-flight AS store %d in neither unpostedStores nor stores table", seq))
				}
				if p.stores.in[s] && (f&fAgen == 0 || r.addrPosted[s] > p.cycle) {
					panic(fmt.Sprintf("mdsan: AS store %d posted before its posting time %d (cycle %d)",
						seq, r.addrPosted[s], p.cycle))
				}
			} else {
				// NAS: the address is published exactly at completion.
				if p.stores.in[s] != completed {
					panic(fmt.Sprintf("mdsan: NAS store %d completed=%v but stores-table presence=%v",
						seq, completed, p.stores.in[s]))
				}
			}
		}
	}
}

// sanWheel checks the calendar wheel's accounting: the bucket lists
// and the free list partition the node pool, each bucket's tail is its
// last node, and the ring's event count matches the bucket totals.
func (p *Pipeline) sanWheel() {
	ev := &p.events
	pool := len(ev.nodes)
	n := 0
	for b := range ev.head {
		last := nilSlot
		for e := ev.head[b]; e != nilSlot; e = ev.nodes[e].link {
			if n++; n > pool {
				panic(fmt.Sprintf("mdsan: wheel bucket %d has a link cycle", b))
			}
			last = e
		}
		if last != nilSlot && ev.tail[b] != last {
			panic(fmt.Sprintf("mdsan: wheel bucket %d tail %d is not its last node %d", b, ev.tail[b], last))
		}
	}
	if n != ev.n {
		panic(fmt.Sprintf("mdsan: wheel count %d != bucket total %d", ev.n, n))
	}
	free := 0
	for e := ev.free; e != nilSlot; e = ev.nodes[e].link {
		if free++; free > pool {
			panic("mdsan: wheel free list has a link cycle")
		}
	}
	if n+free != pool {
		panic(fmt.Sprintf("mdsan: wheel pool leaks nodes: %d pending + %d free != %d", n, free, pool))
	}
	for _, e := range ev.over {
		if e.at <= ev.drained {
			panic(fmt.Sprintf("mdsan: overflow event at cycle %d already drained (drained=%d)",
				e.at, ev.drained))
		}
	}
}

// sanCandidates checks that the candidate bitmap holds only valid,
// unparked window slots.
func (p *Pipeline) sanCandidates() {
	for s := int32(0); s < int32(p.cfg.Window); s++ {
		if !p.cand.has(s) {
			continue
		}
		if !p.rob.live(s) {
			panic(fmt.Sprintf("mdsan: candidate bitmap holds invalid slot %d", s))
		}
		if p.parkedOn[s] != parkNone {
			panic(fmt.Sprintf("mdsan: candidate slot %d is parked on %d", s, p.parkedOn[s]))
		}
	}
}

// sanParking checks waiter-list/parkedOn agreement, producer liveness
// and age, and event coverage of timer-parked slots.
func (p *Pipeline) sanParking() {
	w := p.cfg.Window
	// Waiter lists: every listed slot is parked on exactly that list,
	// back-links hold, and the total matches the parked population (so
	// the relation is a bijection).
	listed := 0
	for q := range p.wHead {
		for v := p.wHead[q]; v != nilSlot; v = p.wNext[v] {
			if p.parkedOn[v] != int32(q) {
				panic(fmt.Sprintf("mdsan: waiter %d on list %d but parked on %d", v, q, p.parkedOn[v]))
			}
			if nw := p.wNext[v]; nw != nilSlot && p.wPrev[nw] != v {
				panic(fmt.Sprintf("mdsan: waiter list %d back-link broken at %d", q, v))
			}
			if listed++; listed > w {
				panic(fmt.Sprintf("mdsan: waiter list %d has a link cycle", q))
			}
		}
	}
	parked := 0
	for s := range p.parkedOn {
		q := p.parkedOn[s]
		if q < 0 {
			continue // parkNone or parkTimer
		}
		parked++
		if !p.rob.live(int32(s)) {
			panic(fmt.Sprintf("mdsan: invalid slot %d is parked on %d", s, q))
		}
		if !p.rob.live(q) {
			// Continuous window never parks on a hole; the split window
			// may park on a producer that has not been dispatched yet.
			if !p.cfg.SplitWindow {
				panic(fmt.Sprintf("mdsan: slot %d parked on empty producer slot %d", s, q))
			}
			continue
		}
		if p.rob.seq[q] >= p.rob.seq[s] {
			panic(fmt.Sprintf("mdsan: slot %d (seq %d) parked on younger producer %d (seq %d)",
				s, p.rob.seq[s], q, p.rob.seq[q]))
		}
	}
	if parked != listed {
		panic(fmt.Sprintf("mdsan: %d slots parked on producers but %d on waiter lists", parked, listed))
	}
	// Timer-parked slots must have a pending wheel event to wake them:
	// stamp every slot with a pending event, then require the stamp.
	st := p.san.evStamp
	ev := &p.events
	for b := range ev.head {
		for e := ev.head[b]; e != nilSlot; e = ev.nodes[e].link {
			st[ev.nodes[e].slot] = p.cycle
		}
	}
	for _, e := range ev.over {
		st[e.slot] = p.cycle
	}
	for s := range p.parkedOn {
		if p.parkedOn[s] == parkTimer && st[s] != p.cycle {
			panic(fmt.Sprintf("mdsan: slot %d is timer-parked with no pending event (missed wakeup)", s))
		}
	}
}

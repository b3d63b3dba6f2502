package core

import "math/bits"

// This file holds the reusable, allocation-free structures behind the
// event-driven issue stage:
//
//   - seqList: intrusive sequence-ordered lists over window slots,
//     replacing the sorted []int64 slices (pending stores, unposted
//     stores, pending barriers) and backing the per-unit wakeup
//     candidate queues.
//   - addrTable: an intrusive hash table over window slots, replacing
//     the map[uint32][]int64 address maps used for memory disambiguation.
//   - eventWheel: the calendar queue of pending completions that drives
//     wakeups and the next-event cycle skip.
//   - the parking machinery: blocked instructions wait on their
//     producer's slot (or on a timed event) instead of being rescanned
//     every cycle.
//
// Everything is sized to the window at construction; the steady-state
// simulation loop performs no allocation.

const (
	// nilSlot terminates intrusive links.
	nilSlot int32 = -1
	// parkNone / parkTimer are parkedOn states: not parked, or waiting
	// for an already-scheduled event (e.g. address generation completing).
	parkNone  int32 = -1
	parkTimer int32 = -2
)

// seqList is an intrusive doubly-linked list over window slots, ordered
// by ascending sequence number. Membership is tracked per slot, so
// insert and remove are O(1) plus a (usually empty) tail walk to find
// the insertion point; entries arrive mostly in program order.
type seqList struct {
	head, tail int32
	next, prev []int32
	seq        []int64
	in         []bool
	n          int
}

func (l *seqList) init(w int) {
	l.head, l.tail = nilSlot, nilSlot
	l.next = make([]int32, w)
	l.prev = make([]int32, w)
	l.seq = make([]int64, w)
	l.in = make([]bool, w)
	l.n = 0
}

// insert places slot s (holding seq) at its ascending-seq position.
// Re-inserting a present slot with the same seq is a no-op; a slot
// present under a stale seq is relinked.
func (l *seqList) insert(s int32, seq int64) {
	if l.in[s] {
		if l.seq[s] == seq {
			return
		}
		l.unlink(s)
	}
	l.in[s] = true
	l.seq[s] = seq
	l.n++
	at := l.tail
	for at != nilSlot && l.seq[at] > seq {
		at = l.prev[at]
	}
	if at == nilSlot { // new head
		l.prev[s] = nilSlot
		l.next[s] = l.head
		if l.head != nilSlot {
			l.prev[l.head] = s
		} else {
			l.tail = s
		}
		l.head = s
		return
	}
	l.next[s] = l.next[at]
	l.prev[s] = at
	if l.next[at] != nilSlot {
		l.prev[l.next[at]] = s
	} else {
		l.tail = s
	}
	l.next[at] = s
}

// remove unlinks slot s if it is present under seq; like the sorted
// slices it replaces, removing an absent element is a no-op.
func (l *seqList) remove(s int32, seq int64) {
	if !l.in[s] || l.seq[s] != seq {
		return
	}
	l.unlink(s)
}

func (l *seqList) unlink(s int32) {
	if l.prev[s] != nilSlot {
		l.next[l.prev[s]] = l.next[s]
	} else {
		l.head = l.next[s]
	}
	if l.next[s] != nilSlot {
		l.prev[l.next[s]] = l.prev[s]
	} else {
		l.tail = l.prev[s]
	}
	l.in[s] = false
	l.n--
}

func (l *seqList) empty() bool { return l.head == nilSlot }

// minSeq returns the oldest member; the list must be non-empty.
func (l *seqList) minSeq() int64 { return l.seq[l.head] }

// youngestBelow returns the slot of the youngest member with seq
// strictly below bound, or nilSlot. Entries arrive mostly in program
// order, so the walk from the tail is usually a step or two.
func (l *seqList) youngestBelow(bound int64) int32 {
	at := l.tail
	for at != nilSlot && l.seq[at] >= bound {
		at = l.prev[at]
	}
	return at
}

// addrTable is an intrusive hash table of in-window memory operations
// keyed by word address. Each window slot appears at most once; bucket
// chains are kept in ascending sequence order, so violation checks walk
// oldest-first and match queries walk youngest-first, exactly like the
// sorted per-address slices this replaces. All storage is preallocated.
type addrTable struct {
	mask  uint32
	bhead []int32 // per-bucket chain head (oldest seq)
	btail []int32 // per-bucket chain tail (youngest seq)
	next  []int32 // per-slot links within the bucket chain
	prev  []int32
	in    []bool
	addr  []uint32
	seq   []int64
}

func (t *addrTable) init(w int) {
	nb := 4
	for nb < 2*w {
		nb <<= 1
	}
	t.mask = uint32(nb - 1)
	t.bhead = make([]int32, nb)
	t.btail = make([]int32, nb)
	for i := range t.bhead {
		t.bhead[i] = nilSlot
		t.btail[i] = nilSlot
	}
	t.next = make([]int32, w)
	t.prev = make([]int32, w)
	t.in = make([]bool, w)
	t.addr = make([]uint32, w)
	t.seq = make([]int64, w)
}

func (t *addrTable) bucket(addr uint32) uint32 {
	h := addr * 2654435761 // Fibonacci hashing; addresses are word-aligned
	h ^= h >> 15
	return h & t.mask
}

// insert places slot s (a memory op at addr with sequence seq) at its
// ascending-seq position in addr's bucket chain. Re-inserting the same
// (slot, addr, seq) is a no-op; a stale occupant is relinked.
func (t *addrTable) insert(s int32, addr uint32, seq int64) {
	if t.in[s] {
		if t.addr[s] == addr && t.seq[s] == seq {
			return
		}
		t.unlink(s)
	}
	t.in[s] = true
	t.addr[s] = addr
	t.seq[s] = seq
	b := t.bucket(addr)
	at := t.btail[b]
	for at != nilSlot && t.seq[at] > seq {
		at = t.prev[at]
	}
	if at == nilSlot {
		t.prev[s] = nilSlot
		t.next[s] = t.bhead[b]
		if t.bhead[b] != nilSlot {
			t.prev[t.bhead[b]] = s
		} else {
			t.btail[b] = s
		}
		t.bhead[b] = s
		return
	}
	t.next[s] = t.next[at]
	t.prev[s] = at
	if t.next[at] != nilSlot {
		t.prev[t.next[at]] = s
	} else {
		t.btail[b] = s
	}
	t.next[at] = s
}

// removeSeq unlinks slot s if it is present under exactly (addr, seq);
// removing an absent pair is a no-op, mirroring the old removeAddrMap.
func (t *addrTable) removeSeq(s int32, addr uint32, seq int64) {
	if !t.in[s] || t.addr[s] != addr || t.seq[s] != seq {
		return
	}
	t.unlink(s)
}

func (t *addrTable) unlink(s int32) {
	b := t.bucket(t.addr[s])
	if t.prev[s] != nilSlot {
		t.next[t.prev[s]] = t.next[s]
	} else {
		t.bhead[b] = t.next[s]
	}
	if t.next[s] != nilSlot {
		t.prev[t.next[s]] = t.prev[s]
	} else {
		t.btail[b] = t.prev[s]
	}
	t.in[s] = false
}

// candSet is the wakeup candidate set: one bit per window slot. Slot
// numbers rotate monotonically with sequence numbers (slot = seq mod W
// and at most W instructions are in flight), so iterating the bitmap in
// rotated order — starting at the head's slot — visits candidates in
// ascending sequence order. That makes insertion O(1) where an ordered
// list would pay an O(n) walk on every out-of-order wakeup.
type candSet struct {
	w []uint64
}

func (c *candSet) init(nbits int) {
	c.w = make([]uint64, (nbits+63)/64)
}

func (c *candSet) set(s int32)   { c.w[s>>6] |= 1 << uint(s&63) }
func (c *candSet) clear(s int32) { c.w[s>>6] &^= 1 << uint(s&63) }
func (c *candSet) has(s int32) bool {
	return c.w[s>>6]&(1<<uint(s&63)) != 0
}

// next returns the smallest member in [from, to), or nilSlot.
func (c *candSet) next(from, to int32) int32 {
	if from >= to {
		return nilSlot
	}
	wi := from >> 6
	word := c.w[wi] &^ (1<<uint(from&63) - 1)
	for {
		if word != 0 {
			s := wi<<6 + int32(bits.TrailingZeros64(word))
			if s >= to {
				return nilSlot
			}
			return s
		}
		wi++
		if wi<<6 >= to {
			return nilSlot
		}
		word = c.w[wi]
	}
}

// schedEvent is a pending state change at a known future cycle: a uop
// completion, a store address posting, or a deferred load-value
// correction. Events are advisory — squashes can orphan them — so
// consumers revalidate on pop; a spurious event at worst causes one
// extra idempotent examination of the slot.
type schedEvent struct {
	at   int64
	slot int32
}

// wheelHorizon bounds how far ahead the event wheel addresses cycles
// directly. Every scheduled delta is at most an op latency or a full
// memory-hierarchy miss chain (far below this), so ring aliasing never
// happens in practice; anything further out falls back to a linearly
// scanned overflow slice. Must be a power of two.
const wheelHorizon = 4096

// eventWheel is a calendar queue over the near future: the bucket at
// index c&mask lists, in push order, the slots whose events fire at
// cycle c. Pushing and draining are O(1) per event (a binary heap's
// O(log n) sift was a measurable share of the simulation loop), at the
// cost of walking empty buckets across skipped cycles — a walk no
// longer than the skip itself.
//
// Every bucket is a FIFO list threaded through one shared node pool,
// and drained buckets return their nodes to a free list. The wheel
// therefore costs a handful of allocations to build, however many
// buckets it has, and the pool grows only to the peak number of
// pending events.
type eventWheel struct {
	mask       int64
	head, tail []int32 // per-bucket first and last node; head is nilSlot when empty, tail is then stale
	nodes      []wheelNode
	free       int32 // first free node, nilSlot when every node is in use
	drained    int64 // every bucket for a cycle <= drained is empty
	n          int   // events in the ring
	over       []schedEvent
}

// wheelNode is one pending event: the window slot to wake, and the next
// node in its bucket (or in the free list).
type wheelNode struct {
	slot, link int32
}

// wheelPoolInit is the node pool's initial capacity. The suite's runs
// peak at about 32 pending events, so the pool rarely grows at all.
const wheelPoolInit = 64

func (w *eventWheel) init() {
	w.mask = wheelHorizon - 1
	w.head = make([]int32, wheelHorizon)
	w.tail = make([]int32, wheelHorizon)
	for i := range w.head {
		w.head[i] = nilSlot
	}
	w.nodes = make([]wheelNode, 0, wheelPoolInit)
	w.free = nilSlot
	w.drained = -1
}

// push records that the uop in slot reaches a scheduling-relevant state
// at cycle at.
func (w *eventWheel) push(at int64, slot int32) {
	if at > w.drained+wheelHorizon {
		//md:allocok amortized: the overflow list is rare and retains capacity
		w.over = append(w.over, schedEvent{at, slot})
		return
	}
	e := w.free
	if e == nilSlot {
		e = int32(len(w.nodes))
		//md:allocok amortized: the pool grows to the peak pending-event count and is recycled
		w.nodes = append(w.nodes, wheelNode{})
	} else {
		w.free = w.nodes[e].link
	}
	w.nodes[e] = wheelNode{slot: slot, link: nilSlot}
	b := at & w.mask
	if w.head[b] == nilSlot {
		w.head[b] = e
	} else {
		w.nodes[w.tail[b]].link = e
	}
	w.tail[b] = e
	w.n++
}

// next returns the earliest event cycle at or after from, or notYet.
// The caller drains strictly before from, so ring events all lie in
// (from-1, drained+horizon] and the scan stops at the first nonempty
// bucket; overflow events are likewise all at or after from.
func (w *eventWheel) next(from int64) int64 {
	t := notYet
	if w.n > 0 {
		for c := from; c <= w.drained+wheelHorizon; c++ {
			if w.head[c&w.mask] != nilSlot {
				t = c
				break
			}
		}
	}
	for _, e := range w.over {
		if e.at < t {
			t = e.at
		}
	}
	return t
}

func (p *Pipeline) slotIndex(seq int64) int32 {
	if p.slotMask != 0 {
		return int32(seq & p.slotMask)
	}
	return int32(seq % int64(p.cfg.Window))
}

// candInsert makes the entry at seq a wakeup candidate: the issue stage
// examines it every cycle until it fully issues or parks. Split-window
// units need no separate queues: each unit's task occupies a contiguous
// slot range, so the per-unit walk is a sub-range of the same bitmap.
func (p *Pipeline) candInsert(seq int64) {
	s := p.slotIndex(seq)
	p.unpark(s)
	p.cand.set(s)
}

// unpark detaches slot s from wherever it is parked (a producer's
// waiter list or a completion timer). Candidate queues are untouched.
func (p *Pipeline) unpark(s int32) {
	q := p.parkedOn[s]
	if q == parkNone {
		return
	}
	if q != parkTimer {
		if p.wPrev[s] != nilSlot {
			p.wNext[p.wPrev[s]] = p.wNext[s]
		} else {
			p.wHead[q] = p.wNext[s]
		}
		if p.wNext[s] != nilSlot {
			p.wPrev[p.wNext[s]] = p.wPrev[s]
		}
	}
	p.parkedOn[s] = parkNone
}

// parkOn moves the candidate in slot s onto the waiter list of producer
// slot q: it is not examined again until q's completion event fires (or
// a squash/reset intervenes). Spurious wakeups are safe — the entry
// just re-parks — but a missed wakeup is a correctness bug, so callers
// park only on producers whose completion is event-covered.
func (p *Pipeline) parkOn(s, q int32) {
	p.cand.clear(s)
	p.unpark(s)
	p.parkedOn[s] = q
	p.wPrev[s] = nilSlot
	p.wNext[s] = p.wHead[q]
	if p.wHead[q] != nilSlot {
		p.wPrev[p.wHead[q]] = s
	}
	p.wHead[q] = s
}

// parkTimed removes the candidate until a previously scheduled event
// (e.g. its own address generation completing) wakes it.
func (p *Pipeline) parkTimed(s int32) {
	p.cand.clear(s)
	p.unpark(s)
	p.parkedOn[s] = parkTimer
}

// processWakeups drains due events, returning parked entries to the
// candidate set. Events carry no payload beyond the slot; the issue
// walk revalidates everything, so an event orphaned by a squash or a
// slot reuse at worst causes one extra idempotent examination.
func (p *Pipeline) processWakeups() {
	w := &p.events
	for c := w.drained + 1; c <= p.cycle; c++ {
		b := c & w.mask
		first := w.head[b]
		if first == nilSlot {
			continue
		}
		for e := first; e != nilSlot; e = w.nodes[e].link {
			p.wake(w.nodes[e].slot)
			w.n--
		}
		// wake schedules nothing, so the drained list is still intact:
		// splice it onto the free list whole.
		w.nodes[w.tail[b]].link = w.free
		w.free = first
		w.head[b] = nilSlot
	}
	w.drained = p.cycle
	if len(w.over) > 0 {
		keep := w.over[:0]
		for _, e := range w.over {
			if e.at <= p.cycle {
				p.wake(e.slot)
			} else {
				//md:allocok reuse-append into over[:0]; never exceeds the old length
				keep = append(keep, e)
			}
		}
		w.over = keep
	}
}

// wake fires one event for slot s: a timer-parked occupant and every
// entry parked on s return to the candidate set.
func (p *Pipeline) wake(s int32) {
	if p.parkedOn[s] == parkTimer {
		p.parkedOn[s] = parkNone
		if p.rob.live(s) {
			p.cand.set(s)
		}
	}
	for w := p.wHead[s]; w != nilSlot; {
		nw := p.wNext[w]
		p.parkedOn[w] = parkNone
		if p.rob.live(w) {
			p.cand.set(w)
		}
		w = nw
	}
	p.wHead[s] = nilSlot
}

// nextEventCycle returns the earliest upcoming cycle at which machine
// state can change: the top pending completion event, a fetch-stall
// expiry, or the front-end queue's next ready time. notYet when none.
// It is called after p.cycle has advanced to the next cycle to run, so
// times at exactly p.cycle count as upcoming (they make the skip a
// no-op); only times already in the past are ignored.
func (p *Pipeline) nextEventCycle() int64 {
	t := p.events.next(p.cycle)
	if p.cfg.SplitWindow {
		for u := range p.unitResumeAt {
			if r := p.unitResumeAt[u]; r >= p.cycle && r < t {
				t = r
			}
		}
	} else if p.fetchResumeAt >= p.cycle && p.fetchResumeAt < t {
		t = p.fetchResumeAt
	}
	if len(p.fetchQ) > p.fetchHead {
		if r := p.fetchQ[p.fetchHead].ready; r >= p.cycle && r < t {
			t = r
		}
	}
	return t
}

// trySkip advances the clock directly to the next event after a cycle
// in which nothing happened (no issue, commit, dispatch, fetch, or
// store event). Every mechanism that could act earlier is event-covered,
// so the skipped cycles are exactly the cycles the reference scan
// (scan_test.go) burns discovering that nothing can proceed. The
// zero-commit stall taxonomy (whose classification cannot change while
// the head is frozen) and the split-window rotation are batch-updated
// so statistics stay bit-identical to the scan's.
func (p *Pipeline) trySkip() {
	target := p.nextEventCycle()
	if target <= p.cycle || target >= notYet {
		return
	}
	skipped := target - p.cycle
	s := p.slotIndex(p.headSeq)
	switch {
	case p.rob.seq[s] != p.headSeq:
		p.res.StallEmpty += skipped
	case p.rob.flags[s]&fMem != 0:
		p.res.StallMem += skipped
	default:
		p.res.StallExec += skipped
	}
	if p.cfg.SplitWindow {
		p.issueRotate += int(skipped)
	}
	p.cycle = target
}

//go:build mdsan

package core

import (
	"strings"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/emu"
)

// These tests deliberately corrupt pipeline bookkeeping and assert the
// mdsan sanitizer catches it at the next check, proving the checks are
// armed and connected to the state they claim to guard.

// mustPanicMdsan runs f and asserts it panics with an mdsan diagnostic
// containing want.
func mustPanicMdsan(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("corruption went undetected (want mdsan panic containing %q)", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "mdsan:") || !strings.Contains(msg, want) {
			t.Fatalf("unexpected panic %v (want mdsan panic containing %q)", r, want)
		}
	}()
	f()
}

// warmPipeline runs the recurrence loop long enough to populate the
// window, address tables and calendar wheel, then hands over the live
// pipeline mid-flight.
func warmPipeline(t *testing.T) *Pipeline {
	t.Helper()
	cfg := config.Default128().WithPolicy(config.Naive).WithAddressScheduler(1)
	pl, err := New(cfg, emu.NewTrace(emu.New(recurrence(5000))))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		pl.step()
	}
	return pl
}

// TestMdsanDetectsWheelMiscount corrupts the calendar wheel's event
// count and expects the next full step to trip the accounting check —
// this also proves step() actually invokes the sanitizer.
func TestMdsanDetectsWheelMiscount(t *testing.T) {
	p := warmPipeline(t)
	p.events.n++
	mustPanicMdsan(t, "wheel count", func() { p.step() })
}

// TestMdsanDetectsWheelPoolLeak drops the event wheel's free list: the
// orphaned nodes no longer partition the pool with the bucket lists.
func TestMdsanDetectsWheelPoolLeak(t *testing.T) {
	p := warmPipeline(t)
	if p.events.free == nilSlot {
		t.Fatal("warm pipeline has no free wheel node to leak")
	}
	p.events.free = nilSlot
	mustPanicMdsan(t, "wheel pool leaks nodes", func() { p.sanitize() })
}

// TestMdsanDetectsStaleCandidate plants a candidate bit on a slot that
// holds no valid entry.
func TestMdsanDetectsStaleCandidate(t *testing.T) {
	p := warmPipeline(t)
	s := int32(-1)
	for i := int32(0); i < int32(p.cfg.Window); i++ {
		if !p.rob.live(i) {
			s = i
			break
		}
	}
	if s < 0 {
		t.Fatal("warm pipeline has no empty slot to corrupt")
	}
	p.cand.set(s)
	mustPanicMdsan(t, "candidate bitmap holds invalid slot", func() { p.sanitize() })
}

// TestMdsanDetectsTableDesync rewrites a posted store's table sequence
// number so the table no longer mirrors the ROB entry.
func TestMdsanDetectsTableDesync(t *testing.T) {
	p := warmPipeline(t)
	s := -1
	for i := 0; i < p.cfg.Window; i++ {
		if p.stores.in[i] {
			s = i
			break
		}
	}
	if s < 0 {
		t.Fatal("warm pipeline has no posted store to corrupt")
	}
	p.stores.seq[s]++
	mustPanicMdsan(t, "does not mirror the ROB", func() { p.sanitize() })
}

// TestMdsanDetectsLostWakeup timer-parks a slot without scheduling any
// wheel event for it: the signature of a missed wakeup (livelock).
func TestMdsanDetectsLostWakeup(t *testing.T) {
	p := warmPipeline(t)
	// Collect slots that do have pending events, then pick an unparked,
	// non-candidate slot outside that set.
	pending := make(map[int32]bool)
	ev := &p.events
	for b := range ev.head {
		for e := ev.head[b]; e != nilSlot; e = ev.nodes[e].link {
			pending[ev.nodes[e].slot] = true
		}
	}
	for _, e := range ev.over {
		pending[e.slot] = true
	}
	s := int32(-1)
	for i := int32(0); i < int32(p.cfg.Window); i++ {
		if !pending[i] && p.parkedOn[i] == parkNone && !p.cand.has(i) {
			s = i
			break
		}
	}
	if s < 0 {
		t.Fatal("warm pipeline has no event-free slot to corrupt")
	}
	p.parkedOn[s] = parkTimer
	mustPanicMdsan(t, "timer-parked with no pending event", func() { p.sanitize() })
}

// TestMdsanDetectsBrokenWaiterList points a slot's parkedOn at a
// producer without linking it into that producer's waiter list.
func TestMdsanDetectsBrokenWaiterList(t *testing.T) {
	p := warmPipeline(t)
	s := int32(-1)
	for i := int32(0); i < int32(p.cfg.Window); i++ {
		if p.rob.live(i) && p.parkedOn[i] == parkNone && !p.cand.has(i) {
			s = i
			break
		}
	}
	if s < 0 {
		t.Fatal("warm pipeline has no unparked valid slot to corrupt")
	}
	// Park on an older valid producer so only the list linkage is wrong.
	q := int32(-1)
	for i := int32(0); i < int32(p.cfg.Window); i++ {
		if i != s && p.rob.live(i) && p.rob.seq[i] < p.rob.seq[s] {
			q = i
			break
		}
	}
	if q < 0 {
		t.Fatal("warm pipeline has no older producer slot")
	}
	p.parkedOn[s] = q
	mustPanicMdsan(t, "waiter lists", func() { p.sanitize() })
}

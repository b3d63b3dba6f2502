// Package guarded exercises the guardedby analyzer: flagged unlocked
// accesses, RLock-for-read, TryLock branches, defer-unlock, locked-call
// flow, fresh-local construction, and nolock waivers.
package guarded

import "sync"

type counter struct {
	mu sync.Mutex
	n  int //md:guardedby mu

	rw     sync.RWMutex
	shared []int //md:guardedby rw

	free int // unguarded on purpose
}

type badAnno struct {
	//md:guardedby
	a int // want "//md:guardedby needs the name of the sibling mutex field"
	//md:guardedby nosuch
	b  int // want "no sibling sync.Mutex/RWMutex field named \"nosuch\""
	mu sync.Mutex
}

func (c *counter) incLocked() {
	c.mu.Lock()
	c.n++ // ok: exclusive lock held
	c.mu.Unlock()
}

func (c *counter) incDeferred() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++ // ok: defer holds the lock to the end
	c.free++
}

func (c *counter) incUnlocked() {
	c.n++ // want "write to c.n requires c.mu held exclusively"
}

func (c *counter) readAfterUnlock() int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.n // want "access to c.n requires c.mu held"
}

func (c *counter) readUnderRLock() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.shared[0] // ok: reads are legal under RLock
}

func (c *counter) writeUnderRLock() {
	c.rw.RLock()
	defer c.rw.RUnlock()
	c.shared[0] = 1 // want "write to c.shared guarded by c.rw, but only the read lock is held"
}

func (c *counter) writeUnderLock() {
	c.rw.Lock()
	defer c.rw.Unlock()
	c.shared = append(c.shared, 1) // ok
}

func (c *counter) tryLock() {
	if c.mu.TryLock() {
		c.n++ // ok: TryLock succeeded in this branch
		c.mu.Unlock()
	}
	c.n++ // want "write to c.n requires c.mu held exclusively"
}

func (c *counter) branchScope() {
	if c.free > 0 {
		c.mu.Lock()
		c.n++ // ok
		c.mu.Unlock()
	}
	c.n-- // want "write to c.n requires c.mu held exclusively"
}

func (c *counter) closureEscapes() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() {
		c.n++ // want "write to c.n requires c.mu held exclusively"
	}
}

func (c *counter) closureLocksItself() func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++ // ok: the closure takes the lock on its own schedule
	}
}

// nLocked reads n for callers that already hold the lock.
//
//md:locked mu
func (c *counter) nLocked() int {
	return c.n // ok: //md:locked means the caller holds c.mu
}

func (c *counter) callsLockedCorrectly() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nLocked() // ok
}

func (c *counter) callsLockedWithout() int {
	return c.nLocked() // want "call to counter.nLocked requires c.mu held"
}

func newCounter() *counter {
	c := &counter{}
	c.n = 1 // ok: fresh local, single-owner construction phase
	return c
}

func (c *counter) waived() {
	c.n++ //md:nolock snapshot read raced deliberately; documented in caller
}

func (c *counter) waivedNoReason() {
	//md:nolock
	c.n++ // want "//md:nolock waiver without justification"
}

// reset rebuilds state before the counter is published anywhere.
//
//md:nolock single-owner before publish
func (c *counter) reset() {
	c.n = 0 // ok: whole function waived
	c.shared = nil
}

// memo is generic: its fields are distinct objects per instantiation,
// and inside its methods, so guards must follow them to the declaration.
type memo[K comparable, V any] struct {
	mu   sync.Mutex
	done map[K]V //md:guardedby mu
}

func (m *memo[K, V]) get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.done[k] // ok: lock held
	return v, ok
}

func (m *memo[K, V]) peek(k K) bool {
	_, ok := m.done[k] // want "access to m.done requires m.mu held"
	return ok
}

type owner struct {
	names memo[string, int]
}

func (o *owner) size() int {
	return len(o.names.done) // want "access to o.names.done requires o.names.mu held"
}

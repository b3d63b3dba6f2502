// Package mdp implements the memory dependence prediction hardware the
// paper evaluates: the selective-speculation predictor (§3.5), the
// store-barrier predictor (§3.5), the MDPT used by
// speculation/synchronization (§3.6), and — as an extension — the
// store-set predictor of Chrysos & Emer (the paper's reference [4]).
//
// All predictors are PC-indexed, set-associative tables with periodic
// flushing (the paper resets/flushes every one million cycles to adapt
// back after stale dependences).
package mdp

// TableConfig sizes a predictor table.
type TableConfig struct {
	Entries int // total entries: Assoc times a power-of-two set count (checked by config.Machine.Validate)
	Assoc   int
	// FlushInterval clears the table every so many cycles; 0 disables.
	FlushInterval int64
}

// DefaultTable is the paper's 4K-entry, 2-way configuration with a
// one-million-cycle flush interval.
func DefaultTable() TableConfig {
	return TableConfig{Entries: 4096, Assoc: 2, FlushInterval: 1_000_000}
}

type entry[T any] struct {
	tag   uint32
	valid bool
	used  int64
	val   T
}

// table is a PC-indexed set-associative structure with LRU replacement
// and lazy periodic flushing.
type table[T any] struct {
	sets      [][]entry[T]
	setMask   uint32
	clock     int64
	flushEach int64
	nextFlush int64
	// Flushes counts how many times the table has been cleared.
	Flushes uint64
}

func newTable[T any](cfg TableConfig) *table[T] {
	nSets := cfg.Entries / cfg.Assoc
	t := &table[T]{
		sets:      make([][]entry[T], nSets),
		setMask:   uint32(nSets - 1),
		flushEach: cfg.FlushInterval,
		nextFlush: cfg.FlushInterval,
	}
	for i := range t.sets {
		t.sets[i] = make([]entry[T], cfg.Assoc)
	}
	return t
}

func (t *table[T]) maybeFlush(cycle int64) {
	if t.flushEach <= 0 || cycle < t.nextFlush {
		return
	}
	for _, set := range t.sets {
		for i := range set {
			set[i] = entry[T]{}
		}
	}
	t.Flushes++
	for t.nextFlush <= cycle {
		t.nextFlush += t.flushEach
	}
}

func (t *table[T]) setOf(pc uint32) []entry[T] { return t.sets[(pc>>2)&t.setMask] }

// get returns the entry for pc, or nil.
func (t *table[T]) get(pc uint32, cycle int64) *entry[T] {
	t.maybeFlush(cycle)
	t.clock++
	set := t.setOf(pc)
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].used = t.clock
			return &set[i]
		}
	}
	return nil
}

// put returns the entry for pc, allocating (with LRU replacement) if
// absent. The second result reports whether the entry already existed.
func (t *table[T]) put(pc uint32, cycle int64) (*entry[T], bool) {
	if e := t.get(pc, cycle); e != nil {
		return e, true
	}
	set := t.setOf(pc)
	v := &set[0]
	for i := range set {
		if !set[i].valid {
			v = &set[i]
			break
		}
		if set[i].used < v.used {
			v = &set[i]
		}
	}
	var zero T
	*v = entry[T]{tag: pc, valid: true, used: t.clock, val: zero}
	return v, false
}

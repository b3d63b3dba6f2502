package cache

import (
	"encoding/binary"
	"errors"
)

// Warm-state serialization. AppendState flattens everything a functional
// warming pass mutates — tags, valid bits, LRU stamps, the LRU clock and
// the Stats counters — into a little-endian byte stream; RestoreState is
// the exact inverse. Timing-only state (bank ports, MSHRs, fill-ready
// cycles) is always zero after a purely functional pass, so it is omitted
// from the format and zeroed on restore. Restoring a state captured after
// Warm()-ing N references leaves the cache bit-identical to one that
// warmed those N references directly.

// Sentinel decode errors. RestoreState is a hot path (//md:hotpath), so
// failures surface as predeclared values rather than formatted errors.
var (
	// ErrStateTruncated reports a state buffer shorter than its own
	// geometry implies.
	ErrStateTruncated = errors.New("cache: warm state truncated")
	// ErrStateGeometry reports a state captured from a cache with a
	// different set count or associativity.
	ErrStateGeometry = errors.New("cache: warm state geometry mismatch")
)

const (
	wayBytes       = 4 + 1 + 8 // tag, valid, used
	cacheHdrBytes  = 4 + 4 + 8 + 4*8
	mainMemABytes  = 8
	hierarchyCount = 3 // I, D, L2
)

// StateLen returns the exact AppendState footprint of this cache.
func (c *Cache) StateLen() int {
	return cacheHdrBytes + len(c.ways)*wayBytes
}

// AppendState appends the cache's warm state to b and returns the
// extended slice.
func (c *Cache) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.ways)/c.cfg.Assoc))
	b = binary.LittleEndian.AppendUint32(b, uint32(c.cfg.Assoc))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.clock))
	b = binary.LittleEndian.AppendUint64(b, c.Stats.Accesses)
	b = binary.LittleEndian.AppendUint64(b, c.Stats.Misses)
	b = binary.LittleEndian.AppendUint64(b, c.Stats.MSHRStalls)
	b = binary.LittleEndian.AppendUint64(b, c.Stats.BankStalls)
	for i := range c.ways {
		w := &c.ways[i]
		b = binary.LittleEndian.AppendUint32(b, w.tag)
		if w.valid {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(w.used))
	}
	return b
}

// RestoreState overwrites the cache's warm state from the front of b and
// returns the number of bytes consumed. The buffer is validated against
// the cache's geometry before anything is mutated, so a failed restore
// leaves the cache untouched. Timing state (banks, MSHRs, fill-ready
// cycles) is zeroed.
//
//md:hotpath
func (c *Cache) RestoreState(b []byte) (int, error) {
	if len(b) < cacheHdrBytes {
		return 0, ErrStateTruncated
	}
	nSets := binary.LittleEndian.Uint32(b)
	assoc := binary.LittleEndian.Uint32(b[4:])
	if int(nSets) != len(c.ways)/c.cfg.Assoc || int(assoc) != c.cfg.Assoc {
		return 0, ErrStateGeometry
	}
	total := c.StateLen()
	if len(b) < total {
		return 0, ErrStateTruncated
	}
	c.clock = int64(binary.LittleEndian.Uint64(b[8:]))
	c.Stats.Accesses = binary.LittleEndian.Uint64(b[16:])
	c.Stats.Misses = binary.LittleEndian.Uint64(b[24:])
	c.Stats.MSHRStalls = binary.LittleEndian.Uint64(b[32:])
	c.Stats.BankStalls = binary.LittleEndian.Uint64(b[40:])
	off := cacheHdrBytes
	for i := range c.ways {
		c.ways[i] = way{
			tag:   binary.LittleEndian.Uint32(b[off:]),
			valid: b[off+4] != 0,
			used:  int64(binary.LittleEndian.Uint64(b[off+5:])),
		}
		off += wayBytes
	}
	for i := range c.banks {
		c.banks[i].free = 0
		for j := range c.banks[i].mshrs {
			c.banks[i].mshrs[j] = mshr{}
		}
	}
	return off, nil
}

// AppendState appends the memory's warm state (its access counter).
func (m *MainMemory) AppendState(b []byte) []byte {
	return binary.LittleEndian.AppendUint64(b, m.Accesses)
}

// RestoreState overwrites the memory's warm state from the front of b.
//
//md:hotpath
func (m *MainMemory) RestoreState(b []byte) (int, error) {
	if len(b) < mainMemABytes {
		return 0, ErrStateTruncated
	}
	m.Accesses = binary.LittleEndian.Uint64(b)
	return mainMemABytes, nil
}

// StateLen returns the exact AppendState footprint of the hierarchy.
func (h *Hierarchy) StateLen() int {
	return h.I.StateLen() + h.D.StateLen() + h.L2.StateLen() + mainMemABytes
}

// AppendState appends the warm state of every level (I, D, L2, memory).
func (h *Hierarchy) AppendState(b []byte) []byte {
	b = h.I.AppendState(b)
	b = h.D.AppendState(b)
	b = h.L2.AppendState(b)
	return h.Mem.AppendState(b)
}

// RestoreState overwrites the warm state of every level from the front
// of b and returns the bytes consumed. On error some levels may already
// be restored; callers treat any error as "discard this machine".
//
//md:hotpath
func (h *Hierarchy) RestoreState(b []byte) (int, error) {
	off := 0
	for _, c := range [hierarchyCount]*Cache{h.I, h.D, h.L2} {
		n, err := c.RestoreState(b[off:])
		if err != nil {
			return off, err
		}
		off += n
	}
	n, err := h.Mem.RestoreState(b[off:])
	return off + n, err
}

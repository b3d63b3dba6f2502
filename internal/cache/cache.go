// Package cache models the paper's lockup-free, banked, set-associative
// cache hierarchy (Table 2) for timing purposes. Caches carry no data —
// values come from the functional emulator — so a cache access is a
// question: "when does this reference complete?" The model accounts for
// hit/miss latency at each level, bank conflicts (one new access per bank
// per cycle), LRU replacement, and MSHR-limited outstanding misses
// (primary misses per bank, secondary misses per primary).
package cache

// Level is anything that can service a memory reference: a cache or main
// memory. Access returns the cycle at which the reference's data is
// available, given that the request arrives at the level at cycle start.
// Warm updates contents and statistics without modeling any timing (for
// the functional windows of sampled simulation).
type Level interface {
	Access(addr uint32, start int64, write bool) (done int64)
	Warm(addr uint32, write bool)
}

// MainMemory is the terminal level: a fixed-latency, infinitely-banked
// backing store (Table 2: "Infinite, 34 cycle + 4-word transfer * 2
// cycles").
type MainMemory struct {
	Latency int64
	// Accesses counts references that reached memory.
	Accesses uint64
}

// Access implements Level.
func (m *MainMemory) Access(addr uint32, start int64, write bool) int64 {
	m.Accesses++
	return start + m.Latency
}

// Warm implements Level (contents-only access).
func (m *MainMemory) Warm(addr uint32, write bool) { m.Accesses++ }

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	BlockBytes int
	Banks      int
	// HitLatency is the added latency of a hit at this level.
	HitLatency int64
	// MissExtra is added on a miss before the next level's time (tag
	// check + miss handling); total miss time = MissExtra + next level.
	MissExtra int64
	// PrimaryMSHRs limits outstanding primary misses per bank;
	// SecondaryPerPrimary limits merged secondary misses per primary.
	// Zero values mean "unlimited".
	PrimaryMSHRs        int
	SecondaryPerPrimary int
	// Perfect makes every access hit in HitLatency with no bank or MSHR
	// constraints (for ablations and pipeline-isolation tests).
	Perfect bool
}

type way struct {
	tag   uint32
	valid bool
	used  int64 // LRU timestamp
	ready int64 // cycle the fill completes; accesses before this merge as secondary misses
}

type mshr struct {
	block      uint32
	ready      int64
	secondarys int
	inUse      bool
}

type bank struct {
	free  int64 // next cycle the bank can accept an access
	mshrs []mshr
}

// Stats holds access counters for one cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	MSHRStalls uint64 // accesses delayed by MSHR exhaustion
	BankStalls uint64 // accesses delayed by bank port conflicts
}

// MissRate returns Misses/Accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg  Config
	next Level
	// ways holds every set's ways in one flat array: set s occupies
	// ways[s*Assoc : (s+1)*Assoc]. One allocation per level keeps
	// construction cheap (Table 2's L2 alone has 16K sets).
	ways       []way
	banks      []bank
	setsPEBank int
	blockShift uint
	bankMask   uint32
	setMask    uint32
	clock      int64 // monotonically increasing LRU stamp
	Stats      Stats
}

// New builds a cache over next. Sizes must be powers of two.
func New(cfg Config, next Level) *Cache {
	nBlocks := cfg.SizeBytes / cfg.BlockBytes
	nSets := nBlocks / cfg.Assoc
	setsPerBank := nSets / cfg.Banks
	if setsPerBank == 0 {
		setsPerBank = 1
		nSets = cfg.Banks
	}
	c := &Cache{
		cfg:        cfg,
		next:       next,
		ways:       make([]way, nSets*cfg.Assoc),
		banks:      make([]bank, cfg.Banks),
		setsPEBank: setsPerBank,
		blockShift: log2(uint32(cfg.BlockBytes)),
		bankMask:   uint32(cfg.Banks - 1),
		setMask:    uint32(setsPerBank - 1),
	}
	if n := cfg.PrimaryMSHRs; n > 0 {
		mshrs := make([]mshr, cfg.Banks*n)
		for i := range c.banks {
			c.banks[i].mshrs = mshrs[i*n : (i+1)*n : (i+1)*n]
		}
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func log2(v uint32) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func (c *Cache) blockOf(addr uint32) uint32 { return addr >> c.blockShift }
func (c *Cache) bankOf(block uint32) uint32 { return block & c.bankMask }

// setOf maps a block to its set's ways. Banks are block-interleaved
// (Table 2), and each bank holds its own sets: the low block bits select
// the bank, the bits above them select the set within that bank.
func (c *Cache) setOf(block uint32) []way {
	within := (block >> log2(uint32(c.cfg.Banks))) & c.setMask
	base := int(c.bankOf(block)*uint32(c.setsPEBank)+within) * c.cfg.Assoc
	return c.ways[base : base+c.cfg.Assoc]
}

// lookup returns the way holding block, or nil.
func (c *Cache) lookup(set []way, tag uint32) *way {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// victim returns an invalid way if one exists, else the LRU way.
func (c *Cache) victim(set []way) *way {
	v := &set[0]
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].used < v.used {
			v = &set[i]
		}
	}
	return v
}

// Access implements Level. The reference to addr arrives at cycle start;
// the returned cycle is when its data is available (or, for writes, when
// the write is accepted).
func (c *Cache) Access(addr uint32, start int64, write bool) int64 {
	c.Stats.Accesses++
	c.clock++
	if c.cfg.Perfect {
		return start + c.cfg.HitLatency
	}
	block := c.blockOf(addr)
	bk := &c.banks[c.bankOf(block)]

	// One new access per bank per cycle.
	at := start
	if bk.free > at {
		c.Stats.BankStalls++
		at = bk.free
	}
	bk.free = at + 1

	set := c.setOf(block)
	if w := c.lookup(set, block); w != nil {
		w.used = c.clock
		if w.ready > at {
			// The line is still being filled: this is a secondary miss
			// that merges with the outstanding primary (MSHR permitting).
			c.Stats.Misses++
			return c.secondary(bk, block, at, w.ready)
		}
		return at + c.cfg.HitLatency
	}

	// Primary miss: allocate an MSHR (possibly waiting for one), fetch
	// from the next level, and install the line with its fill time.
	c.Stats.Misses++
	done := c.primaryMiss(bk, block, at, write)
	w := c.victim(set)
	w.tag, w.valid, w.used, w.ready = block, true, c.clock, done
	return done
}

// secondary merges a reference to an in-flight block with its primary
// miss, respecting the secondary-per-primary MSHR limit.
func (c *Cache) secondary(bk *bank, block uint32, at, lineReady int64) int64 {
	if bk.mshrs == nil || c.cfg.SecondaryPerPrimary == 0 {
		return lineReady
	}
	for i := range bk.mshrs {
		m := &bk.mshrs[i]
		if m.inUse && m.block == block && m.ready > at {
			if m.secondarys < c.cfg.SecondaryPerPrimary {
				m.secondarys++
				return m.ready
			}
			// Secondary limit reached: the reference retries after the
			// fill and then hits.
			c.Stats.MSHRStalls++
			return m.ready + c.cfg.HitLatency
		}
	}
	return lineReady
}

// primaryMiss allocates a primary MSHR (stalling for the earliest one if
// all are pending) and returns when the block's data is available at this
// level (next-level delivery plus this level's hit latency).
func (c *Cache) primaryMiss(bk *bank, block uint32, at int64, write bool) int64 {
	if bk.mshrs == nil {
		return c.nextLevel(block, at, write) + c.cfg.HitLatency
	}
	var slot *mshr
	for i := range bk.mshrs {
		m := &bk.mshrs[i]
		if !m.inUse || m.ready <= at {
			slot = m
			break
		}
	}
	if slot == nil {
		slot = &bk.mshrs[0]
		for i := 1; i < len(bk.mshrs); i++ {
			if bk.mshrs[i].ready < slot.ready {
				slot = &bk.mshrs[i]
			}
		}
		c.Stats.MSHRStalls++
		at = slot.ready
	}
	done := c.nextLevel(block, at, write) + c.cfg.HitLatency
	*slot = mshr{block: block, ready: done, inUse: true}
	return done
}

func (c *Cache) nextLevel(block uint32, at int64, write bool) int64 {
	return c.next.Access(block<<c.blockShift, at+c.cfg.MissExtra, write)
}

// Warm implements Level: it updates tags, LRU state and hit/miss
// statistics exactly like Access, but touches no bank or MSHR timing, so
// it is safe to replay long instruction streams at a single cycle (the
// functional windows of sampled simulation).
func (c *Cache) Warm(addr uint32, write bool) {
	c.Stats.Accesses++
	c.clock++
	if c.cfg.Perfect {
		return
	}
	block := c.blockOf(addr)
	set := c.setOf(block)
	if w := c.lookup(set, block); w != nil {
		w.used = c.clock
		return
	}
	c.Stats.Misses++
	c.next.Warm(block<<c.blockShift, write)
	w := c.victim(set)
	*w = way{tag: block, valid: true, used: c.clock}
}

package cache

// Hierarchy bundles the paper's Table 2 memory system: split L1
// instruction and data caches over a shared unified L2 over main memory.
type Hierarchy struct {
	I   *Cache
	D   *Cache
	L2  *Cache
	Mem *MainMemory
}

// DCacheBanks is the Table 2 D-cache's bank count. Each bank starts one
// access per cycle, so it also bounds the memory ports that add
// bandwidth: config.Machine.Validate refuses more ports than banks.
const DCacheBanks = 4

// Table2 builds the default hierarchy:
//
//	I-cache: 64K, 2-way, 8 banks, 32B blocks, 2-cycle hit
//	D-cache: 32K, 2-way, 4 banks, 32B blocks, 2-cycle hit,
//	         8 primary MSHRs/bank, 8 secondary/primary
//	L2:      4M, 2-way, 4 banks, 128B blocks; an L1 miss that hits in L2
//	         costs ~10 cycles total; a miss to main memory ~50 cycles.
func Table2() *Hierarchy {
	mem := &MainMemory{Latency: 40} // 50 total minus the 10 spent reaching/retrying L2
	l2 := New(Config{
		Name: "L2", SizeBytes: 4 << 20, Assoc: 2, BlockBytes: 128, Banks: 4,
		HitLatency: 8, MissExtra: 0,
		PrimaryMSHRs: 4, SecondaryPerPrimary: 3,
	}, mem)
	icache := New(Config{
		Name: "I", SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 32, Banks: 8,
		HitLatency: 2, MissExtra: 0,
		PrimaryMSHRs: 2, SecondaryPerPrimary: 1,
	}, l2)
	dcache := New(Config{
		Name: "D", SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, Banks: DCacheBanks,
		HitLatency: 2, MissExtra: 0,
		PrimaryMSHRs: 8, SecondaryPerPrimary: 8,
	}, l2)
	return &Hierarchy{I: icache, D: dcache, L2: l2, Mem: mem}
}

// Perfect builds a hierarchy where every access hits at L1 latency —
// useful for isolating pipeline effects in tests and ablations.
func Perfect() *Hierarchy {
	mem := &MainMemory{Latency: 0}
	always := func(name string, hit int64) *Cache {
		return New(Config{
			Name: name, SizeBytes: 256, Assoc: 1, BlockBytes: 32, Banks: 1,
			HitLatency: hit, Perfect: true,
		}, mem)
	}
	return &Hierarchy{I: always("I", 2), D: always("D", 2), L2: always("L2", 8), Mem: mem}
}

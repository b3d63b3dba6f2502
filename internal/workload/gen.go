package workload

import (
	"fmt"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// rng is a deterministic xorshift64* generator so every benchmark build
// is reproducible.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability p.
func (r *rng) chance(p float64) bool { return float64(r.next()%1_000_000) < p*1_000_000 }

// slot kinds for body generation.
type slotKind uint8

const (
	kFiller slotKind = iota
	kLoadStream
	kLoadPair
	kLoadPtr
	kStoreStream
	kStoreList    // store through the chased pointer (late address)
	kStoreIndexed // store to a data-dependent index (late address)
	kStorePair
	kBranch
	kCall
)

type slot struct {
	kind slotKind
	pair int // pair index for kLoadPair/kStorePair
}

// register roles used by the generator.
const (
	rStream = isa.R1
	rWrite  = isa.R2
	rPair   = isa.R3
	rList   = isa.R4
)

var intVals = []isa.Reg{isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.R15}
var fpVals = []isa.Reg{isa.F8, isa.F9, isa.F10, isa.F11, isa.F12, isa.F13, isa.F14, isa.F15}

// streamWindow is the byte range of offsets used off the streaming
// pointers; arenas are padded by this much slack.
const streamWindow = 8192

// lateStoreFrac is the fraction of streaming stores whose address is
// computed from chased pointers or loaded indices and therefore posts
// late to the address-based scheduler (what keeps AS/NO below AS/NAV).
const lateStoreFrac = 0.18

// Build generates the synthetic program for the named benchmark.
func Build(name string) (*prog.Program, error) {
	pr, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return Generate(pr)
}

// MustBuild is Build, panicking on unknown names (for tests/benches over
// the fixed suite).
func MustBuild(name string) *prog.Program {
	p, err := Build(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Generate builds a program from an arbitrary profile (exported so
// ablation experiments can perturb single knobs).
func Generate(pr Profile) (*prog.Program, error) {
	if pr.FootprintWords <= 0 || pr.FootprintWords&(pr.FootprintWords-1) != 0 {
		return nil, fmt.Errorf("workload %s: footprint must be a positive power of two", pr.Name)
	}
	if pr.FootprintWords > int(prog.StackBase-prog.DataBase)/prog.WordBytes {
		return nil, fmt.Errorf("workload %s: footprint of %d words exceeds the data section", pr.Name, pr.FootprintWords)
	}
	if pr.BranchEvery < 3 {
		return nil, fmt.Errorf("workload %s: BranchEvery too small", pr.Name)
	}
	g := &generator{pr: pr, rng: newRng(pr.Seed*0x9e3779b9 + 1), b: prog.NewBuilder(), lastLoadInt: isa.NoReg, lastLoadFP: isa.NoReg, lastProduced: isa.NoReg}
	if err := g.layout(); err != nil {
		return nil, fmt.Errorf("workload %s: footprint of %d words: %w", pr.Name, pr.FootprintWords, err)
	}
	g.plan()
	g.emit()
	p, err := g.b.Program()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", pr.Name, err)
	}
	return p, nil
}

type generator struct {
	pr  Profile
	rng *rng
	b   *prog.Builder

	readBase, writeBase, pairBase, listBase uint32
	readMask, writeMask                     int64
	nodes                                   int

	slots   []slot
	nPairs  int
	helpers int
	lbl     int

	// lastLoadInt is the int register most recently used as a load
	// destination; data-dependent branches test it, so delaying loads
	// delays branch resolution (as in real codes). lastProduced tracks
	// the most recent value-producing destination of either kind, which
	// store data prefers (copies and computed stores dominate real code).
	lastLoadInt  isa.Reg
	lastLoadFP   isa.Reg
	lastProduced isa.Reg

	// value-register rotation state (build-time round robin).
	ivNext, fvNext int
}

// layout allocates and initializes the data arenas. It fails, before
// initializing anything, when the arenas do not fit between DataBase
// and StackBase.
func (g *generator) layout() error {
	b, pr := g.b, g.pr
	readBytes := uint32(pr.FootprintWords * prog.WordBytes)
	g.readBase = b.AllocAligned(pr.FootprintWords+streamWindow/prog.WordBytes, readBytes)
	g.readMask = int64(readBytes - 1)

	writeWords := pr.FootprintWords / 4
	if writeWords < 1024 {
		writeWords = 1024
	}
	writeBytes := uint32(writeWords * prog.WordBytes)
	g.writeBase = b.AllocAligned(writeWords+streamWindow/prog.WordBytes, writeBytes)
	g.writeMask = int64(writeBytes - 1)
	if err := b.Err(); err != nil {
		return err
	}

	// Fill the read arena with pseudo-random data: loaded values feed
	// data-dependent branches, so they must actually vary.
	r := newRng(pr.Seed + 7)
	for i := 0; i < pr.FootprintWords+streamWindow/prog.WordBytes; i++ {
		b.SetData(g.readBase+uint32(i*prog.WordBytes), int64(r.next()%4096)+1)
	}

	// Pointer-chase list: a shuffled cycle sized to mostly fit L1.
	g.nodes = pr.FootprintWords / 16
	if g.nodes > 1024 {
		g.nodes = 1024
	}
	if g.nodes < 16 {
		g.nodes = 16
	}
	// Nodes are [next, payload] pairs so pointer-dependent stores have a
	// target that does not corrupt the cycle.
	g.listBase = b.Alloc(g.nodes * 2)
	perm := make([]int, g.nodes)
	for i := range perm {
		perm[i] = i
	}
	// Fisher-Yates over perm[1:] so the cycle starts at node 0.
	for i := g.nodes - 1; i > 1; i-- {
		j := 1 + r.intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < g.nodes; i++ {
		from := g.listBase + uint32(perm[i]*2*prog.WordBytes)
		to := g.listBase + uint32(perm[(i+1)%g.nodes]*2*prog.WordBytes)
		b.SetData(from, int64(to))
	}
	return nil
}

// plan decides the body's slot sequence from the profile's fractions.
func (g *generator) plan() {
	pr := g.pr
	blocks := 600 / pr.BranchEvery
	if blocks < 8 {
		blocks = 8
	}
	l := blocks * pr.BranchEvery

	nCalls := int(pr.CallFrac*float64(blocks) + 0.5)
	g.helpers = 3
	nNoisy := int(pr.BranchNoise*float64(blocks) + 0.5)
	// Estimated emitted length: body slots + call targets (9 insts per
	// call beyond the jal) + noisy-branch shadows + indexed-store address
	// arithmetic + loop overhead.
	nIndexedEst := int(lateStoreFrac * pr.StoreFrac * 600)
	total := float64(l + nCalls*9 + nNoisy*2 + nIndexedEst*2 + 7)

	nLoad := int(pr.LoadFrac*total+0.5) - 2*nCalls
	nStore := int(pr.StoreFrac*total+0.5) - 2*nCalls
	if nLoad < 0 {
		nLoad = 0
	}
	if nStore < 0 {
		nStore = 0
	}
	nTD := int(pr.TrueDepFrac*float64(nLoad) + 0.5)
	if nTD > nStore {
		nTD = nStore
	}
	nPtr := int(pr.PointerFrac*float64(nLoad) + 0.5)
	if nTD+nPtr > nLoad {
		nPtr = nLoad - nTD
	}
	g.nPairs = nTD

	g.slots = make([]slot, l)
	// Branch slots close each block.
	for i := 1; i <= blocks; i++ {
		g.slots[i*pr.BranchEvery-1] = slot{kind: kBranch}
	}
	free := func(i int) bool { return g.slots[i].kind == kFiller && (i+1)%pr.BranchEvery != 0 }
	place := func(start int) int {
		for i := 0; i < l; i++ {
			idx := (start + i) % l
			if free(idx) {
				return idx
			}
		}
		return -1
	}
	// True-dependence pairs at the profile's distance.
	for p := 0; p < nTD; p++ {
		s := place(g.rng.intn(l))
		if s < 0 {
			break
		}
		g.slots[s] = slot{kind: kStorePair, pair: p}
		dist := pr.DepDistance/2 + g.rng.intn(pr.DepDistance+1)
		ld := place((s + dist) % l)
		if ld < 0 {
			g.slots[s] = slot{kind: kFiller}
			break
		}
		g.slots[ld] = slot{kind: kLoadPair, pair: p}
	}
	scatter := func(n int, k slotKind) {
		for i := 0; i < n; i++ {
			idx := place(g.rng.intn(l))
			if idx < 0 {
				return
			}
			g.slots[idx] = slot{kind: k}
		}
	}
	scatter(nCalls, kCall)
	scatter(nPtr, kLoadPtr)
	scatter(nLoad-nTD-nPtr, kLoadStream)
	// A realistic share of stores compute their addresses late: through
	// the chased pointer when the benchmark chases pointers, or via a
	// data-dependent index otherwise. These are what separates AS/NO
	// (waits for every address to post) from AS/NAV.
	nLate := int(lateStoreFrac*float64(nStore-nTD) + 0.5)
	if pr.PointerFrac > 0 {
		scatter(nLate, kStoreList)
	} else {
		scatter(nLate, kStoreIndexed)
	}
	scatter(nStore-nTD-nLate, kStoreStream)
}

// nextIntVal returns the next integer value register in rotation.
func (g *generator) nextIntVal() isa.Reg {
	r := intVals[g.ivNext%len(intVals)]
	g.ivNext++
	return r
}

// nextFPVal returns the next FP value register in rotation.
func (g *generator) nextFPVal() isa.Reg {
	r := fpVals[g.fvNext%len(fpVals)]
	g.fvNext++
	return r
}

// memValReg picks a destination/source register for memory data: FP
// benchmarks keep most data in FP registers.
func (g *generator) memValReg() isa.Reg {
	if g.pr.FP && g.rng.chance(0.75) {
		r := g.nextFPVal()
		g.lastLoadFP = r
		g.lastProduced = r
		return r
	}
	r := g.nextIntVal()
	g.lastLoadInt = r
	g.lastProduced = r
	return r
}

// emit writes the whole program.
func (g *generator) emit() {
	b := g.b
	b.Li(rStream, int64(g.readBase))
	b.Li(rWrite, int64(g.writeBase))
	g.pairBase = b.Alloc(g.nPairs + 1)
	b.Li(rPair, int64(g.pairBase))
	b.Li(rList, int64(g.listBase))
	// Seed the value registers.
	for i, r := range intVals {
		b.Li(r, int64(3*i+1))
	}
	if g.pr.FP {
		for i, r := range fpVals {
			b.Li(isa.R16, int64(5*i+2))
			b.Mtf(r, isa.R16)
		}
	}

	b.Label("loop")
	for i := range g.slots {
		g.emitSlot(i)
	}
	// Advance and wrap the streaming pointers, then repeat forever. The
	// advance rate sets the compulsory-miss rate (~2 fresh blocks per
	// iteration, a few percent of references, as in SPEC'95 on Table 2's
	// caches).
	b.Addi(rStream, rStream, int64(g.advance()))
	b.Andi(rStream, rStream, g.readMask)
	b.OpI(isa.ORI, rStream, rStream, int64(g.readBase))
	b.Addi(rWrite, rWrite, int64(g.advance()/4+8))
	b.Andi(rWrite, rWrite, g.writeMask)
	b.OpI(isa.ORI, rWrite, rWrite, int64(g.writeBase))
	b.J("loop")

	// Spill/reload helpers.
	for h := 0; h < g.helpers; h++ {
		b.Label(fmt.Sprintf("fn%d", h))
		off := int64(-8 - h*64)
		b.Sw(isa.R16, isa.SP, off)
		b.Sw(isa.R17, isa.SP, off-8)
		b.Addi(isa.R16, isa.R16, 3)
		b.Xor(isa.R17, isa.R17, isa.R16)
		b.Add(isa.R16, isa.R16, isa.R17)
		b.Addi(isa.R17, isa.R17, 7)
		b.Lw(isa.R16, isa.SP, off)
		b.Lw(isa.R17, isa.SP, off-8)
		b.Ret()
	}
}

func (g *generator) emitSlot(i int) {
	b, s := g.b, g.slots[i]
	switch s.kind {
	case kLoadStream:
		off := int64(g.rng.intn(streamWindow/prog.WordBytes) * prog.WordBytes)
		dst := g.memValReg()
		switch {
		case !g.pr.FP && dst.IsInt() && g.rng.chance(0.15):
			b.Lb(dst, rStream, off+int64(g.rng.intn(8))) // byte field access
		case !g.pr.FP && dst.IsInt() && g.rng.chance(0.1):
			b.Lh(dst, rStream, off+int64(g.rng.intn(4)*2))
		default:
			b.Lw(dst, rStream, off)
		}
	case kLoadPair:
		b.Lw(g.memValReg(), rPair, int64(s.pair*prog.WordBytes))
	case kLoadPtr:
		b.Lw(rList, rList, 0)
	case kStoreStream:
		off := int64(g.rng.intn(streamWindow/prog.WordBytes) * prog.WordBytes)
		src := g.memValSrc()
		switch {
		case !g.pr.FP && src.IsInt() && g.rng.chance(0.15):
			b.Sb(src, rWrite, off+int64(g.rng.intn(8)))
		case !g.pr.FP && src.IsInt() && g.rng.chance(0.1):
			b.Sh(src, rWrite, off+int64(g.rng.intn(4)*2))
		default:
			b.Sw(src, rWrite, off)
		}
	case kStoreList:
		// Address depends on the pointer chase: posts late.
		b.Sw(g.memValSrc(), rList, prog.WordBytes)
	case kStoreIndexed:
		// Address depends on a recently loaded value: posts late.
		idx := g.lastLoadInt
		if idx == isa.NoReg {
			idx = intVals[0]
		}
		b.Andi(isa.R18, idx, streamWindow-prog.WordBytes)
		b.Add(isa.R18, rWrite, isa.R18)
		b.Sw(g.memValSrc(), isa.R18, 0)
	case kStorePair:
		b.Sw(g.memValSrc(), rPair, int64(s.pair*prog.WordBytes))
	case kCall:
		b.Jal(fmt.Sprintf("fn%d", g.rng.intn(g.helpers)))
	case kBranch:
		g.emitBranch()
	default:
		g.emitFiller()
	}
}

// memValSrc picks a source register for store data: usually the most
// recently produced value (a freshly loaded or freshly computed result),
// so stores execute late, as in real code.
func (g *generator) memValSrc() isa.Reg {
	if g.lastProduced != isa.NoReg && g.rng.chance(0.6) {
		return g.lastProduced
	}
	if g.pr.FP && g.rng.chance(0.75) {
		return fpVals[g.rng.intn(len(fpVals))]
	}
	return intVals[g.rng.intn(len(intVals))]
}

// emitBranch closes a block: either a trivially-predictable never-taken
// branch, or a data-dependent one that skips two filler instructions.
func (g *generator) emitBranch() {
	b := g.b
	g.lbl++
	lbl := fmt.Sprintf("b%d", g.lbl)
	if g.rng.chance(g.pr.BranchNoise) {
		// Data-dependent direction: compare the most recently loaded
		// value (random data) against an evolving register.
		a := g.lastLoadInt
		if a == isa.NoReg {
			a = intVals[0]
		}
		c := intVals[g.rng.intn(len(intVals))]
		b.Blt(a, c, lbl)
		g.emitFiller()
		g.emitFiller()
		b.Label(lbl)
		return
	}
	b.Bne(isa.R0, isa.R0, lbl) // never taken
	b.Label(lbl)
}

// emitFiller emits one computation instruction.
func (g *generator) emitFiller() {
	b := g.b
	if g.pr.FP && g.rng.chance(0.7) {
		d := g.nextFPVal()
		a := fpVals[g.rng.intn(len(fpVals))]
		c := fpVals[g.rng.intn(len(fpVals))]
		switch g.rng.intn(32) {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8:
			b.FmulD(d, a, c)
		case 9, 10, 11:
			b.FmulS(d, a, c)
		case 12, 13, 14:
			b.Fsub(d, a, c)
		case 15:
			b.FdivD(d, a, c)
		default:
			b.Fadd(d, a, c)
		}
		g.lastProduced = d
		return
	}
	d := g.nextIntVal()
	a := intVals[g.rng.intn(len(intVals))]
	c := intVals[g.rng.intn(len(intVals))]
	switch g.rng.intn(12) {
	case 0, 1, 2, 3:
		b.Addi(d, a, int64(g.rng.intn(64)-32))
	case 4, 5, 6:
		b.Add(d, a, c)
	case 7, 8:
		b.Xor(d, a, c)
	case 9:
		b.Op3(isa.OR, d, a, c)
	case 10:
		b.Slt(d, a, c)
	default:
		b.Sll(d, a, int64(1+g.rng.intn(3)))
	}
	g.lastProduced = d
}

// advance returns the per-iteration streaming-pointer advance in bytes:
// FP analogs stream through large arrays (higher compulsory miss rates),
// integer analogs have more temporal reuse.
func (g *generator) advance() int {
	if g.pr.FP {
		return 256
	}
	return 64
}

// Package emu is the functional emulator for the mini-RISC ISA. It
// executes programs architecturally (no timing) and produces a stream of
// DynInst records that the timing models consume. Each record carries
// everything the out-of-order core needs: effective addresses, loaded and
// stored values, the pre-store memory value (for misspeculation value
// checks), branch outcomes, and — for loads — the sequence number of the
// most recent earlier store to the same word (the oracle dependence used
// by the NAS/ORACLE policy and by false-dependence accounting).
package emu

import (
	"fmt"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// DynInst is one dynamic (executed) instruction.
type DynInst struct {
	Seq  int64 // dynamic sequence number, starting at 0
	PC   uint32
	Inst *isa.Inst

	// Memory operations.
	Addr     uint32 // effective byte address (word aligned)
	LoadVal  int64  // value loaded (loads)
	StoreVal int64  // value stored (stores)
	OldVal   int64  // memory value before the store executed (stores)

	// ProducerSeq is, for loads, the Seq of the youngest earlier store
	// that wrote this word, or -1 if the word was never stored to. The
	// timing core compares it against the window contents to decide
	// whether a load has a true in-window dependence.
	ProducerSeq int64

	// Dep1Seq/Dep2Seq are the sequence numbers of the dynamic
	// instructions that last wrote this instruction's register sources
	// (Src1/Src2), or -1 for none. In a continuous window this equals
	// what a rename table would record; in the split-window model it
	// lets register dependences resolve across out-of-order task fetch.
	Dep1Seq int64
	Dep2Seq int64

	// Control flow.
	NextPC uint32 // architecturally correct next PC
	Taken  bool   // branch/jump was taken
}

// IsLoad reports whether the dynamic instruction is a load.
func (d *DynInst) IsLoad() bool { return d.Inst.Op.IsLoad() }

// IsStore reports whether the dynamic instruction is a store.
func (d *DynInst) IsStore() bool { return d.Inst.Op.IsStore() }

// IsBranch reports whether the dynamic instruction redirects control flow.
func (d *DynInst) IsBranch() bool { return d.Inst.Op.IsBranch() }

// The 32-bit byte address space is 2^29 words of 8 bytes. A page holds
// 512 words (4 KB), a leaf 1024 pages (4 MB), and the directory 1024
// leaves.
const (
	pageWords = 512
	pageShift = 9
	pageMask  = pageWords - 1
	leafShift = 10
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
	dirLeaves = 1024
	dirShift  = pageShift + leafShift // word address -> directory index
)

// Memory is a sparse, word-addressed (8-byte words) memory image behind
// a two-level page directory: an access is two indexed loads, with no
// hashing. Leaves and pages are made on first write. The zero value is
// an empty memory; all words read as zero until written.
type Memory struct {
	dir [dirLeaves]*leaf
}

// leaf is one directory entry. stored[p][i] is 1 + the Seq of the last
// emulated store to word i of page p, and 0 means "never stored". A
// page's stored array is made on its first store; few pages get one.
type leaf struct {
	words  [leafPages]*[pageWords]int64
	stored [leafPages]*[pageWords]int64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// Read returns the word at byte address addr (must be 8-byte aligned).
func (m *Memory) Read(addr uint32) int64 {
	v, _ := m.load(addr)
	return v
}

// Write stores v at byte address addr (must be 8-byte aligned).
func (m *Memory) Write(addr uint32, v int64) {
	w := addr >> 3
	m.leafOf(w).page(w)[w&pageMask] = v
}

// load returns the word at byte address addr and the Seq of the last
// store to it, or -1 if no store has written it.
func (m *Memory) load(addr uint32) (word, producer int64) {
	w := addr >> 3
	l := m.dir[w>>dirShift]
	if l == nil {
		return 0, -1
	}
	p := w >> pageShift & leafMask
	pg := l.words[p]
	if pg == nil {
		return 0, -1
	}
	producer = -1
	if st := l.stored[p]; st != nil {
		producer = st[w&pageMask] - 1
	}
	return pg[w&pageMask], producer
}

// store records seq as the last store to the word at byte address addr
// and returns a pointer to the word, for the caller to read and update.
func (m *Memory) store(addr uint32, seq int64) *int64 {
	w := addr >> 3
	l := m.leafOf(w)
	p := &l.stored[w>>pageShift&leafMask]
	if *p == nil {
		*p = new([pageWords]int64)
	}
	(*p)[w&pageMask] = seq + 1
	return &l.page(w)[w&pageMask]
}

// leafOf returns the leaf covering word address w, making it on first
// use.
func (m *Memory) leafOf(w uint32) *leaf {
	l := m.dir[w>>dirShift]
	if l == nil {
		l = new(leaf)
		m.dir[w>>dirShift] = l
	}
	return l
}

// page returns the page holding word address w, making it on first use.
func (l *leaf) page(w uint32) *[pageWords]int64 {
	p := &l.words[w>>pageShift&leafMask]
	if *p == nil {
		*p = new([pageWords]int64)
	}
	return *p
}

// loadImage copies data into memory starting at byte address base, page
// by page. Pages whose share of data is all zero are skipped, so
// untouched pages of a data image are never materialized.
func (m *Memory) loadImage(base uint32, data []int64) {
	w := base >> 3
	for len(data) > 0 {
		n := pageWords - int(w&pageMask)
		if n > len(data) {
			n = len(data)
		}
		for _, v := range data[:n] {
			if v != 0 {
				copy(m.leafOf(w).page(w)[w&pageMask:], data[:n])
				break
			}
		}
		data = data[n:]
		w += uint32(n)
	}
}

// Footprint returns the number of distinct pages touched.
func (m *Memory) Footprint() int {
	n := 0
	for _, l := range m.dir {
		if l == nil {
			continue
		}
		for _, pg := range l.words {
			if pg != nil {
				n++
			}
		}
	}
	return n
}

// Machine executes a program functionally. It keeps the program's code
// table and fingerprint, not the program: the initial data image lives
// only in the machine's memory, so a machine (and a Recording over it)
// does not pin the caller's copy.
type Machine struct {
	code   []isa.Inst
	fp     uint64 // ProgramFingerprint of the program
	mem    *Memory
	regs   [isa.NumRegs]int64
	pc     uint32
	seq    int64
	halted bool

	// lastWriter maps register -> Seq of the last instruction to write
	// it (-1 if never written).
	lastWriter [isa.NumRegs]int64
}

// New returns a Machine at the program entry with the program's initial
// data image copied into its memory and SP set to the stack base. The
// machine holds no reference to p.Data afterwards.
func New(p *prog.Program) *Machine {
	m := &Machine{
		code: p.Code,
		fp:   progFingerprint(p),
		mem:  NewMemory(),
		pc:   p.Entry,
	}
	m.mem.loadImage(prog.DataBase, p.Data)
	m.regs[isa.SP] = int64(prog.StackBase)
	for i := range m.lastWriter {
		m.lastWriter[i] = -1
	}
	return m
}

// PC returns the current program counter.
func (m *Machine) PC() uint32 { return m.pc }

// Halted reports whether a HALT instruction has executed.
func (m *Machine) Halted() bool { return m.halted }

// Seq returns the number of instructions executed so far.
func (m *Machine) Seq() int64 { return m.seq }

// Reg returns the architectural value of register r.
func (m *Machine) Reg(r isa.Reg) int64 {
	if r == isa.NoReg {
		return 0
	}
	return m.regs[r]
}

// Mem returns the memory image (shared, not a copy).
func (m *Machine) Mem() *Memory { return m.mem }

func (m *Machine) setReg(r isa.Reg, v int64) {
	if r == isa.NoReg || r == isa.R0 {
		return
	}
	m.regs[r] = v
}

// Step executes one instruction and fills d with its dynamic record.
// It returns false (with d untouched) once the machine has halted or the
// PC leaves the text section.
func (m *Machine) Step(d *DynInst) bool {
	if m.halted {
		return false
	}
	i := int(m.pc-prog.TextBase) / isa.InstBytes
	if m.pc < prog.TextBase || i >= len(m.code) {
		m.halted = true
		return false
	}
	in := &m.code[i]

	// Field by field: a composite-literal assignment would copy the
	// whole pointer-bearing record through the write barrier.
	d.Seq = m.seq
	d.PC = m.pc
	d.Inst = in
	d.Addr = 0
	d.LoadVal, d.StoreVal, d.OldVal = 0, 0, 0
	d.ProducerSeq = -1
	d.Dep1Seq = m.writerOf(in.Src1())
	d.Dep2Seq = m.writerOf(in.Src2())
	d.NextPC = m.pc + isa.InstBytes
	d.Taken = false

	r1 := m.Reg(in.Src1())
	r2v := m.Reg(in.Rs2)

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		m.halted = true
	case isa.ADD:
		m.setReg(in.Rd, r1+r2v)
	case isa.ADDI:
		m.setReg(in.Rd, r1+in.Imm)
	case isa.SUB:
		m.setReg(in.Rd, r1-r2v)
	case isa.AND:
		m.setReg(in.Rd, r1&r2v)
	case isa.ANDI:
		m.setReg(in.Rd, r1&in.Imm)
	case isa.OR:
		m.setReg(in.Rd, r1|r2v)
	case isa.ORI:
		m.setReg(in.Rd, r1|in.Imm)
	case isa.XOR:
		m.setReg(in.Rd, r1^r2v)
	case isa.XORI:
		m.setReg(in.Rd, r1^in.Imm)
	case isa.SLL:
		m.setReg(in.Rd, r1<<uint(in.Imm&63))
	case isa.SRL:
		m.setReg(in.Rd, int64(uint64(r1)>>uint(in.Imm&63)))
	case isa.SRA:
		m.setReg(in.Rd, r1>>uint(in.Imm&63))
	case isa.SLT:
		m.setReg(in.Rd, boolToInt(r1 < r2v))
	case isa.SLTI:
		m.setReg(in.Rd, boolToInt(r1 < in.Imm))
	case isa.LUI:
		m.setReg(in.Rd, in.Imm<<16)
	case isa.MULT:
		m.regs[isa.LO] = r1 * r2v
		m.regs[isa.HI] = mulHigh(r1, r2v)
	case isa.DIV:
		if r2v == 0 {
			m.regs[isa.LO] = -1
			m.regs[isa.HI] = r1
		} else {
			m.regs[isa.LO] = r1 / r2v
			m.regs[isa.HI] = r1 % r2v
		}
	case isa.MFHI:
		m.setReg(in.Rd, m.regs[isa.HI])
	case isa.MFLO:
		m.setReg(in.Rd, m.regs[isa.LO])
	case isa.FADD:
		m.setReg(in.Rd, r1+r2v) // FP values are modeled as int64 payloads
	case isa.FSUB:
		m.setReg(in.Rd, r1-r2v)
	case isa.FCMP:
		m.setReg(in.Rd, boolToInt(r1 < r2v))
	case isa.FMULS, isa.FMULD:
		m.setReg(in.Rd, r1*r2v)
	case isa.FDIVS, isa.FDIVD:
		if r2v == 0 {
			m.setReg(in.Rd, 0)
		} else {
			m.setReg(in.Rd, r1/r2v)
		}
	case isa.FMOV, isa.MTF, isa.MFF:
		m.setReg(in.Rd, r1)
	case isa.LW, isa.LB, isa.LBU, isa.LH:
		byteAddr := uint32(r1 + in.Imm)
		addr := alignWord(byteAddr)
		d.Addr = addr
		word, producer := m.mem.load(addr)
		d.LoadVal = extract(word, in.Op, byteAddr)
		d.ProducerSeq = producer
		m.setReg(in.Rd, d.LoadVal)
	case isa.SW, isa.SB, isa.SH:
		byteAddr := uint32(r1 + in.Imm)
		addr := alignWord(byteAddr)
		d.Addr = addr
		word := m.mem.store(addr, m.seq)
		d.OldVal = *word
		d.StoreVal = merge(d.OldVal, r2v, in.Op, byteAddr)
		*word = d.StoreVal
	case isa.BEQ:
		d.Taken = r1 == r2v
	case isa.BNE:
		d.Taken = r1 != r2v
	case isa.BLT:
		d.Taken = r1 < r2v
	case isa.BGE:
		d.Taken = r1 >= r2v
	case isa.J:
		d.Taken = true
	case isa.JAL:
		d.Taken = true
		m.setReg(isa.RA, int64(m.pc+isa.InstBytes))
	case isa.JR:
		d.Taken = true
		d.NextPC = uint32(r1)
	default:
		panic(fmt.Sprintf("emu: unimplemented op %v at pc %#x", in.Op, m.pc))
	}

	if in.Op.IsCondBranch() || in.Op == isa.J || in.Op == isa.JAL {
		if d.Taken {
			d.NextPC = in.Target
		}
	}
	if dst := in.Dest(); dst != isa.NoReg && dst != isa.R0 {
		m.lastWriter[dst] = m.seq
	}
	if in.Op == isa.MULT || in.Op == isa.DIV {
		m.lastWriter[isa.HI] = m.seq
		m.lastWriter[isa.LO] = m.seq
	}
	m.pc = d.NextPC
	m.seq++
	return true
}

// writerOf returns the seq of the last writer of r, or -1 when the
// operand needs no wait (absent, or the hardwired zero register).
func (m *Machine) writerOf(r isa.Reg) int64 {
	if r == isa.NoReg || r == isa.R0 {
		return -1
	}
	return m.lastWriter[r]
}

func alignWord(addr uint32) uint32 { return addr &^ 7 }

// extract pulls the sub-word value a load reads out of its containing
// word. Halfwords are aligned to 2 bytes within the word.
func extract(word int64, op isa.Op, byteAddr uint32) int64 {
	switch op {
	case isa.LB:
		sh := uint(byteAddr&7) * 8
		return int64(int8(word >> sh))
	case isa.LBU:
		sh := uint(byteAddr&7) * 8
		return int64(uint8(word >> sh))
	case isa.LH:
		sh := uint(byteAddr&6) * 8
		return int64(int16(word >> sh))
	}
	return word
}

// merge writes a sub-word store value into its containing word.
func merge(old, val int64, op isa.Op, byteAddr uint32) int64 {
	switch op {
	case isa.SB:
		sh := uint(byteAddr&7) * 8
		mask := int64(0xff) << sh
		return (old &^ mask) | ((val & 0xff) << sh)
	case isa.SH:
		sh := uint(byteAddr&6) * 8
		mask := int64(0xffff) << sh
		return (old &^ mask) | ((val & 0xffff) << sh)
	}
	return val
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func mulHigh(a, b int64) int64 {
	// 128-bit signed multiply high via 64x64 decomposition.
	const mask = 1<<32 - 1
	aLo, aHi := uint64(a)&mask, a>>32
	bLo, bHi := uint64(b)&mask, b>>32
	t := aHi*int64(bLo) + int64((aLo*bLo)>>32)
	w1 := uint64(t) & mask
	w2 := t >> 32
	t2 := int64(aLo)*bHi + int64(w1)
	return aHi*bHi + w2 + (t2 >> 32)
}

// Package prog represents executable programs for the mini-RISC ISA and
// provides a label-resolving assembler (Builder) plus a simple data-section
// allocator. Workload generators use it to construct the synthetic
// SPEC'95-analog benchmarks.
package prog

import (
	"fmt"

	"mdspec/internal/isa"
)

// TextBase is the byte address of the first instruction.
const TextBase uint32 = 0x0040_0000

// DataBase is the byte address where the data section starts. All
// addresses are word (8-byte) aligned; the emulator's memory is
// word-addressed under the hood, but program addresses are byte addresses.
const DataBase uint32 = 0x1000_0000

// StackBase is the initial stack pointer (stack grows down).
const StackBase uint32 = 0x7fff_0000

// WordBytes is the size of a data word in bytes.
const WordBytes = 8

// Program is an assembled program: code, initial data image and entry PC.
type Program struct {
	Code  []isa.Inst
	Entry uint32
	// Data is the initial data image: Data[i] is the 64-bit word at byte
	// address DataBase + i*WordBytes. Words past its end start at zero.
	Data []int64
	// Labels maps label names to resolved byte PCs (for diagnostics).
	Labels map[string]uint32
}

// PCOf returns the byte PC of instruction index i.
func PCOf(i int) uint32 { return TextBase + uint32(i*isa.InstBytes) }

// IndexOf returns the instruction index of byte PC pc, or -1 if pc is
// outside the text section.
func (p *Program) IndexOf(pc uint32) int {
	if pc < TextBase {
		return -1
	}
	i := int(pc-TextBase) / isa.InstBytes
	if i >= len(p.Code) {
		return -1
	}
	return i
}

// At returns the instruction at byte PC pc.
func (p *Program) At(pc uint32) (*isa.Inst, bool) {
	i := p.IndexOf(pc)
	if i < 0 {
		return nil, false
	}
	return &p.Code[i], true
}

// fixup records a branch/jump whose target label was not yet defined.
type fixup struct {
	instIdx int
	label   string
}

// Builder assembles a Program. Instructions are appended with the Emit*
// helpers; Label defines a jump target at the current position; branches
// may reference labels defined later (resolved by Program()).
type Builder struct {
	code    []isa.Inst
	labels  map[string]uint32
	fixups  []fixup
	data    []int64 // the Program.Data image, grown to the last non-zero word
	nextVar uint32  // next free data byte address
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		labels:  make(map[string]uint32),
		nextVar: DataBase,
	}
}

// Err returns the first error recorded during assembly (duplicate or
// unresolved labels, data that does not fit, misplaced data words), if
// any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) setErr(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

// PC returns the byte PC the next emitted instruction will have.
func (b *Builder) PC() uint32 { return PCOf(len(b.code)) }

// Label defines name at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.setErr(fmt.Errorf("prog: duplicate label %q", name))
		return
	}
	b.labels[name] = b.PC()
}

// Alloc reserves n words of data and returns the byte address of the
// first. Words are zero-initialized.
func (b *Builder) Alloc(nWords int) uint32 { return b.allocAt(uint64(b.nextVar), nWords) }

// AllocAligned reserves n words starting at a multiple of align bytes
// (align must be a power of two). Power-of-two-aligned arenas allow
// cheap pointer wrapping with AND/OR masks.
func (b *Builder) AllocAligned(nWords int, align uint32) uint32 {
	if align == 0 || align&(align-1) != 0 {
		b.setErr(fmt.Errorf("prog: alignment %d is not a power of two", align))
		align = 1
	}
	a := uint64(align)
	return b.allocAt((uint64(b.nextVar)+a-1)&^(a-1), nWords)
}

// allocAt reserves nWords words from byte address at. Data that would
// reach StackBase records an error and reserves nothing.
func (b *Builder) allocAt(at uint64, nWords int) uint32 {
	if nWords < 0 || at > uint64(StackBase) || uint64(nWords) > (uint64(StackBase)-at)/WordBytes {
		b.setErr(fmt.Errorf("prog: %d data words at %#x do not fit below the stack at %#x",
			nWords, at, StackBase))
		return b.nextVar
	}
	b.nextVar = uint32(at + uint64(nWords)*WordBytes)
	return uint32(at)
}

// AllocInit reserves words initialized from vals and returns the base
// byte address.
func (b *Builder) AllocInit(vals ...int64) uint32 {
	addr := b.Alloc(len(vals))
	for i, v := range vals {
		b.SetData(addr+uint32(i*WordBytes), v)
	}
	return addr
}

// SetData sets the initial value of the word at byte address addr, which
// must be word-aligned and inside the data allocated so far.
func (b *Builder) SetData(addr uint32, v int64) {
	if addr < DataBase || addr >= b.nextVar || addr%WordBytes != 0 {
		b.setErr(fmt.Errorf("prog: data address %#x is not a word of the allocated data [%#x, %#x)",
			addr, DataBase, b.nextVar))
		return
	}
	i := int(addr-DataBase) / WordBytes
	if i >= len(b.data) {
		if v == 0 {
			return
		}
		if i >= cap(b.data) {
			// Reserve all the data allocated so far in one step: arenas
			// are filled word by word, and growing per word would copy
			// the image over and over.
			grown := make([]int64, len(b.data), int(b.nextVar-DataBase)/WordBytes)
			copy(grown, b.data)
			b.data = grown
		}
		b.data = b.data[:i+1]
	}
	b.data[i] = v
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) {
	b.code = append(b.code, in)
}

// --- ALU helpers ---

// Op3 emits a three-register ALU operation rd <- rs1 op rs2.
func (b *Builder) Op3(op isa.Op, rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpI emits a register-immediate operation rd <- rs1 op imm.
func (b *Builder) OpI(op isa.Op, rd, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Add emits rd <- rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) { b.Op3(isa.ADD, rd, rs1, rs2) }

// Sub emits rd <- rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) { b.Op3(isa.SUB, rd, rs1, rs2) }

// Addi emits rd <- rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) { b.OpI(isa.ADDI, rd, rs1, imm) }

// Andi emits rd <- rs1 & imm.
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int64) { b.OpI(isa.ANDI, rd, rs1, imm) }

// Xor emits rd <- rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) { b.Op3(isa.XOR, rd, rs1, rs2) }

// Sll emits rd <- rs1 << imm.
func (b *Builder) Sll(rd, rs1 isa.Reg, imm int64) { b.OpI(isa.SLL, rd, rs1, imm) }

// Srl emits rd <- rs1 >> imm (logical).
func (b *Builder) Srl(rd, rs1 isa.Reg, imm int64) { b.OpI(isa.SRL, rd, rs1, imm) }

// Slt emits rd <- (rs1 < rs2) ? 1 : 0.
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) { b.Op3(isa.SLT, rd, rs1, rs2) }

// Li loads a 64-bit constant into rd (LUI+ORI pair or single ADDI,
// counted as the number of instructions actually emitted).
func (b *Builder) Li(rd isa.Reg, v int64) {
	if v >= -(1<<31) && v < (1<<31) {
		if v >= -(1<<15) && v < (1<<15) {
			b.Addi(rd, isa.R0, v)
			return
		}
		b.Emit(isa.Inst{Op: isa.LUI, Rd: rd, Imm: v >> 16})
		if low := v & 0xffff; low != 0 {
			b.OpI(isa.ORI, rd, rd, low)
		}
		return
	}
	// Wide constant: build with LUI/ORI/SLL sequence.
	b.Emit(isa.Inst{Op: isa.LUI, Rd: rd, Imm: v >> 48})
	b.OpI(isa.ORI, rd, rd, (v>>32)&0xffff)
	b.Sll(rd, rd, 16)
	b.OpI(isa.ORI, rd, rd, (v>>16)&0xffff)
	b.Sll(rd, rd, 16)
	b.OpI(isa.ORI, rd, rd, v&0xffff)
}

// Mult emits HI:LO <- rs1 * rs2.
func (b *Builder) Mult(rs1, rs2 isa.Reg) { b.Emit(isa.Inst{Op: isa.MULT, Rs1: rs1, Rs2: rs2}) }

// Div emits LO <- rs1 / rs2, HI <- rs1 % rs2.
func (b *Builder) Div(rs1, rs2 isa.Reg) { b.Emit(isa.Inst{Op: isa.DIV, Rs1: rs1, Rs2: rs2}) }

// Mflo emits rd <- LO.
func (b *Builder) Mflo(rd isa.Reg) { b.Emit(isa.Inst{Op: isa.MFLO, Rd: rd}) }

// Mfhi emits rd <- HI.
func (b *Builder) Mfhi(rd isa.Reg) { b.Emit(isa.Inst{Op: isa.MFHI, Rd: rd}) }

// --- FP helpers ---

// Fadd emits fd <- fs1 + fs2 (2-cycle FP class).
func (b *Builder) Fadd(fd, fs1, fs2 isa.Reg) { b.Op3(isa.FADD, fd, fs1, fs2) }

// Fsub emits fd <- fs1 - fs2.
func (b *Builder) Fsub(fd, fs1, fs2 isa.Reg) { b.Op3(isa.FSUB, fd, fs1, fs2) }

// FmulS emits fd <- fs1 * fs2 (single precision, 4 cycles).
func (b *Builder) FmulS(fd, fs1, fs2 isa.Reg) { b.Op3(isa.FMULS, fd, fs1, fs2) }

// FmulD emits fd <- fs1 * fs2 (double precision, 5 cycles).
func (b *Builder) FmulD(fd, fs1, fs2 isa.Reg) { b.Op3(isa.FMULD, fd, fs1, fs2) }

// FdivD emits fd <- fs1 / fs2 (double precision, 15 cycles).
func (b *Builder) FdivD(fd, fs1, fs2 isa.Reg) { b.Op3(isa.FDIVD, fd, fs1, fs2) }

// Mtf moves an integer register into an FP register.
func (b *Builder) Mtf(fd, rs isa.Reg) { b.Emit(isa.Inst{Op: isa.MTF, Rd: fd, Rs1: rs}) }

// Mff moves an FP register into an integer register.
func (b *Builder) Mff(rd, fs isa.Reg) { b.Emit(isa.Inst{Op: isa.MFF, Rd: rd, Rs1: fs}) }

// --- memory helpers ---

// Lw emits rd <- Mem[rs1+imm].
func (b *Builder) Lw(rd, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.LW, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sw emits Mem[rs1+imm] <- rs2.
func (b *Builder) Sw(rs2, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.SW, Rs2: rs2, Rs1: rs1, Imm: imm})
}

// Lb emits rd <- sign-extended byte at rs1+imm.
func (b *Builder) Lb(rd, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.LB, Rd: rd, Rs1: rs1, Imm: imm})
}

// Lbu emits rd <- zero-extended byte at rs1+imm.
func (b *Builder) Lbu(rd, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.LBU, Rd: rd, Rs1: rs1, Imm: imm})
}

// Lh emits rd <- sign-extended halfword at rs1+imm.
func (b *Builder) Lh(rd, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.LH, Rd: rd, Rs1: rs1, Imm: imm})
}

// Sb emits the low byte of rs2 into Mem[rs1+imm].
func (b *Builder) Sb(rs2, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.SB, Rs2: rs2, Rs1: rs1, Imm: imm})
}

// Sh emits the low halfword of rs2 into Mem[rs1+imm].
func (b *Builder) Sh(rs2, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.SH, Rs2: rs2, Rs1: rs1, Imm: imm})
}

// --- control helpers ---

func (b *Builder) branch(op isa.Op, rs1, rs2 isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{instIdx: len(b.code), label: label})
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Beq emits a branch to label if rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) { b.branch(isa.BEQ, rs1, rs2, label) }

// Bne emits a branch to label if rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) { b.branch(isa.BNE, rs1, rs2, label) }

// Blt emits a branch to label if rs1 < rs2.
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) { b.branch(isa.BLT, rs1, rs2, label) }

// Bge emits a branch to label if rs1 >= rs2.
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) { b.branch(isa.BGE, rs1, rs2, label) }

// J emits an unconditional jump to label.
func (b *Builder) J(label string) { b.branch(isa.J, isa.NoReg, isa.NoReg, label) }

// Jal emits a call to label (RA <- return PC).
func (b *Builder) Jal(label string) { b.branch(isa.JAL, isa.NoReg, isa.NoReg, label) }

// Jr emits an indirect jump to the address in rs1 (use with RA to return).
func (b *Builder) Jr(rs1 isa.Reg) { b.Emit(isa.Inst{Op: isa.JR, Rs1: rs1}) }

// Ret emits a return (jr ra).
func (b *Builder) Ret() { b.Jr(isa.RA) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

// Halt emits a HALT.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// Program resolves fixups and returns the assembled program. It returns
// an error if any label was duplicated or left unresolved.
func (b *Builder) Program() (*Program, error) {
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			b.setErr(fmt.Errorf("prog: unresolved label %q", f.label))
			continue
		}
		b.code[f.instIdx].Target = pc
	}
	if b.err != nil {
		return nil, b.err
	}
	return &Program{
		Code:   b.code,
		Entry:  TextBase,
		Data:   b.data,
		Labels: b.labels,
	}, nil
}

// MustProgram is Program but panics on assembly errors; intended for
// statically-known-correct workload builders and tests.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

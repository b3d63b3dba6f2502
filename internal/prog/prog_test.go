package prog

import (
	"slices"
	"testing"

	"mdspec/internal/isa"
)

func TestLabelResolution(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.Addi(isa.R1, isa.R1, 1)
	b.Bne(isa.R1, isa.R2, "top") // backward
	b.Beq(isa.R1, isa.R2, "end") // forward
	b.Nop()
	b.Label("end")
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Target != TextBase {
		t.Errorf("backward branch target = %#x, want %#x", p.Code[1].Target, TextBase)
	}
	wantEnd := PCOf(4)
	if p.Code[2].Target != wantEnd {
		t.Errorf("forward branch target = %#x, want %#x", p.Code[2].Target, wantEnd)
	}
	if p.Labels["end"] != wantEnd {
		t.Errorf("label map end = %#x, want %#x", p.Labels["end"], wantEnd)
	}
}

func TestUnresolvedLabel(t *testing.T) {
	b := NewBuilder()
	b.J("nowhere")
	if _, err := b.Program(); err == nil {
		t.Fatal("expected error for unresolved label")
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Nop()
	b.Label("x")
	if _, err := b.Program(); err == nil {
		t.Fatal("expected error for duplicate label")
	}
}

func TestAllocSequential(t *testing.T) {
	b := NewBuilder()
	a1 := b.Alloc(4)
	a2 := b.Alloc(2)
	if a1 != DataBase {
		t.Errorf("first alloc = %#x, want %#x", a1, DataBase)
	}
	if a2 != DataBase+4*WordBytes {
		t.Errorf("second alloc = %#x, want %#x", a2, DataBase+4*WordBytes)
	}
}

func TestAllocInit(t *testing.T) {
	b := NewBuilder()
	base := b.AllocInit(10, 0, 30)
	b.Halt()
	p := b.MustProgram()
	if base != DataBase {
		t.Fatalf("base = %#x, want %#x", base, DataBase)
	}
	if want := []int64{10, 0, 30}; !slices.Equal(p.Data, want) {
		t.Errorf("data image = %v, want %v", p.Data, want)
	}
}

// TestAllocRejectsDataPastStack: data that would run into the stack is
// an assembly error, not a wrapped address.
func TestAllocRejectsDataPastStack(t *testing.T) {
	room := int(StackBase-DataBase) / WordBytes
	b := NewBuilder()
	if a := b.Alloc(room); a != DataBase || b.Err() != nil {
		t.Fatalf("Alloc(%d) = %#x, %v; the whole data section should fit", room, a, b.Err())
	}
	b.Alloc(1)
	if b.Err() == nil {
		t.Error("a word past the stack base was accepted")
	}

	b = NewBuilder()
	b.AllocAligned(1, 1<<31) // aligned start is already past StackBase
	if b.Err() == nil {
		t.Error("an arena aligned past the stack base was accepted")
	}
	b = NewBuilder()
	b.Alloc(-1)
	if b.Err() == nil {
		t.Error("a negative word count was accepted")
	}
}

func TestAllocAlignedRejectsZeroAlignment(t *testing.T) {
	b := NewBuilder()
	b.AllocAligned(4, 0)
	if b.Err() == nil {
		t.Fatal("alignment 0 was accepted as a power of two")
	}
	if _, err := b.Program(); err == nil {
		t.Fatal("Program succeeded after a rejected alignment")
	}
}

// TestSetDataRejectsMisplacedWords: the data image is dense from
// DataBase, so a word below it, between words, or outside the allocated
// data has no index in it.
func TestSetDataRejectsMisplacedWords(t *testing.T) {
	for _, tc := range []struct {
		name string
		addr uint32
	}{
		{"below DataBase", DataBase - WordBytes},
		{"not word-aligned", DataBase + 4},
		{"past the allocated data", DataBase + 4*WordBytes},
	} {
		b := NewBuilder()
		b.Alloc(4)
		b.SetData(tc.addr, 1)
		if b.Err() == nil {
			t.Errorf("%s: SetData(%#x) was accepted", tc.name, tc.addr)
		}
	}
}

func TestIndexOfAndAt(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.Halt()
	p := b.MustProgram()
	if i := p.IndexOf(TextBase + 4); i != 1 {
		t.Errorf("IndexOf = %d, want 1", i)
	}
	if i := p.IndexOf(TextBase - 4); i != -1 {
		t.Errorf("IndexOf below text = %d, want -1", i)
	}
	if i := p.IndexOf(PCOf(2)); i != -1 {
		t.Errorf("IndexOf past end = %d, want -1", i)
	}
	in, ok := p.At(TextBase + 4)
	if !ok || in.Op != isa.HALT {
		t.Error("At(TextBase+4) should be HALT")
	}
}

func TestLiSmallAndLarge(t *testing.T) {
	// Small constants should assemble to a single ADDI.
	b := NewBuilder()
	b.Li(isa.R1, 42)
	if b.Len() != 1 || b.code[0].Op != isa.ADDI {
		t.Errorf("Li(42) emitted %d insts, first %v", b.Len(), b.code[0].Op)
	}
	// Verify each width class round-trips through a tiny interpreter.
	for _, v := range []int64{0, 1, -1, 32767, -32768, 65536, 1 << 20, -(1 << 20), 1 << 40, -(1 << 40), 0x1234_5678_9abc} {
		b := NewBuilder()
		b.Li(isa.R1, v)
		if got := evalLi(t, b.code); got != v {
			t.Errorf("Li(%d) evaluates to %d", v, got)
		}
	}
}

// evalLi interprets the ALU-only instruction sequence emitted by Li.
func evalLi(t *testing.T, code []isa.Inst) int64 {
	t.Helper()
	var regs [isa.NumRegs]int64
	for i := range code {
		in := &code[i]
		switch in.Op {
		case isa.ADDI:
			regs[in.Rd] = regs[in.Rs1] + in.Imm
		case isa.LUI:
			regs[in.Rd] = in.Imm << 16
		case isa.ORI:
			regs[in.Rd] = regs[in.Rs1] | in.Imm
		case isa.SLL:
			regs[in.Rd] = regs[in.Rs1] << uint(in.Imm)
		default:
			t.Fatalf("unexpected op %v in Li expansion", in.Op)
		}
	}
	return regs[isa.R1]
}

func TestBuilderPC(t *testing.T) {
	b := NewBuilder()
	if b.PC() != TextBase {
		t.Errorf("initial PC = %#x, want %#x", b.PC(), TextBase)
	}
	b.Nop()
	if b.PC() != TextBase+isa.InstBytes {
		t.Errorf("PC after one inst = %#x", b.PC())
	}
}

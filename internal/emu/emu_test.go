package emu

import (
	"testing"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// run executes the program to completion (or max steps) and returns the
// machine and collected dynamic instructions.
func run(t *testing.T, p *prog.Program, max int) (*Machine, []DynInst) {
	t.Helper()
	m := New(p)
	var out []DynInst
	var d DynInst
	for i := 0; i < max && m.Step(&d); i++ {
		out = append(out, d)
	}
	return m, out
}

func TestArithmetic(t *testing.T) {
	b := prog.NewBuilder()
	b.Li(isa.R1, 7)
	b.Li(isa.R2, 5)
	b.Add(isa.R3, isa.R1, isa.R2)
	b.Sub(isa.R4, isa.R1, isa.R2)
	b.Mult(isa.R1, isa.R2)
	b.Mflo(isa.R5)
	b.Div(isa.R1, isa.R2)
	b.Mflo(isa.R6)
	b.Mfhi(isa.R7)
	b.Slt(isa.R8, isa.R2, isa.R1)
	b.Halt()
	m, _ := run(t, b.MustProgram(), 100)
	cases := []struct {
		r    isa.Reg
		want int64
	}{
		{isa.R3, 12}, {isa.R4, 2}, {isa.R5, 35}, {isa.R6, 1}, {isa.R7, 2}, {isa.R8, 1},
	}
	for _, c := range cases {
		if got := m.Reg(c.r); got != c.want {
			t.Errorf("%v = %d, want %d", c.r, got, c.want)
		}
	}
	if !m.Halted() {
		t.Error("machine should have halted")
	}
}

func TestR0Hardwired(t *testing.T) {
	b := prog.NewBuilder()
	b.Addi(isa.R0, isa.R0, 99)
	b.Add(isa.R1, isa.R0, isa.R0)
	b.Halt()
	m, _ := run(t, b.MustProgram(), 10)
	if m.Reg(isa.R0) != 0 || m.Reg(isa.R1) != 0 {
		t.Errorf("r0 = %d, r1 = %d; want 0, 0", m.Reg(isa.R0), m.Reg(isa.R1))
	}
}

func TestLoadStoreAndProducer(t *testing.T) {
	b := prog.NewBuilder()
	arr := b.AllocInit(11, 22)
	b.Li(isa.R1, int64(arr))
	b.Lw(isa.R2, isa.R1, 0)              // loads 11, no producer
	b.Sw(isa.R2, isa.R1, prog.WordBytes) // stores 11 over 22
	b.Lw(isa.R3, isa.R1, prog.WordBytes) // loads 11, producer = the store
	b.Halt()
	m, ds := run(t, b.MustProgram(), 20)
	if m.Reg(isa.R3) != 11 {
		t.Errorf("r3 = %d, want 11", m.Reg(isa.R3))
	}
	var firstLoad, store, secondLoad *DynInst
	for i := range ds {
		d := &ds[i]
		switch {
		case d.IsLoad() && firstLoad == nil:
			firstLoad = d
		case d.IsStore():
			store = d
		case d.IsLoad():
			secondLoad = d
		}
	}
	if firstLoad == nil || store == nil || secondLoad == nil {
		t.Fatal("missing memory ops in trace")
	}
	if firstLoad.LoadVal != 11 || firstLoad.ProducerSeq != -1 {
		t.Errorf("first load val=%d producer=%d", firstLoad.LoadVal, firstLoad.ProducerSeq)
	}
	if store.StoreVal != 11 || store.OldVal != 22 {
		t.Errorf("store val=%d old=%d, want 11, 22", store.StoreVal, store.OldVal)
	}
	if secondLoad.LoadVal != 11 || secondLoad.ProducerSeq != store.Seq {
		t.Errorf("second load val=%d producer=%d, want 11, %d",
			secondLoad.LoadVal, secondLoad.ProducerSeq, store.Seq)
	}
	if firstLoad.Addr != arr || store.Addr != arr+prog.WordBytes {
		t.Errorf("addresses wrong: %#x %#x", firstLoad.Addr, store.Addr)
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// Sum 1..5 with a loop.
	b := prog.NewBuilder()
	b.Li(isa.R1, 5) // n
	b.Li(isa.R2, 0) // sum
	b.Label("loop")
	b.Add(isa.R2, isa.R2, isa.R1)
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, isa.R0, "loop")
	b.Halt()
	m, ds := run(t, b.MustProgram(), 100)
	if m.Reg(isa.R2) != 15 {
		t.Errorf("sum = %d, want 15", m.Reg(isa.R2))
	}
	taken, notTaken := 0, 0
	for i := range ds {
		if ds[i].Inst.Op == isa.BNE {
			if ds[i].Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken != 4 || notTaken != 1 {
		t.Errorf("taken=%d notTaken=%d, want 4, 1", taken, notTaken)
	}
}

func TestCallReturn(t *testing.T) {
	b := prog.NewBuilder()
	b.Jal("fn")
	b.Add(isa.R3, isa.R1, isa.R1) // after return: r3 = 2*r1
	b.Halt()
	b.Label("fn")
	b.Li(isa.R1, 21)
	b.Ret()
	m, ds := run(t, b.MustProgram(), 20)
	if m.Reg(isa.R3) != 42 {
		t.Errorf("r3 = %d, want 42", m.Reg(isa.R3))
	}
	// The JAL must record its fall-through as the RA value and jump.
	if ds[0].Inst.Op != isa.JAL || !ds[0].Taken {
		t.Fatal("first inst should be a taken JAL")
	}
	if want := prog.PCOf(3); ds[0].NextPC != want { // "fn" is the 4th instruction
		t.Errorf("JAL NextPC = %#x, want %#x", ds[0].NextPC, want)
	}
}

func TestStackPointerInitialized(t *testing.T) {
	b := prog.NewBuilder()
	b.Sw(isa.R1, isa.SP, -8)
	b.Halt()
	m, ds := run(t, b.MustProgram(), 10)
	_ = m
	if len(ds) == 0 || ds[0].Addr != prog.StackBase-8 {
		t.Fatalf("stack store addr = %#x, want %#x", ds[0].Addr, prog.StackBase-8)
	}
}

func TestMemorySparse(t *testing.T) {
	m := NewMemory()
	if m.Read(0x1000) != 0 {
		t.Error("untouched memory should read 0")
	}
	m.Write(0x1000, 77)
	m.Write(0xffff_f000, -5)
	if m.Read(0x1000) != 77 || m.Read(0xffff_f000) != -5 {
		t.Error("read-after-write failed")
	}
	if m.Footprint() != 2 {
		t.Errorf("footprint = %d, want 2", m.Footprint())
	}
}

func TestMemoryZeroValue(t *testing.T) {
	var m Memory
	if m.Read(0x1000) != 0 || m.Footprint() != 0 {
		t.Fatal("the zero Memory must read as empty")
	}
	m.Write(0x1000, 9)
	if m.Read(0x1000) != 9 || m.Footprint() != 1 {
		t.Errorf("zero Memory after one write: read %d, footprint %d; want 9, 1", m.Read(0x1000), m.Footprint())
	}
}

// TestMemoryPageAndLeafEdges writes the first and last word of a page
// and of a leaf, and the lowest and highest word of the address space,
// and reads each back without disturbing its neighbours.
func TestMemoryPageAndLeafEdges(t *testing.T) {
	const pageBytes = pageWords * prog.WordBytes
	const leafBytes = leafPages * pageBytes
	addrs := []uint32{
		0, 0xffff_fff8, // the address space's first and last word
		5 * pageBytes, 6*pageBytes - 8, // a page's first and last word
		3 * leafBytes, 4*leafBytes - 8, // a leaf's first and last word
	}
	m := NewMemory()
	for i, a := range addrs {
		m.Write(a, int64(i)+100)
	}
	for i, a := range addrs {
		if got := m.Read(a); got != int64(i)+100 {
			t.Errorf("Read(%#x) = %d, want %d", a, got, int64(i)+100)
		}
	}
	for _, a := range []uint32{8, 0xffff_fff0, 5*pageBytes - 8, 6 * pageBytes, 3*leafBytes - 8, 4 * leafBytes} {
		if got := m.Read(a); got != 0 {
			t.Errorf("neighbour Read(%#x) = %d, want 0", a, got)
		}
	}
	// A page's first and last word share its page; the leaf's sit on
	// its first and last page.
	if got := m.Footprint(); got != 5 {
		t.Errorf("footprint = %d, want 5", got)
	}
}

// TestNewMaterializesNonZeroPages loads a data image whose pages are
// all-zero, partly zero and straddle the image's end, and requires New
// to materialize exactly the pages holding a non-zero word, as writing
// the image word by word did.
func TestNewMaterializesNonZeroPages(t *testing.T) {
	data := make([]int64, 5*pageWords+17)
	data[3] = 1                // page 0
	data[2*pageWords+511] = -2 // page 2, last word; page 1 stays all zero
	data[5*pageWords+16] = 7   // page 5, the image's last word
	p := &prog.Program{Code: []isa.Inst{{Op: isa.HALT}}, Entry: prog.TextBase, Data: data}
	m := New(p)
	want := map[uint32]bool{}
	for i, v := range data {
		if v != 0 {
			want[(prog.DataBase/prog.WordBytes+uint32(i))/pageWords] = true
		}
	}
	if got := m.Mem().Footprint(); got != len(want) {
		t.Errorf("footprint = %d, want %d", got, len(want))
	}
	for i, v := range data {
		if got := m.Mem().Read(prog.DataBase + uint32(i*prog.WordBytes)); got != v {
			t.Fatalf("data word %d = %d, want %d", i, got, v)
		}
	}
}

func TestUnalignedAccessAligns(t *testing.T) {
	b := prog.NewBuilder()
	a := b.AllocInit(123)
	b.Li(isa.R1, int64(a)+3) // misaligned base
	b.Lw(isa.R2, isa.R1, 0)
	b.Halt()
	m, ds := run(t, b.MustProgram(), 10)
	if m.Reg(isa.R2) != 123 {
		t.Errorf("r2 = %d, want 123 (aligned load)", m.Reg(isa.R2))
	}
	for i := range ds {
		if ds[i].IsLoad() && ds[i].Addr != a {
			t.Errorf("load addr = %#x, want %#x", ds[i].Addr, a)
		}
	}
}

func TestMulHigh(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{1 << 40, 1 << 40, 1 << 16},
		{-1, 1, -1},
		{1, 1, 0},
		{-(1 << 40), 1 << 40, -(1 << 16)},
	}
	for _, c := range cases {
		if got := mulHigh(c.a, c.b); got != c.want {
			t.Errorf("mulHigh(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHaltStopsStepping(t *testing.T) {
	b := prog.NewBuilder()
	b.Halt()
	m := New(b.MustProgram())
	var d DynInst
	if !m.Step(&d) {
		t.Fatal("HALT itself should execute")
	}
	if m.Step(&d) {
		t.Fatal("stepping past HALT should fail")
	}
}

func TestPCOffTextHalts(t *testing.T) {
	b := prog.NewBuilder()
	b.Jr(isa.R1) // r1 = 0: jumps outside text
	b.Halt()
	m := New(b.MustProgram())
	var d DynInst
	if !m.Step(&d) {
		t.Fatal("JR should execute")
	}
	if m.Step(&d) {
		t.Fatal("stepping off the text section should fail")
	}
	if !m.Halted() {
		t.Error("machine should report halted")
	}
}

func TestTraceExtendAndRewind(t *testing.T) {
	b := prog.NewBuilder()
	b.Li(isa.R1, 1000)
	b.Label("loop")
	b.Addi(isa.R1, isa.R1, -1)
	b.Bne(isa.R1, isa.R0, "loop")
	b.Halt()
	tr := NewTrace(New(b.MustProgram()))
	d50 := tr.At(50)
	if d50 == nil {
		t.Fatal("At(50) = nil")
	}
	pc50, seq50 := d50.PC, d50.Seq
	if seq50 != 50 {
		t.Errorf("seq = %d, want 50", seq50)
	}
	// Earlier records remain accessible (squash rewind).
	if d := tr.At(10); d == nil || d.Seq != 10 {
		t.Fatal("rewind to 10 failed")
	}
	// Same record still matches.
	if d := tr.At(50); d.PC != pc50 {
		t.Error("At(50) changed after rewind")
	}
}

func TestTraceRelease(t *testing.T) {
	b := prog.NewBuilder()
	b.Label("loop")
	b.Addi(isa.R1, isa.R1, 1)
	b.J("loop")
	tr := NewTrace(New(b.MustProgram()))
	if tr.At(9999) == nil {
		t.Fatal("infinite loop trace should extend")
	}
	tr.Release(9000)
	if d := tr.At(9000); d == nil || d.Seq != 9000 {
		t.Fatal("At(9000) after release failed")
	}
	if d := tr.At(12000); d == nil || d.Seq != 12000 {
		t.Fatal("extend after release failed")
	}
}

func TestTraceEndsAtHalt(t *testing.T) {
	b := prog.NewBuilder()
	b.Nop()
	b.Halt()
	tr := NewTrace(New(b.MustProgram()))
	if tr.At(0) == nil || tr.At(1) == nil {
		t.Fatal("first two records should exist")
	}
	if tr.At(2) != nil {
		t.Fatal("trace should end after HALT")
	}
}

// TestTraceReleaseShrinks pins post-Release memory: after deep
// speculation grows the buffer far beyond the live window, releasing
// the dead prefix must also give the capacity back (shrink to ~2× the
// live suffix) instead of holding the high-water mark forever.
func TestTraceReleaseShrinks(t *testing.T) {
	b := prog.NewBuilder()
	b.Label("loop")
	b.Addi(isa.R1, isa.R1, 1)
	b.J("loop")
	tr := NewTrace(New(b.MustProgram()))
	if tr.At(99_999) == nil {
		t.Fatal("trace should extend to 100k")
	}
	grown := cap(tr.buf)
	if grown < 100_000 {
		t.Fatalf("buffer did not grow: cap %d", grown)
	}
	tr.Release(99_900) // 100 live entries out of >=100k capacity
	if got := cap(tr.buf); got > 4*traceMinCap {
		t.Errorf("cap after release = %d entries, want <= %d (was %d)", got, 4*traceMinCap, grown)
	}
	// The stream must be unaffected: live suffix intact, extension works.
	if d := tr.At(99_950); d == nil || d.Seq != 99_950 {
		t.Fatal("live entry lost by shrink")
	}
	if d := tr.At(100_500); d == nil || d.Seq != 100_500 {
		t.Fatal("extension after shrink failed")
	}
	// A window-sized buffer must NOT shrink: releasing most of a small
	// buffer keeps its capacity (no grow/shrink thrash in steady state).
	small := NewTrace(New(b.MustProgram()))
	if small.At(2*traceMinCap-1) == nil {
		t.Fatal("small trace should extend")
	}
	before := cap(small.buf)
	small.Release(2*traceMinCap - 10)
	if got := cap(small.buf); got != before {
		t.Errorf("small buffer shrank: cap %d -> %d", before, got)
	}
}

package emu_test

import (
	"testing"

	"mdspec/internal/emu"
	"mdspec/internal/isa"
	"mdspec/internal/prog"
	"mdspec/internal/workload"
)

// refMemory is the emulator's memory as a word map plus a last-store
// map: the simple algorithm the page directory replaced, kept as the
// reference it must match.
type refMemory struct {
	words     map[uint32]int64 // word-aligned byte address -> value
	lastStore map[uint32]int64 // word-aligned byte address -> Seq of the last store
}

func newRefMemory(p *prog.Program) *refMemory {
	r := &refMemory{words: map[uint32]int64{}, lastStore: map[uint32]int64{}}
	for i, v := range p.Data {
		r.words[prog.DataBase+uint32(i*prog.WordBytes)] = v
	}
	return r
}

// refExtract and refMerge are the sub-word rules of the ISA: bytes at
// any offset of their word, halfwords at even offsets.
func refExtract(word int64, op isa.Op, byteAddr uint32) int64 {
	switch op {
	case isa.LB:
		return int64(int8(word >> (8 * (byteAddr & 7))))
	case isa.LBU:
		return int64(uint8(word >> (8 * (byteAddr & 7))))
	case isa.LH:
		return int64(int16(word >> (8 * (byteAddr & 6))))
	}
	return word
}

func refMerge(old, v int64, op isa.Op, byteAddr uint32) int64 {
	switch op {
	case isa.SB:
		sh := 8 * (byteAddr & 7)
		return old&^(0xff<<sh) | (v&0xff)<<sh
	case isa.SH:
		sh := 8 * (byteAddr & 6)
		return old&^(0xffff<<sh) | (v&0xffff)<<sh
	}
	return v
}

// TestMemoryMatchesMapReference steps every workload and checks each
// load's LoadVal and ProducerSeq, and each store's OldVal and StoreVal,
// against the map-based reference.
func TestMemoryMatchesMapReference(t *testing.T) {
	const steps = 50_000
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := workload.MustBuild(name)
			m := emu.New(p)
			ref := newRefMemory(p)
			var d emu.DynInst
			var loads, stores int
			for i := 0; i < steps; i++ {
				in, ok := p.At(m.PC())
				if !ok {
					break
				}
				byteAddr := uint32(m.Reg(in.Src1()) + in.Imm)
				addr := byteAddr &^ 7
				data := m.Reg(in.Rs2)
				if !m.Step(&d) {
					break
				}
				switch {
				case in.Op.IsLoad():
					loads++
					producer, ok := ref.lastStore[addr]
					if !ok {
						producer = -1
					}
					want := refExtract(ref.words[addr], in.Op, byteAddr)
					if d.Addr != addr || d.LoadVal != want || d.ProducerSeq != producer {
						t.Fatalf("seq %d %v @%#x: addr %#x val %d producer %d; want addr %#x val %d producer %d",
							d.Seq, in.Op, byteAddr, d.Addr, d.LoadVal, d.ProducerSeq, addr, want, producer)
					}
				case in.Op.IsStore():
					stores++
					old := ref.words[addr]
					want := refMerge(old, data, in.Op, byteAddr)
					if d.Addr != addr || d.OldVal != old || d.StoreVal != want {
						t.Fatalf("seq %d %v @%#x: addr %#x old %d val %d; want addr %#x old %d val %d",
							d.Seq, in.Op, byteAddr, d.Addr, d.OldVal, d.StoreVal, addr, old, want)
					}
					ref.words[addr] = want
					ref.lastStore[addr] = d.Seq
				}
			}
			if loads == 0 || stores == 0 {
				t.Fatalf("%s: %d loads and %d stores in %d steps; the check needs both", name, loads, stores, steps)
			}
		})
	}
}

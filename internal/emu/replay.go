package emu

import (
	"context"
	"fmt"
	"math/bits"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// recChunkShift sizes Recording chunks at 4096 instructions.
const recChunkShift = 12

const (
	recChunkSize = 1 << recChunkShift
	recChunkMask = recChunkSize - 1
)

// Dependence columns hold the distance back to the producer (seq -
// depSeq). Zero encodes "no dependence" (a distance of zero is
// impossible: producers are strictly older), and the column's largest
// value sends the decoder to the chunk's escape table for the rare
// distance that does not fit: dep1 and the loads' producer column are
// uint16 (escape 0xffff), dep2 is uint8 (escape 0xff; 99.9% of the
// suite's dep2 distances are below it).
const (
	depNone     = 0
	dep16Escape = 0xffff
	dep8Escape  = 0xff
)

// Escape-table keys pack the in-chunk offset with the field the entry
// belongs to, so one sorted table serves all three dependence columns.
const (
	escDep1 = iota
	escDep2
	escProd
)

func escKeyOf(off int, field int) uint32 { return uint32(off)<<2 | uint32(field) }

// recChunk holds recChunkSize instructions in column-per-field layout:
// 5 B and 3 bits per instruction, plus side tables for what only loads
// and stores carry, about 12 B/inst over the suite:
//
//   - Seq is implicit in the position.
//   - pc is the static code index (PC-TextBase)/4: it regenerates both
//     PC and the *isa.Inst pointer, so replay stores no pointers. It is
//     16-bit: prog.Builder refuses programs of more than
//     prog.MaxInsts = 65,536 instructions.
//   - NextPC is not stored at all: the emulator guarantees
//     NextPC(i) == PC(i+1) (Machine.Step ends with m.pc = d.NextPC),
//     so it is read from the next entry's pc, or from the recording's
//     tail PC at its end.
//   - dep1/dep2 store the distance to the register producers.
//   - taken is a branch-outcome bitmap (it cannot be derived from
//     NextPC: a taken conditional branch may target fall-through).
//   - load and store are bitmaps of the chunk's loads and stores, and
//     loadRank/storeRank count the loads and stores before each bitmap
//     word, so a load's ordinal among the chunk's loads is its word's
//     rank plus a popcount. The ordinal indexes the side tables:
//     ldAddr/ldVal/ldProd (address, loaded value, distance to the
//     producing store) and stAddr/stVal/stOld (address, stored value,
//     memory value before the store). Every other instruction has
//     all-zero memory fields and no producer by construction.
type recChunk struct {
	pc        []uint16
	dep1      []uint16
	dep2      []uint8
	taken     []uint64 // one bit per instruction
	load      []uint64
	store     []uint64
	loadRank  []uint16 // loads before each word of load
	storeRank []uint16
	ldAddr    []uint32
	ldVal     []int64
	ldProd    []uint16
	stAddr    []uint32
	stVal     []int64
	stOld     []int64
	escKey    []uint32 // escKeyOf(off, field), strictly ascending
	escVal    []int64  // absolute producer seq for the escaped entry
}

// dep recovers an absolute producer seq from a distance column entry.
func (c *recChunk) dep(enc, escape uint16, off, field int, seq int64) int64 {
	switch enc {
	case depNone:
		return -1
	case escape:
		return c.escLookup(off, field)
	}
	return seq - int64(enc)
}

// escLookup binary-searches the sorted escape table.
func (c *recChunk) escLookup(off, field int) int64 {
	key := escKeyOf(off, field)
	lo, hi := 0, len(c.escKey)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.escKey[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return c.escVal[lo]
}

// sizeBytes is the heap/file footprint of the chunk's columns.
func (c *recChunk) sizeBytes() int64 {
	var total int64
	for _, s := range c.sections() {
		total += int64(len(s))
	}
	return total
}

// chunkBuilder is the scratch a chunk is captured into: every column
// at full chunk capacity, so capture never grows a slice. seal copies
// the filled prefix of each column into a chunk of exact lengths, so a
// chunk holds no spare capacity.
type chunkBuilder struct {
	n, loads, stores   int
	pc                 [recChunkSize]uint16
	dep1               [recChunkSize]uint16
	dep2               [recChunkSize]uint8
	taken, load, store [recChunkSize / 64]uint64
	ldAddr             [recChunkSize]uint32
	ldVal              [recChunkSize]int64
	ldProd             [recChunkSize]uint16
	stAddr             [recChunkSize]uint32
	stVal, stOld       [recChunkSize]int64
	escKey             []uint32
	escVal             []int64
}

// encode appends d, which must be the next instruction of the chunk.
// The escape table grows in offset order, and each instruction's
// fields are encoded in escDep1, escDep2, escProd order, so its keys
// stay sorted.
func (b *chunkBuilder) encode(d *DynInst) {
	off := b.n
	b.pc[off] = uint16((d.PC - prog.TextBase) / isa.InstBytes)
	b.dep1[off] = uint16(b.distance(off, escDep1, d.Seq, d.Dep1Seq, dep16Escape))
	b.dep2[off] = uint8(b.distance(off, escDep2, d.Seq, d.Dep2Seq, dep8Escape))
	w, bit := off>>6, uint64(1)<<(uint(off)&63)
	switch {
	case d.Inst.Op.IsLoad():
		k := b.loads
		b.load[w] |= bit
		b.ldAddr[k], b.ldVal[k] = d.Addr, d.LoadVal
		b.ldProd[k] = uint16(b.distance(off, escProd, d.Seq, d.ProducerSeq, dep16Escape))
		b.loads++
	case d.Inst.Op.IsStore():
		k := b.stores
		b.store[w] |= bit
		b.stAddr[k], b.stVal[k], b.stOld[k] = d.Addr, d.StoreVal, d.OldVal
		b.stores++
	}
	if d.Taken {
		b.taken[w] |= bit
	}
	b.n++
}

// distance encodes dep as a distance back from seq, escaping distances
// at or above escape.
func (b *chunkBuilder) distance(off, field int, seq, dep, escape int64) int64 {
	if dep < 0 {
		return depNone
	}
	if dist := seq - dep; dist < escape {
		return dist
	}
	b.escKey = append(b.escKey, escKeyOf(off, field))
	b.escVal = append(b.escVal, dep)
	return escape
}

// seal returns the filled prefix as a chunk of exact column lengths and
// resets the builder.
func (b *chunkBuilder) seal() *recChunk {
	n, words := b.n, (b.n+63)/64
	c := &recChunk{
		pc:     exact(b.pc[:n]),
		dep1:   exact(b.dep1[:n]),
		dep2:   exact(b.dep2[:n]),
		taken:  exact(b.taken[:words]),
		load:   exact(b.load[:words]),
		store:  exact(b.store[:words]),
		ldAddr: exact(b.ldAddr[:b.loads]),
		ldVal:  exact(b.ldVal[:b.loads]),
		ldProd: exact(b.ldProd[:b.loads]),
		stAddr: exact(b.stAddr[:b.stores]),
		stVal:  exact(b.stVal[:b.stores]),
		stOld:  exact(b.stOld[:b.stores]),
		escKey: exact(b.escKey),
		escVal: exact(b.escVal),
	}
	c.loadRank, c.storeRank = ranks(c.load), ranks(c.store)
	b.n, b.loads, b.stores = 0, 0, 0
	clear(b.taken[:])
	clear(b.load[:])
	clear(b.store[:])
	b.escKey, b.escVal = b.escKey[:0], b.escVal[:0]
	return c
}

// exact copies s into a fresh slice of its length, nil if empty: a
// sealed chunk must not share (or pin) the builder's arrays.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// ranks returns, for each word of bitmap, the number of set bits in
// the words before it.
func ranks(bitmap []uint64) []uint16 {
	if len(bitmap) == 0 {
		return nil
	}
	r := make([]uint16, len(bitmap))
	var sum int
	for w, word := range bitmap {
		r[w] = uint16(sum)
		sum += bits.OnesCount64(word)
	}
	return r
}

// Recording is one run of a program's dynamic instruction stream,
// captured once so that every timing configuration of a sweep replays
// the same run: the architectural stream is identical across
// configurations, so emulating it per configuration is pure waste.
//
// A recording is captured whole before any replay reads it.
// NewRecording takes the machine, and Record emulates it in
// 4,096-instruction chunks up to a horizon (or the program's end) and
// drops it. OpenRecordingFile maps a recording that WriteSealedTo wrote.
// Either way the recording never changes afterwards, so any number of
// replays on any goroutines read it without locks. A replay gets nil
// past the end of a halted program and panics past a sealed prefix:
// callers capture to the horizon their reads are bounded by.
//
// Storage is columnar (see recChunk): about 12 B/inst shared by all
// replays, unlike Trace, whose buffer is per-pipeline but stays
// proportional to the instruction window.
type Recording struct {
	m *Machine // the machine Record captures from; nil once captured

	code   []isa.Inst // static code table; the pc columns index into it
	fp     uint64     // ProgramFingerprint of the program
	chunks []*recChunk
	n      int64  // instructions recorded
	tail   uint32 // NextPC of instruction n-1
	done   bool   // the program halted; n is its exact length

	// A mapped recording's file bytes, which its chunks view.
	data    []byte
	unmap   func() error
	mmapped bool
}

// NewRecording returns an empty recording that Record captures from m.
// The machine must not be stepped directly once it is owned by a
// Recording. Its program must have at most prog.MaxInsts instructions,
// as prog.Builder ensures.
func NewRecording(m *Machine) *Recording {
	if len(m.code) > prog.MaxInsts {
		panic(fmt.Sprintf("emu: a program of %d instructions does not fit a recording's 16-bit code index", len(m.code)))
	}
	return &Recording{m: m, code: m.code, fp: m.fp, tail: m.PC()}
}

// Fingerprint returns the ProgramFingerprint of the recorded program.
func (r *Recording) Fingerprint() uint64 { return r.fp }

// Len returns the number of instructions recorded.
func (r *Recording) Len() int64 { return r.n }

// Prefix reports whether the recording is a sealed prefix of a longer
// program, recorded to a horizon, rather than a whole halted program.
func (r *Recording) Prefix() bool { return !r.done }

// SizeBytes returns the bytes the recording occupies: its columns, the
// basis of the bytes/inst benchmark metric, or a mapped recording's
// file. Captured chunks hold no spare capacity, so it is also the heap
// they occupy, up to allocator rounding.
func (r *Recording) SizeBytes() int64 {
	if r.data != nil {
		return int64(len(r.data))
	}
	var total int64
	for _, c := range r.chunks {
		total += c.sizeBytes()
	}
	return total
}

// Record captures whole chunks until the recording covers n
// instructions or the program halts, then drops the machine, so a
// recording does not keep its emulator's memory alive. It must be
// called once, before any replay.
func (r *Recording) Record(n int64) {
	r.RecordContext(context.Background(), n) //md:errok a background context is never done
}

// RecordContext is Record, giving up between chunks once ctx is done:
// it then returns ctx's error, and the recording, sealed short of n, is
// the caller's to discard.
func (r *Recording) RecordContext(ctx context.Context, n int64) error {
	if r.m == nil {
		panic("emu: Record on a recording that is already captured")
	}
	b := new(chunkBuilder)
	var d DynInst
	var err error
	for r.n < n && !r.m.Halted() {
		if err = ctx.Err(); err != nil {
			break
		}
		for b.n < recChunkSize && r.m.Step(&d) {
			b.encode(&d)
		}
		if b.n > 0 {
			r.n += int64(b.n)
			r.chunks = append(r.chunks, b.seal())
		}
	}
	r.tail, r.done = r.m.PC(), r.m.Halted()
	r.m = nil
	return err
}

// Replay is a read cursor over a Recording, satisfying Stream. Each
// pipeline gets its own Replay; all replays share the recording's
// columnar storage. Release is a no-op: the recording is retained in
// full so later configurations can replay from the start.
//
// At decodes the requested instruction into a cursor-owned scratch
// DynInst and returns a pointer to it, so the columns never materialize
// as full records. Callers must therefore finish with the returned
// record before calling At again on the same cursor — the discipline
// Trace.At (whose buffer reallocates on append) already imposes. A
// Replay must not be shared between goroutines; its Recording may be.
type Replay struct {
	chunks []*recChunk
	n      int64
	tail   uint32
	done   bool
	code   []isa.Inst

	cur     int64 // seq currently decoded in scratch, -1 for none
	scratch DynInst
}

// NewReplay returns a fresh replay cursor over the recording.
func (r *Recording) NewReplay() *Replay {
	return &Replay{chunks: r.chunks, n: r.n, tail: r.tail, done: r.done, code: r.code, cur: -1}
}

// At returns the dynamic instruction with sequence number seq, or nil if
// the program halts before seq is reached. The returned pointer is the
// cursor's scratch record, valid until the next At on this cursor.
//
//md:hotpath
func (rp *Replay) At(seq int64) *DynInst {
	if seq == rp.cur {
		return &rp.scratch
	}
	if seq < rp.n {
		rp.decode(seq)
		return &rp.scratch
	}
	if rp.done {
		return nil
	}
	// Returning nil here would silently simulate a shorter program than
	// the one recorded; the capture horizon is sized so a correct replay
	// never gets here.
	//md:allocok a read past a sealed prefix is a bug, reported once by a panic
	panic(fmt.Sprintf("emu: replay past sealed recording prefix (seq %d, sealed at %d)", seq, rp.n))
}

// decode materializes instruction seq (which must be below the
// recording's length) into the scratch record. It touches only the
// columns, allocates nothing, and leaves every field of the scratch in
// the exact state Machine.Step would have produced.
func (rp *Replay) decode(seq int64) {
	c := rp.chunks[seq>>recChunkShift]
	off := int(seq & recChunkMask)
	idx := uint32(c.pc[off])
	d := &rp.scratch
	d.Seq = seq
	d.PC = prog.TextBase + idx*isa.InstBytes
	d.Inst = &rp.code[idx]
	w, bit := off>>6, uint64(1)<<(uint(off)&63)
	d.Addr, d.LoadVal, d.StoreVal, d.OldVal, d.ProducerSeq = 0, 0, 0, 0, -1
	if lw := c.load[w]; lw&bit != 0 {
		k := int(c.loadRank[w]) + bits.OnesCount64(lw&(bit-1))
		d.Addr, d.LoadVal = c.ldAddr[k], c.ldVal[k]
		d.ProducerSeq = c.dep(c.ldProd[k], dep16Escape, off, escProd, seq)
	} else if sw := c.store[w]; sw&bit != 0 {
		k := int(c.storeRank[w]) + bits.OnesCount64(sw&(bit-1))
		d.Addr, d.StoreVal, d.OldVal = c.stAddr[k], c.stVal[k], c.stOld[k]
	}
	d.Dep1Seq = c.dep(c.dep1[off], dep16Escape, off, escDep1, seq)
	d.Dep2Seq = c.dep(uint16(c.dep2[off]), dep8Escape, off, escDep2, seq)
	d.Taken = c.taken[w]&bit != 0
	if next := seq + 1; next < rp.n {
		nc := rp.chunks[next>>recChunkShift]
		d.NextPC = prog.TextBase + uint32(nc.pc[next&recChunkMask])*isa.InstBytes
	} else {
		// The end of the recording: its tail PC is the machine's PC
		// after the last instruction, that instruction's NextPC.
		d.NextPC = rp.tail
	}
	rp.cur = seq
}

// Release is a no-op; the recording is shared and retained in full.
func (rp *Replay) Release(int64) {}

// Len returns the number of instructions recorded. Once At has returned
// nil it is the exact program length, matching Trace.Len.
func (rp *Replay) Len() int64 { return rp.n }

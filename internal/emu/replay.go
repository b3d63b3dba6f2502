package emu

import (
	"fmt"
	"math/bits"
	"sync"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// recChunkShift sizes Recording chunks at 4096 instructions. Chunks are
// immutable once the published length covers them, so readers can index
// them without locks.
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

// widePCMin is the smallest code table whose pcIdx needs 32 bits.
const widePCMin = 1<<16 + 1

// recChunk holds recChunkSize instructions in column-per-field layout:
// 5 B and 3 bits per instruction, plus side tables for what only loads
// and stores carry, about 12 B/inst over the suite:
//
//   - Seq is implicit in the position.
//   - pcIdx is the static code index (PC-TextBase)/4: it regenerates
//     both PC and the *isa.Inst pointer, so replay stores no pointers.
//     It is 16-bit (pc16) unless the program has more than 65,536
//     static instructions (pc32); the other column is nil.
//   - NextPC is not stored at all: the emulator guarantees
//     NextPC(i) == PC(i+1) (Machine.Step ends with m.pc = d.NextPC),
//     so it is read from the next entry's pcIdx, or from the
//     recording's published tail PC at the frontier.
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
	pc16      []uint16
	pc32      []uint32
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

// pcAt returns the static code index of the instruction at offset off.
func (c *recChunk) pcAt(off int) uint32 {
	if c.pc16 != nil {
		return uint32(c.pc16[off])
	}
	return c.pc32[off]
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
// chunk holds no spare capacity. Builders are pooled: a lazily extended
// recording seals one chunk per extension.
type chunkBuilder struct {
	n, loads, stores   int
	pc                 [recChunkSize]uint32
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

var chunkBuilders = sync.Pool{New: func() any { return new(chunkBuilder) }}

// encode appends d, which must be the next instruction of the chunk.
// The escape table grows in offset order, and each instruction's
// fields are encoded in escDep1, escDep2, escProd order, so its keys
// stay sorted.
func (b *chunkBuilder) encode(d *DynInst) {
	off := b.n
	b.pc[off] = (d.PC - prog.TextBase) / isa.InstBytes
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
// resets the builder. wide selects the 32-bit pcIdx column.
func (b *chunkBuilder) seal(wide bool) *recChunk {
	n, words := b.n, (b.n+63)/64
	c := &recChunk{
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
	if wide {
		c.pc32 = exact(b.pc[:n])
	} else {
		c.pc16 = make([]uint16, n)
		for i, idx := range b.pc[:n] {
			c.pc16[i] = uint16(idx)
		}
	}
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

// Recording captures the dynamic instruction stream of a Machine exactly
// once so that many timing configurations can replay it concurrently.
// The paper's sweeps run every policy over the same benchmark slice; the
// architectural stream is identical across configurations, so emulating
// it per configuration is pure waste. A Recording is extended on demand
// by whichever replay reads furthest ahead, under a mutex; completed
// prefixes are published with release/acquire semantics so other replays
// (possibly on other goroutines) index them lock-free.
//
// Storage is columnar (see recChunk): about 12 B/inst shared by all
// replays, unlike Trace, whose buffer is per-pipeline but stays
// proportional to the instruction window. A Recording can be
// serialized with WriteSealedTo and mapped back with OpenRecordingFile
// so separate processes share one on-disk copy per benchmark.
// Lock ordering: mu > chunksMu > lenMu. extend holds mu for the whole
// extension and takes chunksMu, then lenMu, strictly nested inside it;
// readers take chunksMu or lenMu alone and never mu — so no cycle is
// possible. A chunk is sealed before it is linked in and never changes
// after, which is why readers can index chunks lock-free after
// snapshot.
type Recording struct {
	mu      sync.Mutex // serializes extension of the stream
	m       *Machine   //md:guardedby mu
	scratch DynInst    //md:guardedby mu

	code []isa.Inst // static code table; pcIdx columns index into it
	fp   uint64     // ProgramFingerprint of the program, for the file header

	chunksMu sync.RWMutex // guards growth of the chunk slice header
	chunks   []*recChunk  //md:guardedby chunksMu

	lenMu sync.RWMutex
	n     int64  //md:guardedby lenMu instructions recorded so far
	tail  uint32 //md:guardedby lenMu NextPC of instruction n-1 (the machine's frontier PC)
	done  bool   //md:guardedby lenMu machine halted; n is the exact program length
}

// NewRecording returns a Recording over m. The machine must not be
// stepped directly once it is owned by a Recording.
func NewRecording(m *Machine) *Recording {
	return &Recording{m: m, code: m.code, fp: m.fp, tail: m.PC()}
}

// Fingerprint returns the ProgramFingerprint of the recorded program.
func (r *Recording) Fingerprint() uint64 { return r.fp }

// length returns the published prefix length and whether the program has
// ended within it.
func (r *Recording) length() (int64, bool) {
	r.lenMu.RLock()
	n, done := r.n, r.done
	r.lenMu.RUnlock()
	return n, done
}

// Len returns the number of instructions recorded so far.
func (r *Recording) Len() int64 {
	n, _ := r.length()
	return n
}

// SizeBytes returns the memory footprint of the recorded columns — the
// basis of the bytes/inst benchmark metric. Sealed chunks hold no spare
// capacity, so it is also the heap they occupy, up to allocator
// rounding.
func (r *Recording) SizeBytes() int64 {
	chunks, n, _, _ := r.snapshot()
	var total int64
	for _, c := range chunks[:(n+recChunkMask)>>recChunkShift] {
		total += c.sizeBytes()
	}
	return total
}

// Record extends the recording to cover at least n instructions (or the
// whole program if it is shorter). Benchmarks use it to pre-record their
// full horizon so measured iterations never pay emulation.
func (r *Recording) Record(n int64) {
	if n > 0 {
		r.extend(n - 1)
	}
}

// snapshot returns the published state under the recording's locks. The
// length is read first: extend links a chunk in before publishing the
// length that covers it, so the returned slice always spans n (and may
// hold one chunk more).
func (r *Recording) snapshot() ([]*recChunk, int64, uint32, bool) {
	r.lenMu.RLock()
	n, tail, done := r.n, r.tail, r.done
	r.lenMu.RUnlock()
	r.chunksMu.RLock()
	chunks := r.chunks
	r.chunksMu.RUnlock()
	return chunks, n, tail, done
}

// extend advances the recording until seq is covered or the program
// halts. Only one goroutine extends at a time; the rest re-check the
// published length after the lock drops. Each chunk is captured into a
// pooled builder and linked in once sealed, and the length is published
// only on chunk boundaries (or at program end), so readers never
// observe a chunk that is still growing.
func (r *Recording) extend(seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, done := r.length()
	if seq < n || done {
		return
	}
	b := chunkBuilders.Get().(*chunkBuilder)
	defer chunkBuilders.Put(b)
	wide := len(r.code) >= widePCMin
	for seq >= n && !done {
		for b.n < recChunkSize {
			if !r.m.Step(&r.scratch) {
				done = true
				break
			}
			b.encode(&r.scratch)
		}
		if b.n > 0 {
			n += int64(b.n)
			c := b.seal(wide)
			r.chunksMu.Lock()
			r.chunks = append(r.chunks, c)
			r.chunksMu.Unlock()
		}
		r.lenMu.Lock()
		r.n, r.tail, r.done = n, r.m.PC(), done
		r.lenMu.Unlock()
	}
}

// ReplaySource is anything that can hand out replay cursors over a
// shared recorded stream: a live *Recording or a mapped *FileRecording.
// Fingerprint names the recorded program (ProgramFingerprint), so state
// derived from the stream, such as checkpoint sets, can be keyed by it.
type ReplaySource interface {
	NewReplay() *Replay
	Fingerprint() uint64
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
// Replay must not be shared between goroutines (Recordings may be;
// snapshots are refreshed through the recording's locks).
type Replay struct {
	rec    *Recording // nil for file-backed replays
	chunks []*recChunk
	n      int64
	tail   uint32
	done   bool
	sealed bool // file-backed prefix: reading past n is an error
	code   []isa.Inst

	cur     int64 // seq currently decoded in scratch, -1 for none
	scratch DynInst
}

// NewReplay returns a fresh replay cursor over the recording.
func (r *Recording) NewReplay() *Replay {
	return &Replay{rec: r, code: r.code, cur: -1}
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
	return rp.atSlow(seq)
}

// decode materializes instruction seq (which must be below the cursor's
// published length) into the scratch record. It touches only the
// columns, allocates nothing, and leaves every field of the scratch in
// the exact state Machine.Step would have produced.
func (rp *Replay) decode(seq int64) {
	c := rp.chunks[seq>>recChunkShift]
	off := int(seq & recChunkMask)
	idx := c.pcAt(off)
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
		d.NextPC = prog.TextBase + nc.pcAt(int(next&recChunkMask))*isa.InstBytes
	} else {
		// The frontier: the recording publishes the machine's PC (the
		// last instruction's NextPC) alongside every length bump.
		d.NextPC = rp.tail
	}
	rp.cur = seq
}

// atSlow refreshes the cursor's snapshot, extending the recording when
// seq has genuinely not been recorded yet.
//
// Runs once per 4096-instruction chunk (and on snapshot refreshes),
// never in the steady replay state.
//
//md:allocok recording-extension boundary, never in steady replay
func (rp *Replay) atSlow(seq int64) *DynInst {
	for {
		if rp.rec == nil {
			if rp.sealed {
				// Returning nil here would silently simulate a shorter
				// program than the live recording; the capture horizon is
				// sized so a correct replay never gets here.
				panic(fmt.Sprintf("emu: replay past sealed recording prefix (seq %d, sealed at %d)", seq, rp.n))
			}
			return nil // file-backed: the stream is complete as mapped
		}
		rp.chunks, rp.n, rp.tail, rp.done = rp.rec.snapshot()
		if seq < rp.n {
			rp.decode(seq)
			return &rp.scratch
		}
		if rp.done {
			return nil
		}
		rp.rec.extend(seq)
	}
}

// Release is a no-op; the recording is shared and retained in full.
func (rp *Replay) Release(int64) {}

// Len returns the number of instructions recorded so far. Once At has
// returned nil it is the exact program length, matching Trace.Len.
func (rp *Replay) Len() int64 {
	if rp.rec == nil {
		return rp.n
	}
	n, _ := rp.rec.length()
	return n
}

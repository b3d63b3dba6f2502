package emu

import (
	"fmt"
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
// depSeq) in a uint16. Zero encodes "no dependence" (a distance of zero
// is impossible: producers are strictly older), and depEscape sends the
// decoder to the chunk's escape table for the rare distance that does
// not fit.
const (
	depNone   = 0
	depEscape = 0xffff
)

// Escape-table keys pack the in-chunk offset with the field the entry
// belongs to, so one sorted table serves all three dependence columns.
const (
	escDep1 = iota
	escDep2
	escProd
)

func escKeyOf(off int, field int) uint32 { return uint32(off)<<2 | uint32(field) }

// recChunk holds recChunkSize instructions in column-per-field layout.
// Relative to the ~88 B array-of-DynInst chunks this replaces, the
// fixed columns cost 16 B + 1 bit per instruction; memory values and
// escaped dependences are appended to variable side tables, for a
// typical total of 18-21 B/inst:
//
//   - Seq is implicit in the position.
//   - pcIdx is the static code index (PC-TextBase)/4: it regenerates
//     both PC and the *isa.Inst pointer, so replay stores no pointers.
//   - NextPC is not stored at all: the emulator guarantees
//     NextPC(i) == PC(i+1) (Machine.Step ends with m.pc = d.NextPC),
//     so it is read from the next entry's pcIdx, or from the
//     recording's published tail PC at the frontier.
//   - dep1/dep2/prod store the distance to the producer; almost all
//     register and memory dependences are within 2^16 instructions.
//   - vals holds LoadVal for loads and StoreVal,OldVal for stores;
//     valIdx points at each instruction's first entry. Non-memory
//     instructions have all-zero memory fields by construction.
//   - taken is a branch-outcome bitmap (it cannot be derived from
//     NextPC: a taken conditional branch may target fall-through).
type recChunk struct {
	pcIdx  []uint32
	addr   []uint32
	dep1   []uint16
	dep2   []uint16
	prod   []uint16
	valIdx []uint16
	taken  []uint64 // recChunkSize/64 bitmap words
	vals   []int64
	escKey []uint32 // escKeyOf(off, field), strictly ascending
	escVal []int64  // absolute producer seq for the escaped entry
}

func newRecChunk() *recChunk {
	return &recChunk{
		pcIdx:  make([]uint32, recChunkSize),
		addr:   make([]uint32, recChunkSize),
		dep1:   make([]uint16, recChunkSize),
		dep2:   make([]uint16, recChunkSize),
		prod:   make([]uint16, recChunkSize),
		valIdx: make([]uint16, recChunkSize),
		taken:  make([]uint64, recChunkSize/64),
		vals:   make([]int64, 0, recChunkSize/2),
	}
}

// encode appends d at in-chunk offset off. Offsets are filled in order,
// so the side tables (vals, escKey/escVal) grow append-only and the
// escape keys stay sorted.
func (c *recChunk) encode(off int, d *DynInst) {
	c.pcIdx[off] = (d.PC - prog.TextBase) / isa.InstBytes
	c.addr[off] = d.Addr
	c.dep1[off] = c.encodeDep(off, escDep1, d.Seq, d.Dep1Seq)
	c.dep2[off] = c.encodeDep(off, escDep2, d.Seq, d.Dep2Seq)
	c.prod[off] = c.encodeDep(off, escProd, d.Seq, d.ProducerSeq)
	c.valIdx[off] = uint16(len(c.vals))
	switch {
	case d.Inst.Op.IsLoad():
		c.vals = append(c.vals, d.LoadVal)
	case d.Inst.Op.IsStore():
		c.vals = append(c.vals, d.StoreVal, d.OldVal)
	}
	if d.Taken {
		c.taken[off>>6] |= 1 << (uint(off) & 63)
	}
}

func (c *recChunk) encodeDep(off, field int, seq, dep int64) uint16 {
	if dep < 0 {
		return depNone
	}
	if dist := seq - dep; dist < depEscape {
		return uint16(dist)
	}
	c.escKey = append(c.escKey, escKeyOf(off, field))
	c.escVal = append(c.escVal, dep)
	return depEscape
}

// decodeDep recovers an absolute producer seq from a distance column.
func (c *recChunk) decodeDep(enc uint16, off, field int, seq int64) int64 {
	switch enc {
	case depNone:
		return -1
	case depEscape:
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

// sizeBytes is the heap/file footprint of the chunk's columns for its
// first n entries (n == recChunkSize except for the last chunk).
func (c *recChunk) sizeBytes(n int64) int64 {
	fixed := n * (4 + 4 + 2 + 2 + 2 + 2) // pcIdx, addr, dep1, dep2, prod, valIdx
	fixed += (n + 63) / 64 * 8           // taken bitmap
	return fixed + int64(len(c.vals))*8 + int64(len(c.escKey))*4 + int64(len(c.escVal))*8
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
// Storage is columnar (see recChunk): ~18-21 B/inst shared by all
// replays, unlike Trace, whose buffer is per-pipeline but stays
// proportional to the instruction window. A Recording can be
// serialized with WriteSealedTo and mapped back with OpenRecordingFile
// so separate processes share one on-disk copy per benchmark.
// Lock ordering: mu > chunksMu > lenMu. extend holds mu for the whole
// extension and takes chunksMu, then lenMu, strictly nested inside it;
// readers take chunksMu or lenMu alone and never mu — so no cycle is
// possible. Chunk *contents* are guarded by mu until the lenMu-published
// length covers them (immutable once visible), which is why readers can
// index chunks lock-free after snapshot.
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
// basis of the bytes/inst benchmark metric.
func (r *Recording) SizeBytes() int64 {
	r.lenMu.RLock()
	n := r.n
	r.lenMu.RUnlock()
	r.chunksMu.RLock()
	chunks := r.chunks
	r.chunksMu.RUnlock()
	var total int64
	for ci, c := range chunks {
		cn := n - int64(ci)<<recChunkShift
		if cn <= 0 {
			break
		}
		if cn > recChunkSize {
			cn = recChunkSize
		}
		total += c.sizeBytes(cn)
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
// length that covers it, so the returned slice always spans n.
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
// published length after the lock drops. The length is published only
// on chunk boundaries (or at program end), so readers never observe a
// chunk whose side tables are still growing.
func (r *Recording) extend(seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, done := r.length()
	for seq >= n && !done {
		ci, off := n>>recChunkShift, n&recChunkMask
		if off == 0 {
			r.chunksMu.Lock()
			r.chunks = append(r.chunks, newRecChunk())
			r.chunksMu.Unlock()
		}
		r.chunksMu.RLock()
		c := r.chunks[ci]
		r.chunksMu.RUnlock()
		// Fill the rest of the chunk (or stop at the program's end)
		// before publishing, so the length bump is amortized and the
		// chunk is immutable once visible.
		filled := off
		for ; filled < recChunkSize; filled++ {
			if !r.m.Step(&r.scratch) {
				done = true
				break
			}
			c.encode(int(filled&recChunkMask), &r.scratch)
		}
		n += filled - off
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
	idx := c.pcIdx[off]
	in := &rp.code[idx]
	d := &rp.scratch
	d.Seq = seq
	d.PC = prog.TextBase + idx*isa.InstBytes
	d.Inst = in
	d.Addr = c.addr[off]
	d.LoadVal, d.StoreVal, d.OldVal = 0, 0, 0
	switch {
	case in.Op.IsLoad():
		d.LoadVal = c.vals[c.valIdx[off]]
	case in.Op.IsStore():
		vi := c.valIdx[off]
		d.StoreVal, d.OldVal = c.vals[vi], c.vals[vi+1]
	}
	d.Dep1Seq = c.decodeDep(c.dep1[off], off, escDep1, seq)
	d.Dep2Seq = c.decodeDep(c.dep2[off], off, escDep2, seq)
	d.ProducerSeq = c.decodeDep(c.prod[off], off, escProd, seq)
	d.Taken = c.taken[off>>6]>>(uint(off)&63)&1 != 0
	if next := seq + 1; next < rp.n {
		nc := rp.chunks[next>>recChunkShift]
		d.NextPC = prog.TextBase + nc.pcIdx[next&recChunkMask]*isa.InstBytes
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

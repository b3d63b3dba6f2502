package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"unsafe"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// Recording file format (version 2). All sections are little-endian and
// 8-byte aligned so a read-only mmap can be viewed in place as typed
// column slices — multiple mdserve worker processes then share one
// physical copy of each benchmark's recording through the page cache.
// There is one recording type. Record captures a stream whole, to a
// horizon or the program's end, and drops its machine; WriteSealedTo
// writes that capture; OpenRecordingFile returns a Recording whose
// chunks are views into the mapped file instead of copies out of a
// builder. Neither kind changes once it exists, and every replay
// decodes both alike. pcIdx is always 16-bit (prog.MaxInsts).
//
//	[0]  magic    "MDREC002"
//	[8]  n        int64   total instructions
//	[16] tailPC   uint32  NextPC of the last instruction
//	[20] flags    uint32  bit 0: recording is complete; bit 1: sealed prefix
//	[24] progHash uint64  fingerprint of the program the columns index
//	[32] nChunks  uint32
//	[36] pcBytes  uint32  width of a pcIdx entry: 2, the only width read
//	[40] reserved uint32  zero
//	[44] crc      uint32  CRC-32 (IEEE) of bytes [0,44) and [48,end)
//	[48] directory: per chunk {chunkLen, nLoads, nStores, nEsc} uint32
//	then per chunk, each section padded to 8 bytes (w = (chunkLen+63)/64):
//	     pcIdx[chunkLen]u16  dep1[chunkLen]u16  dep2[chunkLen]u8
//	     taken[w]u64  load[w]u64  store[w]u64  loadRank[w]u16
//	     storeRank[w]u16
//	     ldAddr[nLoads]u32  ldVal[nLoads]i64  ldProd[nLoads]u16
//	     stAddr[nStores]u32  stVal[nStores]i64  stOld[nStores]i64
//	     escKey[nEsc]u32  escVal[nEsc]i64
//
// Per instruction that is 5 B and 3 bits, plus 14 B per load and 20 B
// per store: about 12 B/inst over the suite. Files of other versions
// are refused as corrupt, so a cache directory re-captures them once.
//
// The CRC covers the header and everything after it, so a torn or
// truncated file — the analogue of a torn journal tail — fails
// verification at open instead of replaying garbage.
const (
	recMagic      = "MDREC002"
	recHeaderSize = 48
	recCRCOffset  = 44
	recDirEntry   = 16
	recFlagDone   = 1 << 0
	// recFlagPrefix marks a sealed prefix: the file covers the first n
	// instructions of a longer program. Replays past the seal fail
	// loudly (they would otherwise silently simulate a shorter program).
	recFlagPrefix = 1 << 1
	// recPCBytes is the header's pcIdx width. Programs have at most
	// prog.MaxInsts instructions, so the column is always 16-bit; the
	// word stays, and must read 2, so the files older builds wrote for
	// the suite still open.
	recPCBytes = 2
)

// recCRC is the checksum a recording file's header carries: the header
// up to the CRC field, then everything after the header.
func recCRC(data []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(data[:recCRCOffset]), crc32.IEEETable, data[recHeaderSize:])
}

// ErrCorruptRecording wraps any structural failure found while opening a
// recording file: bad magic, truncation, or a CRC mismatch. Callers
// (the experiment runner) treat it as "no usable cache file" and fall
// back to recording live.
var ErrCorruptRecording = errors.New("emu: corrupt recording file")

// ErrRecordingMismatch reports a structurally valid recording whose
// program fingerprint does not match the program being simulated.
var ErrRecordingMismatch = errors.New("emu: recording does not match program")

// hostLittleEndian reports whether typed views over the file bytes read
// back the values WriteSealedTo stored. The format is defined little-endian;
// big-endian hosts get a clean refusal instead of silent corruption.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// ProgramFingerprint hashes the static program (entry PC and every
// instruction) with FNV-1a — the identity under which recordings (and
// the checkpoint sets derived from them, internal/ckpt) are
// content-addressed on disk.
func ProgramFingerprint(p *prog.Program) uint64 { return progFingerprint(p) }

// progFingerprint hashes the static program (entry PC and every
// instruction) with FNV-1a so a recording can prove it indexes the same
// code table it was captured from.
func progFingerprint(p *prog.Program) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint32(buf[:4], p.Entry)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(p.Code)))
	h.Write(buf[:8])
	for i := range p.Code {
		in := &p.Code[i]
		buf[0], buf[1], buf[2], buf[3] = byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2)
		binary.LittleEndian.PutUint32(buf[4:8], in.Target)
		binary.LittleEndian.PutUint64(buf[8:16], uint64(in.Imm))
		h.Write(buf[:16])
	}
	return h.Sum64()
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// column is the element type of a recording column.
type column interface {
	uint8 | uint16 | uint32 | uint64 | int64
}

// asBytes views a column's backing array as raw bytes (no copy). Only
// valid on little-endian hosts.
func asBytes[T column](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// sections lists the chunk's payload sections in file order.
func (c *recChunk) sections() [][]byte {
	return [][]byte{
		asBytes(c.pc), asBytes(c.dep1), asBytes(c.dep2),
		asBytes(c.taken), asBytes(c.load), asBytes(c.store),
		asBytes(c.loadRank), asBytes(c.storeRank),
		asBytes(c.ldAddr), asBytes(c.ldVal), asBytes(c.ldProd),
		asBytes(c.stAddr), asBytes(c.stVal), asBytes(c.stOld),
		asBytes(c.escKey), asBytes(c.escVal),
	}
}

// WriteSealedTo serializes the recording in format version 2. A halted
// program is written whole; a prefix recorded to a horizon is sealed at
// its end (always a chunk boundary) and marked as a prefix, so replays
// that run past the seal panic instead of silently treating it as the
// program's end.
func (r *Recording) WriteSealedTo(w io.Writer) (int64, error) {
	flags := uint32(recFlagDone)
	if !r.done {
		flags |= recFlagPrefix
	}
	return writeRecording(w, r.fp, r.chunks, r.n, r.tail, flags)
}

func writeRecording(w io.Writer, fp uint64, chunks []*recChunk, n int64, tail uint32, flags uint32) (int64, error) {
	if !hostLittleEndian() {
		return 0, fmt.Errorf("emu: recording files require a little-endian host")
	}
	nChunks := len(chunks)
	if want := int((n + recChunkMask) >> recChunkShift); nChunks != want {
		return 0, fmt.Errorf("emu: recording has %d chunks, want %d for %d insts", nChunks, want, n)
	}

	// Header and directory, then the padded sections of every chunk.
	head := make([]byte, recHeaderSize+nChunks*recDirEntry)
	copy(head[:8], recMagic)
	binary.LittleEndian.PutUint64(head[8:], uint64(n))
	binary.LittleEndian.PutUint32(head[16:], tail)
	binary.LittleEndian.PutUint32(head[20:], flags)
	binary.LittleEndian.PutUint64(head[24:], fp)
	binary.LittleEndian.PutUint32(head[32:], uint32(nChunks))
	binary.LittleEndian.PutUint32(head[36:], recPCBytes)
	for ci, c := range chunks {
		e := head[recHeaderSize+ci*recDirEntry:]
		binary.LittleEndian.PutUint32(e, uint32(chunkLenOf(n, ci)))
		binary.LittleEndian.PutUint32(e[4:], uint32(len(c.ldAddr)))
		binary.LittleEndian.PutUint32(e[8:], uint32(len(c.stAddr)))
		binary.LittleEndian.PutUint32(e[12:], uint32(len(c.escKey)))
	}
	var zeros [8]byte
	payload := func(emit func([]byte)) {
		for _, c := range chunks {
			for _, s := range c.sections() {
				emit(s)
				if p := pad8(int64(len(s))) - int64(len(s)); p > 0 {
					emit(zeros[:p])
				}
			}
		}
	}
	crc := crc32.Update(crc32.ChecksumIEEE(head[:recCRCOffset]), crc32.IEEETable, head[recHeaderSize:])
	payload(func(b []byte) { crc = crc32.Update(crc, crc32.IEEETable, b) })
	binary.LittleEndian.PutUint32(head[recCRCOffset:], crc)

	cw := &countWriter{w: w}
	_, err := cw.Write(head)
	payload(func(b []byte) {
		if err == nil {
			_, err = cw.Write(b)
		}
	})
	return cw.n, err
}

func chunkLenOf(n int64, ci int) int64 {
	cn := n - int64(ci)<<recChunkShift
	if cn > recChunkSize {
		cn = recChunkSize
	}
	return cn
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Mmapped reports whether the recording is a memory-mapped file (as
// opposed to a capture, or a file the fallback read into memory).
func (r *Recording) Mmapped() bool { return r.mmapped }

// DropPages gives a mapped recording's resident pages back to the
// kernel while keeping the mapping: every replay cursor, open or new,
// stays valid and faults the pages it reads back in from the page
// cache. A batch calls it once it is done with a benchmark, so a
// sweep's resident recordings are those it is replaying, not every one
// it has opened. It does nothing for a capture, for a file the fallback
// read into memory, nor on platforms other than Linux.
func (r *Recording) DropPages() error {
	if !r.mmapped || len(r.data) == 0 {
		return nil
	}
	return dropPages(r.data)
}

// Close releases a mapped recording's mapping; it does nothing for a
// capture. Replay cursors of a mapped recording must not be used after
// Close.
func (r *Recording) Close() error {
	if r.unmap == nil {
		return nil
	}
	u := r.unmap
	r.unmap = nil
	r.data = nil
	r.chunks = nil
	return u()
}

// OpenRecordingFile maps path read-only and verifies it is a complete,
// uncorrupted recording of p. Structural damage (torn tail, flipped
// bits) returns an error wrapping ErrCorruptRecording; a recording of a
// different program returns one wrapping ErrRecordingMismatch.
func OpenRecordingFile(path string, p *prog.Program) (*Recording, error) {
	if !hostLittleEndian() {
		return nil, fmt.Errorf("emu: recording files require a little-endian host")
	}
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close() //md:errok read-only descriptor; the mapping outlives it and nothing was written
	st, err := file.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, mmapped, err := mapFile(file, st.Size())
	if err != nil {
		return nil, err
	}
	r, err := parseRecording(data, p)
	if err != nil {
		unmap() //md:errok teardown of a read-only mapping on an already-failing open; the parse error is the one reported
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.unmap = unmap
	r.mmapped = mmapped
	return r, nil
}

// parseRecording builds typed column views over the raw file bytes.
func parseRecording(data []byte, p *prog.Program) (*Recording, error) {
	if len(data) < recHeaderSize || string(data[:8]) != recMagic {
		return nil, fmt.Errorf("%w: bad magic or short header", ErrCorruptRecording)
	}
	n := int64(binary.LittleEndian.Uint64(data[8:]))
	tail := binary.LittleEndian.Uint32(data[16:])
	flags := binary.LittleEndian.Uint32(data[20:])
	hash := binary.LittleEndian.Uint64(data[24:])
	nChunks := int64(binary.LittleEndian.Uint32(data[32:]))
	pcBytes := binary.LittleEndian.Uint32(data[36:])
	reserved := binary.LittleEndian.Uint32(data[40:])
	if recCRC(data) != binary.LittleEndian.Uint32(data[recCRCOffset:]) {
		return nil, fmt.Errorf("%w: CRC mismatch (torn or truncated file?)", ErrCorruptRecording)
	}
	if flags&recFlagDone == 0 {
		return nil, fmt.Errorf("%w: recording not marked complete", ErrCorruptRecording)
	}
	if n < 0 || nChunks != (n+recChunkMask)>>recChunkShift || nChunks > int64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: inconsistent length (%d insts, %d chunks)", ErrCorruptRecording, n, nChunks)
	}
	if hash != progFingerprint(p) {
		return nil, fmt.Errorf("%w: program fingerprint %#x, file has %#x", ErrRecordingMismatch, progFingerprint(p), hash)
	}
	if pcBytes != recPCBytes || reserved != 0 {
		return nil, fmt.Errorf("%w: %d-byte pcIdx (reserved %#x), want %d bytes",
			ErrCorruptRecording, pcBytes, reserved, recPCBytes)
	}

	rest := data[recHeaderSize:]
	dirLen := nChunks * recDirEntry
	if int64(len(rest)) < dirLen {
		return nil, fmt.Errorf("%w: truncated directory", ErrCorruptRecording)
	}
	dir := rest[:dirLen]
	r := &Recording{n: n, tail: tail, code: p.Code, fp: hash, data: data,
		done: flags&recFlagPrefix == 0, chunks: make([]*recChunk, nChunks)}
	sr := &sectionReader{payload: rest[dirLen:]}
	kinds := opKinds(p.Code)
	for ci := int64(0); ci < nChunks; ci++ {
		e := dir[ci*recDirEntry:]
		chunkLen := int64(binary.LittleEndian.Uint32(e))
		nLoads := int64(binary.LittleEndian.Uint32(e[4:]))
		nStores := int64(binary.LittleEndian.Uint32(e[8:]))
		nEsc := int64(binary.LittleEndian.Uint32(e[12:]))
		if chunkLen != chunkLenOf(n, int(ci)) || nLoads+nStores > chunkLen || nEsc > 3*chunkLen {
			return nil, fmt.Errorf("%w: chunk %d directory out of range", ErrCorruptRecording, ci)
		}
		words := (chunkLen + 63) / 64
		c := &recChunk{}
		c.pc = view[uint16](sr, chunkLen)
		c.dep1 = view[uint16](sr, chunkLen)
		c.dep2 = view[uint8](sr, chunkLen)
		c.taken = view[uint64](sr, words)
		c.load = view[uint64](sr, words)
		c.store = view[uint64](sr, words)
		c.loadRank = view[uint16](sr, words)
		c.storeRank = view[uint16](sr, words)
		c.ldAddr = view[uint32](sr, nLoads)
		c.ldVal = view[int64](sr, nLoads)
		c.ldProd = view[uint16](sr, nLoads)
		c.stAddr = view[uint32](sr, nStores)
		c.stVal = view[int64](sr, nStores)
		c.stOld = view[int64](sr, nStores)
		c.escKey = view[uint32](sr, nEsc)
		c.escVal = view[int64](sr, nEsc)
		if sr.err != nil {
			return nil, fmt.Errorf("%w: chunk %d: %v", ErrCorruptRecording, ci, sr.err)
		}
		if err := c.check(ci<<recChunkShift, int(chunkLen), kinds); err != nil {
			return nil, fmt.Errorf("%w: chunk %d: %v", ErrCorruptRecording, ci, err)
		}
		r.chunks[ci] = c
	}
	if sr.off != int64(len(sr.payload)) {
		return nil, fmt.Errorf("%w: payload is %d bytes, its chunks span %d", ErrCorruptRecording, len(sr.payload), sr.off)
	}
	return r, nil
}

// Per static instruction, the bitmaps its dynamic instances may set,
// as bit positions of opKinds' entries.
const (
	kindLoad = iota
	kindStore
	kindBranch
)

// opKinds classifies each instruction of the code table for check.
func opKinds(code []isa.Inst) []uint8 {
	kinds := make([]uint8, len(code))
	for i := range code {
		switch op := code[i].Op; {
		case op.IsLoad():
			kinds[i] = 1 << kindLoad
		case op.IsStore():
			kinds[i] = 1 << kindStore
		case op.IsBranch():
			kinds[i] = 1 << kindBranch
		}
	}
	return kinds
}

// check validates a chunk of n instructions read from a file, whose
// first entry is instruction base; kinds is opKinds of the code table.
// A stale or hand-edited file that passes the CRC must still not index
// out of bounds at replay, nor name a producer that is not strictly
// older than its consumer, which would park the consumer until the
// watchdog fires. So: every pcIdx lies inside the code table; the load
// and store bitmaps are exactly the instructions whose opcode loads or
// stores, and only a branch is taken; each rank counts the bits before
// its word, and the side tables hold one entry per bit; every escaped
// distance has its escape-table key, the table holds exactly those
// keys, strictly ascending, and every producer is older than its
// consumer.
func (c *recChunk) check(base int64, n int, kinds []uint8) error {
	var loads, stores int
	for w := range c.load {
		var ld, st, br uint64
		for off := w * 64; off < min(n, w*64+64); off++ {
			idx := c.pc[off]
			if int(idx) >= len(kinds) {
				return fmt.Errorf("pcIdx[%d] = %d outside code table", off, idx)
			}
			k, b := uint64(kinds[idx]), uint(off)&63
			ld |= k >> kindLoad & 1 << b
			st |= k >> kindStore & 1 << b
			br |= k >> kindBranch & 1 << b
		}
		if c.load[w] != ld || c.store[w] != st || c.taken[w]&^br != 0 {
			return fmt.Errorf("bitmap word %d disagrees with the opcodes", w)
		}
		if int(c.loadRank[w]) != loads || int(c.storeRank[w]) != stores {
			return fmt.Errorf("rank of bitmap word %d is %d/%d, want %d/%d", w, c.loadRank[w], c.storeRank[w], loads, stores)
		}
		loads += bits.OnesCount64(ld)
		stores += bits.OnesCount64(st)
	}
	if loads != len(c.ldAddr) || stores != len(c.stAddr) {
		return fmt.Errorf("side tables hold %d loads and %d stores, bitmaps %d and %d", len(c.ldAddr), len(c.stAddr), loads, stores)
	}

	for i := 1; i < len(c.escKey); i++ {
		if c.escKey[i] <= c.escKey[i-1] {
			return fmt.Errorf("escape-table keys not strictly ascending at %d", i)
		}
	}
	// depNone and distances up to seq name strictly older producers;
	// anything else is an escape or out of range.
	escaped := 0
	for off := range n {
		seq := base + int64(off)
		if d := c.dep1[off]; d == dep16Escape || int64(d) > seq {
			if err := c.checkEscape(d == dep16Escape, int64(d), seq, off, escDep1); err != nil {
				return err
			}
			escaped++
		}
		if d := c.dep2[off]; d == dep8Escape || int64(d) > seq {
			if err := c.checkEscape(d == dep8Escape, int64(d), seq, off, escDep2); err != nil {
				return err
			}
			escaped++
		}
	}
	k := 0
	for w, word := range c.load {
		for ; word != 0; word &= word - 1 {
			off := w*64 + bits.TrailingZeros64(word)
			seq := base + int64(off)
			if d := c.ldProd[k]; d == dep16Escape || int64(d) > seq {
				if err := c.checkEscape(d == dep16Escape, int64(d), seq, off, escProd); err != nil {
					return err
				}
				escaped++
			}
			k++
		}
	}
	if escaped != len(c.escKey) {
		return fmt.Errorf("%d escape-table keys for %d escaped dependences", len(c.escKey), escaped)
	}
	return nil
}

// checkEscape checks distance-column entry d of field for instruction
// seq, at offset off, that is an escape or reaches before seq 0: an
// escape must have its key in the escape table, naming an older
// producer.
func (c *recChunk) checkEscape(escape bool, d, seq int64, off, field int) error {
	if !escape {
		return fmt.Errorf("seq %d: dependence %d reaches back %d instructions", seq, field, d)
	}
	i, ok := slices.BinarySearch(c.escKey, escKeyOf(off, field))
	if !ok {
		return fmt.Errorf("seq %d: escaped dependence %d has no escape-table key", seq, field)
	}
	if v := c.escVal[i]; v < 0 || v >= seq {
		return fmt.Errorf("seq %d: escaped dependence %d names seq %d", seq, field, v)
	}
	return nil
}

// readFileAligned is the no-mmap fallback: the file is copied into a
// uint64-backed buffer so the typed column views stay 8-byte aligned.
func readFileAligned(f *os.File, size int64) ([]byte, func() error, bool, error) {
	if size == 0 {
		return nil, func() error { return nil }, false, nil
	}
	words := make([]uint64, (size+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, nil, false, err
	}
	return data, func() error { return nil }, false, nil
}

// sectionReader carves aligned typed views out of the payload in file
// order, remembering the first failure.
type sectionReader struct {
	payload []byte
	off     int64
	err     error
}

func (s *sectionReader) raw(size int64) []byte {
	if s.err != nil {
		return nil
	}
	end := s.off + size
	if size < 0 || end > int64(len(s.payload)) {
		s.err = fmt.Errorf("section [%d,%d) outside payload of %d bytes", s.off, end, len(s.payload))
		return nil
	}
	b := s.payload[s.off:end:end]
	s.off = pad8(end)
	return b
}

// view carves the next section as count elements of T.
func view[T column](s *sectionReader, count int64) []T {
	var zero T
	b := s.raw(count * int64(unsafe.Sizeof(zero)))
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), count)
}

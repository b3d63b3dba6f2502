package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// Recording file format (version 1). All sections are little-endian and
// 8-byte aligned so a read-only mmap can be viewed in place as typed
// column slices — multiple mdserve worker processes then share one
// physical copy of each benchmark's recording through the page cache.
//
//	[0]  magic   "MDREC001"
//	[8]  n       int64    total instructions
//	[16] tailPC  uint32   NextPC of the last instruction
//	[20] flags   uint32   bit 0: recording is complete
//	[24] progHash uint64  fingerprint of the program the columns index
//	[32] nChunks uint32
//	[36] crc     uint32   CRC-32 (IEEE) of directory+payload
//	[40] directory: per chunk {chunkLen, nVals, nEsc} uint32, padded to 8
//	then per chunk, each section padded to 8 bytes:
//	     pcIdx[chunkLen]u32  addr[chunkLen]u32  dep1[chunkLen]u16
//	     dep2[chunkLen]u16   prod[chunkLen]u16  valIdx[chunkLen]u16
//	     taken[(chunkLen+63)/64]u64  vals[nVals]i64
//	     escKey[nEsc]u32  escVal[nEsc]i64
//
// The CRC covers everything after the header, so a torn or truncated
// file — the analogue of a torn journal tail — fails verification at
// open instead of replaying garbage.
const (
	recMagic      = "MDREC001"
	recHeaderSize = 40
	recFlagDone   = 1 << 0
	// recFlagPrefix marks a sealed prefix: the file covers the first n
	// instructions of a longer program. Replays past the seal fail
	// loudly (they would otherwise silently simulate a shorter program).
	recFlagPrefix = 1 << 1
)

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

// u32Bytes / u16Bytes / u64Bytes / i64Bytes view a column's backing
// array as raw bytes (no copy). Only valid on little-endian hosts.
func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func u16Bytes(s []uint16) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*2)
}

func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func i64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// chunkSections lists one chunk's payload sections in file order.
func (c *recChunk) sections(chunkLen int64) [][]byte {
	tw := (chunkLen + 63) / 64
	return [][]byte{
		u32Bytes(c.pcIdx[:chunkLen]),
		u32Bytes(c.addr[:chunkLen]),
		u16Bytes(c.dep1[:chunkLen]),
		u16Bytes(c.dep2[:chunkLen]),
		u16Bytes(c.prod[:chunkLen]),
		u16Bytes(c.valIdx[:chunkLen]),
		u64Bytes(c.taken[:tw]),
		i64Bytes(c.vals),
		u32Bytes(c.escKey),
		i64Bytes(c.escVal),
	}
}

// WriteSealedTo serializes whatever has been recorded so far in format
// version 1. A halted recording is written whole; an unfinished one is
// sealed at its current frontier (always a chunk boundary) and marked
// as a prefix, so replays that run past the seal panic instead of
// silently treating it as the program's end. Callers pre-extend with
// Record to the horizon their consumers replay.
func (r *Recording) WriteSealedTo(w io.Writer) (int64, error) {
	chunks, n, tail, done := r.snapshot()
	flags := uint32(recFlagDone)
	if !done {
		flags |= recFlagPrefix
	}
	return writeRecording(w, r.fp, chunks, n, tail, flags)
}

func writeRecording(w io.Writer, fp uint64, chunks []*recChunk, n int64, tail uint32, flags uint32) (int64, error) {
	if !hostLittleEndian() {
		return 0, fmt.Errorf("emu: recording files require a little-endian host")
	}
	nChunks := len(chunks)
	if want := int((n + recChunkMask) >> recChunkShift); nChunks != want {
		return 0, fmt.Errorf("emu: recording has %d chunks, want %d for %d insts", nChunks, want, n)
	}

	// Directory.
	dir := make([]byte, pad8(int64(nChunks)*12))
	for ci, c := range chunks {
		cn := chunkLenOf(n, ci)
		binary.LittleEndian.PutUint32(dir[ci*12:], uint32(cn))
		binary.LittleEndian.PutUint32(dir[ci*12+4:], uint32(len(c.vals)))
		binary.LittleEndian.PutUint32(dir[ci*12+8:], uint32(len(c.escKey)))
	}

	// CRC over directory + payload (sections with their padding).
	crc := crc32.NewIEEE()
	crc.Write(dir)
	var zeros [8]byte
	for ci, c := range chunks {
		for _, s := range c.sections(chunkLenOf(n, ci)) {
			crc.Write(s)
			if p := pad8(int64(len(s))) - int64(len(s)); p > 0 {
				crc.Write(zeros[:p])
			}
		}
	}

	var hdr [recHeaderSize]byte
	copy(hdr[:8], recMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	binary.LittleEndian.PutUint32(hdr[16:], tail)
	binary.LittleEndian.PutUint32(hdr[20:], flags)
	binary.LittleEndian.PutUint64(hdr[24:], fp)
	binary.LittleEndian.PutUint32(hdr[32:], uint32(nChunks))
	binary.LittleEndian.PutUint32(hdr[36:], crc.Sum32())

	cw := &countWriter{w: w}
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write(dir); err != nil {
		return cw.n, err
	}
	for ci, c := range chunks {
		for _, s := range c.sections(chunkLenOf(n, ci)) {
			if _, err := cw.Write(s); err != nil {
				return cw.n, err
			}
			if p := pad8(int64(len(s))) - int64(len(s)); p > 0 {
				if _, err := cw.Write(zeros[:p]); err != nil {
					return cw.n, err
				}
			}
		}
	}
	return cw.n, nil
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

// FileRecording is a read-only recording backed by a mapped (or loaded)
// recording file. Its replay cursors decode straight out of the mapped
// columns; concurrent worker processes opening the same file share the
// pages. It implements ReplaySource next to the live *Recording.
type FileRecording struct {
	chunks []*recChunk
	n      int64
	tail   uint32
	code   []isa.Inst
	fp     uint64 // ProgramFingerprint of the recorded program
	prefix bool   // sealed prefix of a longer program

	data    []byte // backing bytes; keeps the mapping alive
	unmap   func() error
	mmapped bool
}

// Prefix reports whether the file is a sealed prefix (recorded to a
// horizon) rather than a whole halted program.
func (f *FileRecording) Prefix() bool { return f.prefix }

// Len returns the recorded program length.
func (f *FileRecording) Len() int64 { return f.n }

// Fingerprint returns the ProgramFingerprint of the recorded program.
func (f *FileRecording) Fingerprint() uint64 { return f.fp }

// SizeBytes returns the byte size of the mapped column payload.
func (f *FileRecording) SizeBytes() int64 { return int64(len(f.data)) }

// Mmapped reports whether the file is memory-mapped (as opposed to read
// into private memory by the fallback path).
func (f *FileRecording) Mmapped() bool { return f.mmapped }

// NewReplay returns a replay cursor over the mapped recording. The
// cursor's snapshot is the whole file: file recordings are complete by
// construction, so the cursor never refreshes or extends.
func (f *FileRecording) NewReplay() *Replay {
	return &Replay{chunks: f.chunks, n: f.n, tail: f.tail, done: true, sealed: f.prefix, code: f.code, cur: -1}
}

// DropPages gives the mapping's resident pages back to the kernel while
// keeping the mapping: every replay cursor, open or new, stays valid and
// faults the pages it reads back in from the page cache. A batch calls
// it once it is done with a benchmark, so a sweep's resident recordings
// are those it is replaying, not every one it has opened. It does
// nothing for a file the fallback read into memory, nor on platforms
// other than Linux.
func (f *FileRecording) DropPages() error {
	if !f.mmapped || len(f.data) == 0 {
		return nil
	}
	return dropPages(f.data)
}

// Close releases the mapping. Replay cursors must not be used after
// Close.
func (f *FileRecording) Close() error {
	if f.unmap == nil {
		return nil
	}
	u := f.unmap
	f.unmap = nil
	f.data = nil
	f.chunks = nil
	return u()
}

// OpenRecordingFile maps path read-only and verifies it is a complete,
// uncorrupted recording of p. Structural damage (torn tail, flipped
// bits) returns an error wrapping ErrCorruptRecording; a recording of a
// different program returns one wrapping ErrRecordingMismatch.
func OpenRecordingFile(path string, p *prog.Program) (*FileRecording, error) {
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
	f, err := parseRecording(data, p)
	if err != nil {
		unmap() //md:errok teardown of a read-only mapping on an already-failing open; the parse error is the one reported
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	f.unmap = unmap
	f.mmapped = mmapped
	return f, nil
}

// parseRecording builds typed column views over the raw file bytes.
func parseRecording(data []byte, p *prog.Program) (*FileRecording, error) {
	if len(data) < recHeaderSize || string(data[:8]) != recMagic {
		return nil, fmt.Errorf("%w: bad magic or short header", ErrCorruptRecording)
	}
	n := int64(binary.LittleEndian.Uint64(data[8:]))
	tail := binary.LittleEndian.Uint32(data[16:])
	flags := binary.LittleEndian.Uint32(data[20:])
	hash := binary.LittleEndian.Uint64(data[24:])
	nChunks := int64(binary.LittleEndian.Uint32(data[32:]))
	wantCRC := binary.LittleEndian.Uint32(data[36:])
	if flags&recFlagDone == 0 {
		return nil, fmt.Errorf("%w: recording not marked complete", ErrCorruptRecording)
	}
	if n < 0 || nChunks != (n+recChunkMask)>>recChunkShift || nChunks > int64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: inconsistent length (%d insts, %d chunks)", ErrCorruptRecording, n, nChunks)
	}
	rest := data[recHeaderSize:]
	if crc32.ChecksumIEEE(rest) != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (torn or truncated file?)", ErrCorruptRecording)
	}
	if hash != progFingerprint(p) {
		return nil, fmt.Errorf("%w: program fingerprint %#x, file has %#x", ErrRecordingMismatch, progFingerprint(p), hash)
	}

	dirLen := pad8(nChunks * 12)
	if int64(len(rest)) < dirLen {
		return nil, fmt.Errorf("%w: truncated directory", ErrCorruptRecording)
	}
	dir, payload := rest[:dirLen], rest[dirLen:]
	f := &FileRecording{n: n, tail: tail, code: p.Code, fp: hash, data: data,
		prefix: flags&recFlagPrefix != 0, chunks: make([]*recChunk, nChunks)}
	sr := &sectionReader{payload: payload}
	// valsRead[i] is how many value-table entries decode reads for
	// instruction i of the code table.
	valsRead := make([]uint8, len(p.Code))
	for i := range p.Code {
		switch op := p.Code[i].Op; {
		case op.IsLoad():
			valsRead[i] = 1
		case op.IsStore():
			valsRead[i] = 2
		}
	}
	for ci := int64(0); ci < nChunks; ci++ {
		chunkLen := int64(binary.LittleEndian.Uint32(dir[ci*12:]))
		nVals := int64(binary.LittleEndian.Uint32(dir[ci*12+4:]))
		nEsc := int64(binary.LittleEndian.Uint32(dir[ci*12+8:]))
		if chunkLen != chunkLenOf(n, int(ci)) || nVals > 2*chunkLen || nEsc > 3*chunkLen {
			return nil, fmt.Errorf("%w: chunk %d directory out of range", ErrCorruptRecording, ci)
		}
		c := &recChunk{}
		c.pcIdx = sr.u32(chunkLen)
		c.addr = sr.u32(chunkLen)
		c.dep1 = sr.u16(chunkLen)
		c.dep2 = sr.u16(chunkLen)
		c.prod = sr.u16(chunkLen)
		c.valIdx = sr.u16(chunkLen)
		c.taken = sr.u64((chunkLen + 63) / 64)
		c.vals = sr.i64(nVals)
		c.escKey = sr.u32(nEsc)
		c.escVal = sr.i64(nEsc)
		if sr.err != nil {
			return nil, fmt.Errorf("%w: chunk %d: %v", ErrCorruptRecording, ci, sr.err)
		}
		if err := c.check(ci<<recChunkShift, valsRead); err != nil {
			return nil, fmt.Errorf("%w: chunk %d: %v", ErrCorruptRecording, ci, err)
		}
		f.chunks[ci] = c
	}
	return f, nil
}

// check validates a chunk read from a file, whose first entry is
// instruction base, in one pass over each column; valsRead is indexed
// like the code table. A stale or hand-edited file that passes the CRC
// must still not index out of bounds at replay (every pcIdx inside the
// code table, every load's and store's values inside the value table,
// every escaped dependence with its escape-table key), nor name a
// producer that is not strictly older than its consumer, which would
// park the consumer until the watchdog fires. The escape table must hold
// exactly the escaped entries' keys, strictly ascending.
func (c *recChunk) check(base int64, valsRead []uint8) error {
	nVals := int64(len(c.vals))
	valIdx := c.valIdx[:len(c.pcIdx)]
	for off, idx := range c.pcIdx {
		if int(idx) >= len(valsRead) {
			return fmt.Errorf("pcIdx[%d] = %d outside code table", off, idx)
		}
		if vi := int64(valIdx[off]); vi+int64(valsRead[idx]) > nVals {
			return fmt.Errorf("valIdx[%d] = %d needs %d values, chunk has %d", off, vi, valsRead[idx], nVals)
		}
	}
	for i := 1; i < len(c.escKey); i++ {
		if c.escKey[i] <= c.escKey[i-1] {
			return fmt.Errorf("escape-table keys not strictly ascending at %d", i)
		}
	}
	escaped := 0
	for field, col := range [...][]uint16{escDep1: c.dep1, escDep2: c.dep2, escProd: c.prod} {
		for off, enc := range col {
			// depNone and distances up to seq name strictly older
			// producers; anything else is an escape or out of range.
			seq := base + int64(off)
			if enc != depEscape && int64(enc) <= seq {
				continue
			}
			if enc != depEscape {
				return fmt.Errorf("seq %d: dependence %d reaches back %d instructions", seq, field, enc)
			}
			i, ok := slices.BinarySearch(c.escKey, escKeyOf(off, field))
			if !ok {
				return fmt.Errorf("seq %d: escaped dependence %d has no escape-table key", seq, field)
			}
			if v := c.escVal[i]; v < 0 || v >= seq {
				return fmt.Errorf("seq %d: escaped dependence %d names seq %d", seq, field, v)
			}
			escaped++
		}
	}
	if escaped != len(c.escKey) {
		return fmt.Errorf("%d escape-table keys for %d escaped dependences", len(c.escKey), escaped)
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

func (s *sectionReader) u32(count int64) []uint32 {
	b := s.raw(count * 4)
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), count)
}

func (s *sectionReader) u16(count int64) []uint16 {
	b := s.raw(count * 2)
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), count)
}

func (s *sectionReader) u64(count int64) []uint64 {
	b := s.raw(count * 8)
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), count)
}

func (s *sectionReader) i64(count int64) []int64 {
	b := s.raw(count * 8)
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), count)
}

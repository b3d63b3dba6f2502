package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// compareStreams replays both streams in lockstep and fails on the
// first differing record. It returns the common length.
func compareStreams(t *testing.T, label string, want, got Stream, limit int64) int64 {
	t.Helper()
	var n int64
	for ; limit <= 0 || n < limit; n++ {
		w := want.At(n)
		g := got.At(n)
		if (w == nil) != (g == nil) {
			t.Fatalf("%s: seq %d: want nil=%v, got nil=%v", label, n, w == nil, g == nil)
		}
		if w == nil {
			break
		}
		if !reflect.DeepEqual(*w, *g) {
			t.Fatalf("%s: seq %d:\nwant %+v\ngot  %+v", label, n, *w, *g)
		}
		want.Release(n - 64)
	}
	return n
}

// escapeProgram builds a stream whose register and memory dependences
// span more than 2^16 dynamic instructions, forcing the uint16 distance
// columns through the escape side table, and one whose second register
// source lies a few hundred instructions back, past the uint8 dep2
// column.
func escapeProgram() *prog.Program {
	b := prog.NewBuilder()
	arena := b.AllocAligned(8, 64)
	b.Li(isa.R1, int64(arena)) // R1 written once, read ~140k insts later
	b.Li(isa.R9, 7)
	b.Sw(isa.R9, isa.R1, 0) // producer store, ~140k insts before the load
	b.Li(isa.R2, 70_000)
	b.Label("spin")
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "spin")
	b.Lw(isa.R3, isa.R1, 0) // Dep1Seq (R1) and ProducerSeq both escape
	b.Sw(isa.R3, isa.R1, 0) // Dep2Seq short, Dep1Seq (R1) escapes
	b.Li(isa.R2, 200)
	b.Label("short")
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "short")
	b.Add(isa.R4, isa.R2, isa.R3) // Dep2Seq (R3) ~400 back: escapes dep2 only
	b.Halt()
	return b.MustProgram()
}

func TestColumnarEscapeDistances(t *testing.T) {
	p := escapeProgram()
	tr := NewTrace(New(p))
	rec := NewRecording(New(p))
	rec.Record(1 << 22)
	n := compareStreams(t, "escape", tr, rec.NewReplay(), 0)
	// The point of the program is to exercise the escape table in every
	// distance column; make sure it actually did.
	var escapes [3]int
	shortDep2 := false
	for ci, c := range rec.chunks {
		for i, key := range c.escKey {
			field := key & 3
			escapes[field]++
			seq := int64(ci)<<recChunkShift + int64(key>>2)
			if field == escDep2 && seq-c.escVal[i] < dep16Escape {
				shortDep2 = true
			}
		}
	}
	if escapes[escDep1] == 0 || escapes[escDep2] == 0 || escapes[escProd] == 0 || !shortDep2 {
		t.Fatalf("escapeProgram recorded %d insts with escapes %v (dep1, dep2, producer), 8-bit-only dep2 escape %v",
			n, escapes, shortDep2)
	}
}

// recordToFile records the whole program and serializes it.
func recordToFile(t testing.TB, p *prog.Program, path string) *Recording {
	t.Helper()
	rec := NewRecording(New(p))
	rec.Record(1 << 22)
	if rec.Prefix() {
		t.Fatalf("program did not halt within the recording bound")
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.WriteSealedTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecordingFileRoundTrip serializes a complete recording, maps it
// back, and requires the mapped replay to match a direct Trace record
// for record — including the escape table and the frontier NextPC.
func TestRecordingFileRoundTrip(t *testing.T) {
	// maxBPI bounds the file's bytes per instruction. The loop is a
	// load and a store in every five instructions, denser in memory
	// operations than the suite.
	for _, tc := range []struct {
		name   string
		prog   *prog.Program
		maxBPI float64
	}{
		{"loop", loopProgram(3000), 13},
		{"escape", escapeProgram(), 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.mdrec")
			rec := recordToFile(t, tc.prog, path)
			fr, err := OpenRecordingFile(path, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close()
			if fr.Len() != rec.Len() {
				t.Fatalf("mapped Len() = %d, recording has %d", fr.Len(), rec.Len())
			}
			n := compareStreams(t, tc.name, NewTrace(New(tc.prog)), fr.NewReplay(), 0)
			if n != rec.Len() {
				t.Fatalf("mapped replay ended at %d, want %d", n, rec.Len())
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint32(blob[36:]); got != 2 {
				t.Errorf("header names %d-byte pcIdx, want 2", got)
			}
			bpi := float64(len(blob)) / float64(n)
			t.Logf("%.2f bytes/inst", bpi)
			if bpi > tc.maxBPI {
				t.Errorf("recording file costs %.1f bytes/inst, want <= %.0f", bpi, tc.maxBPI)
			}
		})
	}
}

// TestRecordingFileRejectsDamage mirrors the journal's torn-tail
// handling: a truncated or bit-flipped recording file must fail to open
// with ErrCorruptRecording (never replay garbage), and a recording of a
// different program must be rejected as a mismatch.
func TestRecordingFileRejectsDamage(t *testing.T) {
	p := loopProgram(3000)
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.mdrec")
	recordToFile(t, p, path)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	write := func(t *testing.T, b []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "damaged.mdrec")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("torn-tail", func(t *testing.T) {
		for _, keep := range []int{len(blob) - 1, len(blob) / 2, recHeaderSize + 4, recHeaderSize, 10, 0} {
			if _, err := OpenRecordingFile(write(t, blob[:keep]), p); !errors.Is(err, ErrCorruptRecording) {
				t.Errorf("truncated to %d bytes: err = %v, want ErrCorruptRecording", keep, err)
			}
		}
	})
	t.Run("bit-flip", func(t *testing.T) {
		// 9 and 17 are in the header's length and tail PC.
		for _, pos := range []int{9, 17, recHeaderSize + 1, len(blob) / 2, len(blob) - 2} {
			mut := bytes.Clone(blob)
			mut[pos] ^= 0x40
			if _, err := OpenRecordingFile(write(t, mut), p); !errors.Is(err, ErrCorruptRecording) {
				t.Errorf("flip at %d: err = %v, want ErrCorruptRecording", pos, err)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		mut := bytes.Clone(blob)
		mut[0] = 'X'
		if _, err := OpenRecordingFile(write(t, mut), p); !errors.Is(err, ErrCorruptRecording) {
			t.Errorf("bad magic: err = %v, want ErrCorruptRecording", err)
		}
	})
	t.Run("wrong-pc-width", func(t *testing.T) {
		mut := bytes.Clone(blob)
		binary.LittleEndian.PutUint32(mut[36:], 4)
		binary.LittleEndian.PutUint32(mut[recCRCOffset:], recCRC(mut))
		if _, err := OpenRecordingFile(write(t, mut), p); !errors.Is(err, ErrCorruptRecording) {
			t.Errorf("32-bit pcIdx for a small program: err = %v, want ErrCorruptRecording", err)
		}
	})
	t.Run("wrong-program", func(t *testing.T) {
		other := loopProgram(2999)
		if _, err := OpenRecordingFile(path, other); !errors.Is(err, ErrRecordingMismatch) {
			t.Errorf("wrong program: err = %v, want ErrRecordingMismatch", err)
		}
	})
}

// TestRecordingEndsAtChunkBoundary records a program that halts after
// exactly one chunk of instructions. Reading past its end must not
// leave an empty chunk behind: the file writer counts chunks by length,
// and refused to write a recording that had one.
func TestRecordingEndsAtChunkBoundary(t *testing.T) {
	b := prog.NewBuilder()
	for range recChunkSize - 1 {
		b.Nop()
	}
	b.Halt()
	p := b.MustProgram()
	path := filepath.Join(t.TempDir(), "boundary.mdrec")
	rec := recordToFile(t, p, path)
	if rec.Len() != recChunkSize || len(rec.chunks) != 1 {
		t.Fatalf("recorded %d insts in %d chunks, want %d in 1", rec.Len(), len(rec.chunks), recChunkSize)
	}
	fr, err := OpenRecordingFile(path, p)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	compareStreams(t, "boundary", NewTrace(New(p)), fr.NewReplay(), 0)
}

// TestRecordingFileRefusesVersion1 opens a version-1 file of
// loopProgram(60), as the previous build wrote it: it is refused as
// corrupt, which sends a recording cache to re-capture it.
func TestRecordingFileRefusesVersion1(t *testing.T) {
	fr, err := OpenRecordingFile(filepath.Join("testdata", "loop60.mdrec001"), loopProgram(60))
	if err == nil {
		fr.Close()
		t.Fatal("a version-1 file opened")
	}
	if !errors.Is(err, ErrCorruptRecording) {
		t.Fatalf("err = %v, want ErrCorruptRecording", err)
	}
}

// TestSealedPrefixRecording pins the sealed-prefix mode used by the
// runner's on-disk cache: a recording sealed mid-program replays
// identically inside the seal, and a read past the seal panics loudly
// instead of masquerading as the program's end, the same panic whether
// the recording was captured or mapped from its file.
func TestSealedPrefixRecording(t *testing.T) {
	p := loopProgram(100_000) // far longer than the sealed horizon
	rec := NewRecording(New(p))
	rec.Record(10_000)
	path := filepath.Join(t.TempDir(), "prefix.mdrec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.WriteSealedTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := OpenRecordingFile(path, p)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if !fr.Prefix() || !rec.Prefix() {
		t.Fatalf("prefix: mapped %v, captured %v; want both", fr.Prefix(), rec.Prefix())
	}
	if fr.Len() < 10_000 || fr.Len() != rec.Len() {
		t.Fatalf("sealed at %d, captured %d; want equal and >= 10000", fr.Len(), rec.Len())
	}
	compareStreams(t, "prefix", NewTrace(New(p)), fr.NewReplay(), fr.Len())

	pastSeal := func(r *Recording) (v any) {
		defer func() { v = recover() }()
		r.NewReplay().At(r.Len())
		return nil
	}
	mapped, captured := pastSeal(fr), pastSeal(rec)
	if mapped == nil || captured == nil {
		t.Fatalf("reading past the seal: mapped panicked with %v, captured with %v; want a panic from both", mapped, captured)
	}
	if mapped != captured {
		t.Errorf("past the seal the mapped recording panics with %q, the captured one with %q", mapped, captured)
	}
}

// firstOf returns the offset of the first instruction in chunk c whose
// opcode satisfies is.
func firstOf(t testing.TB, c *recChunk, code []isa.Inst, is func(isa.Op) bool) int {
	t.Helper()
	for off := range c.dep1 {
		if is(code[c.pc[off]].Op) {
			return off
		}
	}
	t.Fatal("no matching instruction in the chunk")
	return 0
}

func isALU(op isa.Op) bool { return !op.IsMem() && !op.IsBranch() }

// flip toggles the bit of instruction off in bitmap.
func flip(bitmap []uint64, off int) { bitmap[off>>6] ^= 1 << (uint(off) & 63) }

// badColumns are mutations of a recording's first chunk that a file
// with a valid CRC can carry, one or more per section. Each must fail
// at open: it would index out of bounds at replay, decode another
// instruction's memory fields, or name a producer that is not older
// than its consumer.
var badColumns = []struct {
	name   string
	mutate func(t testing.TB, c *recChunk, code []isa.Inst)
}{
	{"pcIdx-outside-code", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.pc[5] = uint16(len(code))
	}},
	{"load-bit-on-alu", func(t testing.TB, c *recChunk, code []isa.Inst) {
		flip(c.load, firstOf(t, c, code, isALU))
	}},
	{"store-bit-missing", func(t testing.TB, c *recChunk, code []isa.Inst) {
		flip(c.store, firstOf(t, c, code, isa.Op.IsStore))
	}},
	{"load-bit-past-end", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.load[len(c.load)-1] |= 1 << 63
	}},
	{"taken-alu", func(t testing.TB, c *recChunk, code []isa.Inst) {
		flip(c.taken, firstOf(t, c, code, isALU))
	}},
	{"load-rank-off", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.loadRank[1]++
	}},
	{"store-rank-off", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.storeRank[2]--
	}},
	{"store-rank-past-table", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.storeRank[len(c.storeRank)-1]++ // the last store's ordinal is the table's length
	}},
	{"load-table-short", func(t testing.TB, c *recChunk, code []isa.Inst) { // the last load's ordinal is past the table
		k := len(c.ldAddr) - 1
		c.ldAddr, c.ldVal, c.ldProd = c.ldAddr[:k], c.ldVal[:k], c.ldProd[:k]
	}},
	{"store-table-long", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.stAddr, c.stVal, c.stOld = append(c.stAddr, 8), append(c.stVal, 1), append(c.stOld, 2)
	}},
	{"escape-without-key", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.dep1[7] = dep16Escape
	}},
	{"dep2-escape-without-key", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.dep2[8] = dep8Escape
	}},
	{"distance-before-seq-0", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.dep2[3] = 5 // seq 3 - 5 = -2
	}},
	{"producer-before-seq-0", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.ldProd[0] = uint16(firstOf(t, c, code, isa.Op.IsLoad) + 1)
	}},
	{"escaped-producer-not-older", func(t testing.TB, c *recChunk, code []isa.Inst) {
		off := firstOf(t, c, code, isa.Op.IsLoad)
		c.ldProd[0] = dep16Escape
		c.escKey, c.escVal = []uint32{escKeyOf(off, escProd)}, []int64{int64(off)}
	}},
	{"unused-escape-key", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.escKey, c.escVal = []uint32{escKeyOf(9, escDep1)}, []int64{0}
	}},
}

// mutatedRecording records p to completion, applies mutate to the first
// chunk and serializes the result with a valid header and CRC.
func mutatedRecording(t testing.TB, p *prog.Program, mutate func(testing.TB, *recChunk, []isa.Inst)) []byte {
	t.Helper()
	rec := NewRecording(New(p))
	rec.Record(1 << 22)
	if rec.Prefix() {
		t.Fatal("program did not halt within the recording bound")
	}
	if len(rec.chunks[0].escKey) != 0 {
		t.Fatal("the first chunk already has escapes")
	}
	mutate(t, rec.chunks[0], p.Code)
	var buf bytes.Buffer
	if _, err := writeRecording(&buf, rec.fp, rec.chunks, rec.n, rec.tail, recFlagDone); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordingFileRejectsBadColumns requires each of badColumns to
// fail at open with ErrCorruptRecording instead of passing the CRC and
// breaking replay.
func TestRecordingFileRejectsBadColumns(t *testing.T) {
	p := loopProgram(60)
	for _, tc := range badColumns {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.mdrec")
			if err := os.WriteFile(path, mutatedRecording(t, p, tc.mutate), 0o644); err != nil {
				t.Fatal(err)
			}
			fr, err := OpenRecordingFile(path, p)
			if err == nil {
				fr.Close()
				t.Fatal("open accepted the file")
			}
			if !errors.Is(err, ErrCorruptRecording) {
				t.Fatalf("err = %v, want ErrCorruptRecording", err)
			}
		})
	}
}

// FuzzRecordingFile: whatever columns a recording file holds, opening it
// either fails or yields a recording every instruction of which replays
// without a panic, at a PC in the text section, with dependences that
// are absent or name a strictly older instruction. Allocation stays
// proportional to the file. The harness stamps the program's
// fingerprint and a fresh CRC into the header, so mutations reach the
// column checks instead of stopping at the CRC. The program fits one
// chunk, which keeps inputs small; the sealed-prefix seed is its file
// with the prefix flag set, as a seal at a chunk boundary would be.
// badColumns seeds a mutation of every section, and a version-1 file
// of the same program is a seed too.
func FuzzRecordingFile(f *testing.F) {
	p := loopProgram(60)
	complete := filepath.Join(f.TempDir(), "complete.mdrec")
	recordToFile(f, p, complete)
	whole, err := os.ReadFile(complete)
	if err != nil {
		f.Fatal(err)
	}
	prefix := bytes.Clone(whole)
	binary.LittleEndian.PutUint32(prefix[20:], recFlagDone|recFlagPrefix)
	seeds := [][]byte{whole, prefix, whole[:len(whole)/2], whole[:recHeaderSize+4], {}}
	for _, pos := range []int{recHeaderSize + 1, len(whole) / 2, len(whole) - 2} {
		flipped := bytes.Clone(whole)
		flipped[pos] ^= 0x40
		seeds = append(seeds, flipped)
	}
	badMagic := bytes.Clone(whole)
	badMagic[0] = 'X'
	v1, err := os.ReadFile(filepath.Join("testdata", "loop60.mdrec001"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, badMagic, v1)
	for _, tc := range badColumns {
		seeds = append(seeds, mutatedRecording(f, p, tc.mutate))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	fingerprint := progFingerprint(p)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if len(data) >= recHeaderSize {
			binary.LittleEndian.PutUint64(data[24:], fingerprint)
			binary.LittleEndian.PutUint32(data[recCRCOffset:], recCRC(data))
		}
		path := filepath.Join(t.TempDir(), "fuzz.mdrec")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := OpenRecordingFile(path, p)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+uint64(len(data)) {
			t.Fatalf("opening a %d-byte file allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		defer fr.Close()
		rp := fr.NewReplay()
		for seq := int64(0); seq < fr.Len(); seq++ {
			d := rp.At(seq)
			if d == nil || d.Seq != seq || p.IndexOf(d.PC) < 0 {
				t.Fatalf("seq %d replayed as %+v", seq, d)
			}
			for _, dep := range [...]int64{d.Dep1Seq, d.Dep2Seq, d.ProducerSeq} {
				if dep != -1 && (dep < 0 || dep >= seq) {
					t.Fatalf("seq %d names dependence %d", seq, dep)
				}
			}
		}
	})
}

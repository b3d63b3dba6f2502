package emu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// columns through the escape side table.
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
	b.Halt()
	return b.MustProgram()
}

func TestColumnarEscapeDistances(t *testing.T) {
	p := escapeProgram()
	tr := NewTrace(New(p))
	rec := NewRecording(New(p))
	n := compareStreams(t, "escape", tr, rec.NewReplay(), 0)
	// The point of the program is to exercise the escape table; make
	// sure it actually did.
	var escapes int
	for _, c := range rec.chunks {
		escapes += len(c.escKey)
	}
	if escapes == 0 {
		t.Fatalf("escapeProgram recorded %d insts without touching the escape table", n)
	}
}

// recordToFile records the whole program and serializes it.
func recordToFile(t testing.TB, p *prog.Program, path string) *Recording {
	t.Helper()
	rec := NewRecording(New(p))
	rec.Record(1 << 22)
	if _, done := rec.length(); !done {
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
	for _, tc := range []struct {
		name string
		prog *prog.Program
	}{
		{"loop", loopProgram(3000)},
		{"escape", escapeProgram()},
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
			// The file deliberately beats the old 88 B/inst AoS layout.
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if bpi := float64(st.Size()) / float64(n); bpi > 24 {
				t.Errorf("recording file costs %.1f bytes/inst, want <= 24", bpi)
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
		for _, pos := range []int{recHeaderSize + 1, len(blob) / 2, len(blob) - 2} {
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
	t.Run("wrong-program", func(t *testing.T) {
		other := loopProgram(2999)
		if _, err := OpenRecordingFile(path, other); !errors.Is(err, ErrRecordingMismatch) {
			t.Errorf("wrong program: err = %v, want ErrRecordingMismatch", err)
		}
	})
}

// TestSealedPrefixRecording pins the sealed-prefix mode used by the
// runner's on-disk cache: a recording sealed mid-program replays
// identically inside the seal, and a read past the seal panics loudly
// instead of masquerading as the program's end.
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
	if !fr.Prefix() {
		t.Fatal("sealed file not marked as a prefix")
	}
	if fr.Len() < 10_000 {
		t.Fatalf("sealed at %d, want >= 10000", fr.Len())
	}
	compareStreams(t, "prefix", NewTrace(New(p)), fr.NewReplay(), fr.Len())

	defer func() {
		if recover() == nil {
			t.Error("reading past the seal should panic, not report end-of-program")
		}
	}()
	fr.NewReplay().At(fr.Len())
}

// firstOf returns the offset of the first instruction in chunk c whose
// opcode satisfies is.
func firstOf(t testing.TB, c *recChunk, code []isa.Inst, is func(isa.Op) bool) int {
	t.Helper()
	for off, idx := range c.pcIdx {
		if is(code[idx].Op) {
			return off
		}
	}
	t.Fatal("no matching instruction in the chunk")
	return 0
}

// badColumns are mutations of a recording's first chunk that a file
// with a valid CRC can carry. Open used to accept each: the first three
// then panicked at replay with an index out of range, and the last two
// named a producer that is not older than its consumer.
var badColumns = []struct {
	name   string
	mutate func(t testing.TB, c *recChunk, code []isa.Inst)
}{
	{"load-valIdx-at-end", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.valIdx[firstOf(t, c, code, isa.Op.IsLoad)] = uint16(len(c.vals))
	}},
	{"store-valIdx-at-last-value", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.valIdx[firstOf(t, c, code, isa.Op.IsStore)] = uint16(len(c.vals) - 1)
	}},
	{"escape-without-key", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.dep1[7] = depEscape
	}},
	{"distance-before-seq-0", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.dep2[3] = 5 // seq 3 - 5 = -2
	}},
	{"escaped-producer-not-older", func(t testing.TB, c *recChunk, code []isa.Inst) {
		c.prod[10] = depEscape
		c.escKey, c.escVal = []uint32{escKeyOf(10, escProd)}, []int64{10}
	}},
}

// mutatedRecording records p to completion, applies mutate to the first
// chunk and serializes the result with a valid header and CRC.
func mutatedRecording(t testing.TB, p *prog.Program, mutate func(testing.TB, *recChunk, []isa.Inst)) []byte {
	t.Helper()
	rec := NewRecording(New(p))
	rec.Record(1 << 22)
	if _, done := rec.length(); !done {
		t.Fatal("program did not halt within the recording bound")
	}
	chunks, n, tail, _ := rec.snapshot()
	if len(chunks[0].escKey) != 0 {
		t.Fatal("the first chunk already has escapes")
	}
	mutate(t, chunks[0], p.Code)
	var buf bytes.Buffer
	if _, err := writeRecording(&buf, rec.fp, chunks, n, tail, recFlagDone); err != nil {
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
	seeds = append(seeds, badMagic)
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
			binary.LittleEndian.PutUint32(data[36:], crc32.ChecksumIEEE(data[recHeaderSize:]))
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

package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mdspec/internal/bpred"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/workload"
)

func testRecording(t testing.TB, bench string, n int64) (*emu.Recording, uint64) {
	t.Helper()
	p := workload.MustBuild(bench)
	rec := emu.NewRecording(emu.New(p))
	rec.Record(n)
	return rec, emu.ProgramFingerprint(p)
}

func TestBuildAndRoundTrip(t *testing.T) {
	rec, fp := testRecording(t, "129.compress", 50_000)
	cfg := config.Default128().WithPolicy(config.Sync)

	seqs := []int64{10_000, 25_000, 40_000}
	set, err := Build(cfg, rec, fp, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Seqs(); !reflect.DeepEqual(got, seqs) {
		t.Fatalf("frame positions = %v, want %v", got, seqs)
	}
	for i := 1; i < len(set.Frames); i++ {
		if len(set.Frames[i].State) != len(set.Frames[0].State) {
			t.Fatal("frames have unequal state lengths")
		}
	}

	path := filepath.Join(t.TempDir(), "c.mdckpt")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != set.SizeBytes() {
		t.Fatalf("file size %d != SizeBytes %d", fi.Size(), set.SizeBytes())
	}

	got, err := OpenFile(path, fp, set.WarmHash)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, got) {
		t.Fatal("decoded set differs from written set")
	}

	// Determinism: a second capture pass yields byte-identical frames.
	set2, err := Build(cfg, rec, fp, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, set2) {
		t.Fatal("re-captured set differs: capture is not deterministic")
	}
}

func TestOpenFileRejects(t *testing.T) {
	rec, fp := testRecording(t, "102.swim", 20_000)
	cfg := config.Default128()
	set, err := Build(cfg, rec, fp, []int64{5_000, 15_000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "c.mdckpt")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	// Missing file: a cache miss, not corruption.
	if _, err := OpenFile(filepath.Join(dir, "nope.mdckpt"), fp, set.WarmHash); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	// Wrong identity: mismatch, not corruption.
	if _, err := OpenFile(path, fp+1, set.WarmHash); !errors.Is(err, ErrMismatch) {
		t.Fatalf("wrong recording: err = %v, want ErrMismatch", err)
	}
	if _, err := OpenFile(path, fp, set.WarmHash+1); !errors.Is(err, ErrMismatch) {
		t.Fatalf("wrong warm config: err = %v, want ErrMismatch", err)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		c := mutate(append([]byte(nil), b...))
		if _, err := Parse(c, fp, set.WarmHash); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	corrupt("bad magic", func(c []byte) []byte { c[0] ^= 0xff; return c })
	corrupt("torn file", func(c []byte) []byte { return c[:len(c)-7] })
	corrupt("flipped header bit", func(c []byte) []byte { c[25] ^= 1; return c })
	corrupt("flipped frame byte", func(c []byte) []byte { c[len(c)-100] ^= 1; return c })
	corrupt("tiny file", func(c []byte) []byte { return c[:10] })
	// A CRC-valid frame whose warm state sits elsewhere than its
	// directory entry would resume the stream at the wrong place.
	state0 := hdrBytes + len(set.Frames)*dirEntrBytes + crcBytes
	for _, moved := range []int64{4_000, 6_000} {
		corrupt("frame holding another position", func(c []byte) []byte {
			binary.LittleEndian.PutUint64(c[state0+posOff:], uint64(moved))
			return stampFile(c, fp, set.WarmHash)
		})
	}

	// The original file still parses after all that (mutations copied).
	if _, err := Parse(b, fp, set.WarmHash); err != nil {
		t.Fatal(err)
	}
}

func TestNearest(t *testing.T) {
	s := &Set{Frames: []Frame{{Seq: 100}, {Seq: 500}, {Seq: 900}}}
	for _, tc := range []struct {
		target int64
		want   int64 // 0 = nil
	}{
		{50, 0}, {99, 0}, {100, 100}, {101, 100}, {499, 100},
		{500, 500}, {899, 500}, {900, 900}, {1e9, 900},
	} {
		f := s.Nearest(tc.target)
		switch {
		case tc.want == 0 && f != nil:
			t.Errorf("Nearest(%d) = frame %d, want nil", tc.target, f.Seq)
		case tc.want != 0 && (f == nil || f.Seq != tc.want):
			t.Errorf("Nearest(%d) = %v, want seq %d", tc.target, f, tc.want)
		}
	}
	if f := (&Set{}).Nearest(10); f != nil {
		t.Error("empty set must have no nearest frame")
	}
}

func TestPositions(t *testing.T) {
	// 200k timing at 5k:10k, 4 periods/segment, 5k warm-up: segments
	// start every 60k; warm targets are 60k*k - 5k.
	got := Positions(200_000, 5_000, 10_000, 4, 5_000)
	want := []int64{55_000, 115_000, 175_000, 235_000, 295_000, 355_000, 415_000, 475_000, 535_000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Positions = %v, want %v", got, want)
	}
	if p := Positions(10_000, 5_000, 10_000, 4, 5_000); p != nil {
		t.Fatalf("single-segment run needs no checkpoints, got %v", p)
	}
	if p := Positions(0, 5_000, 10_000, 4, 0); p != nil {
		t.Fatalf("degenerate inputs: got %v", p)
	}
}

func TestBuildStopsAtTraceEnd(t *testing.T) {
	p := workload.KernelRecurrence(100) // a short trace
	rec := emu.NewRecording(emu.New(p))
	rec.Record(1 << 20)
	fp := emu.ProgramFingerprint(p)

	set, err := Build(config.Default128(), rec, fp, []int64{100, 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Frames) != 1 || set.Frames[0].Seq != 100 {
		t.Fatalf("frames = %v, want exactly one at 100", set.Seqs())
	}
	if _, err := Build(config.Default128(), rec, fp, []int64{200, 100}); err == nil {
		t.Fatal("non-ascending capture positions must error")
	}
}

// Offsets of the warm-state scalars in a frame: the warmer's stream
// position and flags lead the state, and the branch predictor's tail
// (global history, BTB way, return-stack top, three counters) ends it.
const (
	posOff      = 0
	flagsOff    = 8 + 4
	predTailLen = 4 + 4 + 8 + 3*8
)

// TestRestoreRejectsImpossibleWarmState: a CRC-valid frame whose
// warmer position or return-stack top is negative is refused by
// RestoreWarm with an error. Both used to restore, and the next
// interval panicked with an index out of range. A negative position is
// not the frame's directory position either, so such a file no longer
// opens; RestoreWarm still refuses the state on its own.
func TestRestoreRejectsImpossibleWarmState(t *testing.T) {
	rec, fp := testRecording(t, "126.gcc", 120_000)
	cfg := config.Default128().WithPolicy(config.Naive)
	set, err := Build(cfg, rec, fp, []int64{50_000})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		off     func(stateLen int) int
		val     int64
		openErr error
		want    error
	}{
		"warmer position":  {func(int) int { return posOff }, -5, ErrCorrupt, core.ErrStatePosition},
		"return stack top": {func(n int) int { return n - predTailLen + 8 }, -3, nil, bpred.ErrStateRAS},
	} {
		t.Run(name, func(t *testing.T) {
			st := bytes.Clone(set.Frames[0].State)
			binary.LittleEndian.PutUint64(st[c.off(len(st)):], uint64(c.val))
			bad := &Set{RecFP: fp, WarmHash: set.WarmHash, Frames: []Frame{{Seq: 50_000, State: st}}}
			path := filepath.Join(t.TempDir(), "c.mdckpt")
			if err := bad.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := OpenFile(path, fp, set.WarmHash)
			if !errors.Is(err, c.openErr) {
				t.Fatalf("OpenFile = %v, want %v", err, c.openErr)
			}
			if err == nil {
				st = got.Frames[0].State
			}
			pl, err := core.New(cfg, rec.NewReplay())
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.RestoreWarm(st); !errors.Is(err, c.want) {
				t.Fatalf("RestoreWarm = %v, want %v", err, c.want)
			}
		})
	}
}

// stampFile writes the identity into b's header and fresh CRCs over its
// header and over every frame of the header's geometry that b holds, so
// that arbitrary bytes reach the frame checks and the restore.
func stampFile(b []byte, recFP, warmHash uint64) []byte {
	if len(b) < hdrBytes+crcBytes {
		return b
	}
	binary.LittleEndian.PutUint64(b[8:], recFP)
	binary.LittleEndian.PutUint64(b[16:], warmHash)
	count := int64(binary.LittleEndian.Uint32(b[24:]))
	stateLen := int64(binary.LittleEndian.Uint32(b[28:]))
	dirEnd := hdrBytes + count*dirEntrBytes
	if int64(len(b)) < dirEnd+crcBytes {
		return b
	}
	binary.LittleEndian.PutUint32(b[dirEnd:], crc32.ChecksumIEEE(b[:dirEnd]))
	for off := dirEnd + crcBytes; off+stateLen+crcBytes <= int64(len(b)) && count > 0; count-- {
		binary.LittleEndian.PutUint32(b[off+stateLen:], crc32.ChecksumIEEE(b[off:off+stateLen]))
		off += stateLen + crcBytes
	}
	return b
}

// restoreAndRun holds one parsed frame to the reader's contract: it
// fails to restore with an error, or it restores into a machine that
// runs a short interval over the recording. The interval may end in an
// error; only a panic breaks the contract.
func restoreAndRun(t *testing.T, cfg config.Machine, rec *emu.Recording, state []byte) {
	pl, err := core.New(cfg, rec.NewReplay())
	if err != nil {
		t.Fatal(err)
	}
	if pl.RestoreWarm(state) != nil {
		return
	}
	if _, err := pl.RunSampledInterval(15_000, 25_000, 2_000, 3_000, 1_000); err != nil {
		t.Logf("interval after restore: %v", err)
	}
}

// FuzzCheckpointFile: whatever a checkpoint file holds, Parse fails, or
// every frame either fails to restore with an error or runs a short
// interval without a panic, and Parse allocates in proportion to the
// file. Each input is a file, stamped with the identity and fresh CRCs,
// plus the warm-state scalars (position, flags, predictor history, BTB
// way, return-stack top) patched into a real Table 2 frame: that frame
// is about 680 KB, so random byte flips would rarely reach them. The
// patched frame sits at its own position, so it parses when that
// position is a valid directory entry; any state restores to an error
// or runs.
func FuzzCheckpointFile(f *testing.F) {
	rec, fp := testRecording(f, "126.gcc", 30_000)
	cfg := config.Default128().WithPolicy(config.Naive)
	base, err := Build(cfg, rec, fp, []int64{10_000})
	if err != nil {
		f.Fatal(err)
	}
	frame := base.Frames[0].State
	tail := len(frame) - predTailLen
	var small bytes.Buffer
	tiny := &Set{RecFP: fp, WarmHash: base.WarmHash, Frames: []Frame{{Seq: 5, State: make([]byte, 16)}, {Seq: 9, State: make([]byte, 16)}}}
	if err := tiny.encode(&small); err != nil {
		f.Fatal(err)
	}
	empty := stampFile(append([]byte(Magic), make([]byte, hdrBytes-len(Magic)+crcBytes)...), fp, base.WarmHash)
	pos := int64(binary.LittleEndian.Uint64(frame[posOff:]))
	flags := frame[flagsOff]
	history := binary.LittleEndian.Uint32(frame[tail:])
	btbWay := binary.LittleEndian.Uint32(frame[tail+4:])
	rasTop := int64(binary.LittleEndian.Uint64(frame[tail+8:]))
	for _, file := range [][]byte{nil, empty, small.Bytes(), small.Bytes()[:small.Len()-3], []byte("MDCKPT02")} {
		f.Add(file, pos, flags, history, btbWay, rasTop)
	}
	f.Add(empty, int64(-5), flags, history, btbWay, rasTop)
	f.Add(empty, pos, flags, history, btbWay, int64(-3))
	f.Add(empty, int64(14_000), byte(3), ^uint32(0), ^uint32(0), int64(1)<<62)

	f.Fuzz(func(t *testing.T, file []byte, pos int64, flags byte, history, btbWay uint32, rasTop int64) {
		file = stampFile(bytes.Clone(file), fp, base.WarmHash)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set, err := Parse(file, fp, base.WarmHash)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+4*uint64(len(file)) {
			t.Fatalf("parsing a %d-byte file allocated %d bytes", len(file), grew)
		}
		if err == nil {
			for _, fr := range set.Frames {
				restoreAndRun(t, cfg, rec, fr.State)
			}
		}

		st := bytes.Clone(frame)
		binary.LittleEndian.PutUint64(st[posOff:], uint64(pos))
		st[flagsOff] = flags
		binary.LittleEndian.PutUint32(st[tail:], history)
		binary.LittleEndian.PutUint32(st[tail+4:], btbWay)
		binary.LittleEndian.PutUint64(st[tail+8:], uint64(rasTop))
		var buf bytes.Buffer
		patched := &Set{RecFP: fp, WarmHash: base.WarmHash, Frames: []Frame{{Seq: pos, State: st}}}
		if err := patched.encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err = Parse(buf.Bytes(), fp, base.WarmHash)
		if pos > 0 && err != nil {
			t.Fatalf("a real frame with patched scalars does not parse: %v", err)
		}
		if pos <= 0 && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a frame at position %d parses: %v", pos, err)
		}
		restoreAndRun(t, cfg, rec, st)
	})
}

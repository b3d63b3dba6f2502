package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// journalRecord fabricates a plausible completed-run record for journal
// tests without paying for a simulation.
func journalRecord(bench string, cfg config.Machine, insts int64) RunRecord {
	res := &stats.Run{
		Config: cfg.Name(), Workload: bench,
		Cycles: 2 * insts, Committed: insts,
	}
	rec := NewRunRecord(bench, cfg, insts, 123*time.Millisecond, res)
	rec.Attempts = 1
	return rec
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	j, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []RunRecord{
		journalRecord("126.gcc", nas(config.Naive), 1000),
		journalRecord("126.gcc", nas(config.Sync), 1000),
		journalRecord("102.swim", nas(config.Naive), 1000),
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Provenance != want[i].Provenance || *rec.Stats != *want[i].Stats {
			t.Errorf("record %d differs after round trip:\ngot:  %+v\nwant: %+v", i, rec, want[i])
		}
	}
}

// TestJournalTornTail: a crash mid-append leaves a truncated frame; the
// next open must replay every intact entry, drop the torn one, and
// truncate the file so appends continue on a frame boundary.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	j, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord("126.gcc", nas(config.Naive), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord("126.gcc", nas(config.Sync), 1000)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the tail: chop half of the last frame off.
	path := SegmentPath(dir, "0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := int64(len(data)) - 40
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Config != "NAS/NAV" {
		t.Fatalf("after torn tail replayed %v, want just NAS/NAV", recs)
	}
	// The journal must stay appendable after truncation.
	if err := j2.Append(journalRecord("102.swim", nas(config.Oracle), 1000)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, recs, err = OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("after append-past-torn-tail replayed %d records, want 2", len(recs))
	}
}

// TestJournalChecksumCorruption: a bit flip inside a frame's payload
// must end the replay at the last intact frame, never parse the
// corrupted entry.
func TestJournalChecksumCorruption(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	j, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord("126.gcc", nas(config.Naive), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord("126.gcc", nas(config.Sync), 1000)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := SegmentPath(dir, "0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0xFF // flip bits inside the last frame's payload
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 1 || recs[0].Config != "NAS/NAV" {
		t.Fatalf("after corruption replayed %v, want just the intact NAS/NAV entry", recs)
	}
}

// TestJournalMetaMismatch: a journal written under different sweep
// options must be rejected with a descriptive error, not silently
// replayed into the wrong sweep.
func TestJournalMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, Options{Insts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, _, err = OpenJournal(dir, Options{Insts: 2000})
	if err == nil {
		t.Fatal("journal with mismatched insts accepted")
	}
	if !strings.Contains(err.Error(), "fresh -resume directory") {
		t.Errorf("mismatch error should tell the user what to do: %v", err)
	}

	_, _, err = OpenJournal(dir, Options{Insts: 1000, Sampled: true, TimingWindow: 500})
	if err == nil {
		t.Fatal("journal with mismatched sampling accepted")
	}

	// Only the phase count differs: the message must show both counts,
	// or the two sides read the same.
	phased := Options{Insts: 1000, Sampled: true, Phases: 4}
	pdir := t.TempDir()
	j, _, err = OpenJournal(pdir, phased)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	phased.Phases = 8
	_, _, err = OpenJournal(pdir, phased)
	if err == nil {
		t.Fatal("journal with mismatched phases accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "Phases:4") || !strings.Contains(msg, "Phases:8") {
		t.Errorf("mismatch error should show both phase counts: %v", err)
	}

	// A refused open writes nothing, even where its own segment is new:
	// the directory still opens under the options that wrote it.
	sdir := t.TempDir()
	w0, _, err := OpenJournalSegment(sdir, "w0", Options{Insts: 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w0.Close()
	if _, _, err := OpenJournal(sdir, Options{Insts: 2000}); err == nil {
		t.Fatal("directory with a mismatched segment accepted")
	}
	j, _, err = OpenJournal(sdir, Options{Insts: 1000})
	if err != nil {
		t.Fatalf("refused open left a foreign segment behind: %v", err)
	}
	j.Close()
}

// TestJournalDedup: if the same cell was journaled twice (e.g. two
// crash-resume cycles that both re-ran it), the last entry wins and the
// replay still yields one record per cell.
func TestJournalDedup(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	j, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	first := journalRecord("126.gcc", nas(config.Naive), 1000)
	if err := j.Append(first); err != nil {
		t.Fatal(err)
	}
	second := first
	second.WallSeconds = 9.9
	if err := j.Append(second); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 after dedup", len(recs))
	}
	if recs[0].WallSeconds != 9.9 {
		t.Errorf("dedup kept WallSeconds %v, want the last entry (9.9)", recs[0].WallSeconds)
	}
}

// TestJournalRejectsForeignFile: pointing -resume at a directory whose
// journal segment is not a journal must fail loudly.
func TestJournalRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := SegmentPath(dir, "0")
	if err := os.WriteFile(path, []byte(`{"not":"a journal"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(dir, Options{Insts: 1000})
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign file accepted or wrong error: %v", err)
	}
}

// TestJournalSegmentIDValidation: ids are filename tokens; anything
// that could escape the directory or collide with the pre-segment
// runs.journal is rejected.
func TestJournalSegmentIDValidation(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"", "a/b", "..", "w 0", "w.0"} {
		if _, _, err := OpenJournalSegment(dir, id, Options{Insts: 1000}, 0); err == nil {
			t.Errorf("segment id %q accepted", id)
		}
	}
}

// TestReplayJournalDirMerges: the merged replay spans a pre-segment
// runs.journal and every segment, deduplicating per cell with the
// lexically-last copy winning; the old file is read, never written.
func TestReplayJournalDirMerges(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	legacy, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	shared := journalRecord("126.gcc", nas(config.Naive), 1000)
	shared.WallSeconds = 1.0
	if err := legacy.Append(shared); err != nil {
		t.Fatal(err)
	}
	legacy.Close()
	// The same bytes under the name single-writer journals used to have.
	legacyPath := filepath.Join(dir, "runs.journal")
	if err := os.Rename(SegmentPath(dir, "0"), legacyPath); err != nil {
		t.Fatal(err)
	}
	legacyBytes, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}

	w0, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	dup := shared
	dup.WallSeconds = 2.0
	if err := w0.Append(dup); err != nil {
		t.Fatal(err)
	}
	if err := w0.Append(journalRecord("126.gcc", nas(config.Sync), 1000)); err != nil {
		t.Fatal(err)
	}
	w0.Close()

	w1, _, err := OpenJournalSegment(dir, "w1", opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Append(journalRecord("102.swim", nas(config.Naive), 1000)); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	recs, err := ReplayJournalDir(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("merged replay has %d records, want 3 deduplicated cells", len(recs))
	}
	// runs.journal sorts before runs.w0.journal, so the segment's copy
	// of the shared cell wins.
	if recs[0].Bench != "126.gcc" || recs[0].WallSeconds != 2.0 {
		t.Errorf("shared cell = %+v, want the lexically-last (segment) copy", recs[0])
	}
	j0, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	j0.Close()
	if len(recs) != 3 {
		t.Errorf("segment 0 open replayed %d records, want the 3 merged cells", len(recs))
	}
	if got, err := os.ReadFile(legacyPath); err != nil || !bytes.Equal(got, legacyBytes) {
		t.Errorf("runs.journal changed by the opens around it (err %v)", err)
	}

	// A segment under a different fingerprint poisons the whole merge.
	foreign, _, err := OpenJournalSegment(t.TempDir(), "w2", Options{Insts: 2000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	foreign.Close()
	if err := os.Rename(foreign.path, SegmentPath(dir, "w2")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournalDir(dir, opt); err == nil {
		t.Error("merge accepted a segment with a foreign fingerprint")
	}
}

// TestReplayJournalDirSkipsForeignTornTail: another writer's torn tail
// is either a live append or their crash to repair — the merge must
// skip it without truncating their file.
func TestReplayJournalDirSkipsForeignTornTail(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	w0, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Append(journalRecord("126.gcc", nas(config.Naive), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := w0.Append(journalRecord("126.gcc", nas(config.Sync), 1000)); err != nil {
		t.Fatal(err)
	}
	w0.Close()

	path := SegmentPath(dir, "w0")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := int64(len(data)) - 40
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	w1, recs, err := OpenJournalSegment(dir, "w1", opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	w1.Close()
	if len(recs) != 1 || recs[0].Config != "NAS/NAV" {
		t.Fatalf("merge past foreign torn tail replayed %v, want just NAS/NAV", recs)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != torn {
		t.Errorf("foreign segment was truncated: size %d, want %d", fi.Size(), torn)
	}

	// The owner's own reopen is the one that repairs the tear.
	w0b, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	w0b.Close()
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= torn {
		t.Errorf("owner reopen did not truncate the torn tail: size %d", fi.Size())
	}
}

// segmentBytes returns the bytes of a closed segment written under opt
// holding recs.
func segmentBytes(tb testing.TB, opt Options, recs ...RunRecord) []byte {
	tb.Helper()
	dir := tb.TempDir()
	j, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(SegmentPath(dir, "w0"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestJournalSegmentTornHeaderReinitialized: a crash before a fresh
// segment's meta entry is durable leaves an empty file, part of the
// magic line, or the magic and a torn meta frame. The next open must
// reset such a segment and initialize it once, so the cells appended
// after it replay on every later open.
func TestJournalSegmentTornHeaderReinitialized(t *testing.T) {
	opt := Options{Insts: 1000}
	header := segmentBytes(t, opt)
	magic := len(journalMagic)
	rec := journalRecord("126.gcc", nas(config.Sync), 1000)
	for name, torn := range map[string][]byte{
		"empty":            {},
		"part of magic":    header[:magic-5],
		"magic only":       header[:magic],
		"torn meta":        header[:magic+12],
		"meta less a byte": header[:len(header)-1],
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := SegmentPath(dir, "w0")
			if err := os.WriteFile(path, torn, 0o666); err != nil {
				t.Fatal(err)
			}
			j, recs, err := OpenJournalSegment(dir, "w0", opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("torn header replayed %d records", len(recs))
			}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, recs, err := OpenJournalSegment(dir, "w0", opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			if len(recs) != 1 || recs[0].Provenance != rec.Provenance {
				t.Fatalf("reopen replayed %+v, want the cell appended after the torn header", recs)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, header) || bytes.Count(data, []byte(journalMagic)) != 1 {
				t.Errorf("segment does not start with one fresh header: %q", data[:min(len(data), 2*magic)])
			}
		})
	}
}

// replayJournalReference is the sequential reader the tests hold
// replayJournal to: one frame at a time from the magic line to the
// first torn, CRC-broken or unparsable frame, under replayJournal's
// contract (run records of the valid prefix in file order, and the
// prefix's length).
func replayJournalReference(data []byte, want Fingerprint) ([]RunRecord, int64, error) {
	if len(data) < len(journalMagic) && strings.HasPrefix(journalMagic, string(data)) {
		return nil, 0, nil
	}
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return nil, 0, fmt.Errorf("bad magic")
	}
	off := int64(len(journalMagic))
	sawMeta := false
	var recs []RunRecord
	for {
		entry, next, ok := readFrame(data, off)
		if !ok {
			break
		}
		switch {
		case entry.Meta != nil:
			if *entry.Meta != want {
				return nil, 0, fmt.Errorf("written with %+v", *entry.Meta)
			}
			sawMeta = true
		case entry.Run != nil && entry.Run.Stats != nil:
			recs = append(recs, *entry.Run)
		}
		off = next
	}
	if !sawMeta {
		if len(recs) > 0 {
			return nil, 0, fmt.Errorf("run entries but no meta header")
		}
		return nil, 0, nil
	}
	return recs, off, nil
}

// readFrame decodes the frame at off. ok is false when the remaining
// bytes do not contain one intact, checksum-clean, parsable frame.
func readFrame(data []byte, off int64) (e journalEntry, next int64, ok bool) {
	rest := data[off:]
	if len(rest) < 8 {
		return e, 0, false
	}
	n := int64(binary.BigEndian.Uint32(rest[0:4]))
	sum := binary.BigEndian.Uint32(rest[4:8])
	if n <= 0 || n > maxJournalEntry || int64(len(rest)) < 8+n {
		return e, 0, false
	}
	payload := rest[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return e, 0, false
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, 0, false
	}
	return e, off + 8 + n, true
}

// checkAgainstReference fails t unless replayJournal over path, which
// holds data, agrees with the sequential reference, and unless every
// split of the frames across decoders finds the single decoder's
// prefix.
func checkAgainstReference(t *testing.T, path string, data []byte, want Fingerprint) {
	t.Helper()
	recs, validLen, err := replayJournal(path, want)
	refRecs, refLen, refErr := replayJournalReference(data, want)
	if (err != nil) != (refErr != nil) || validLen != refLen || !reflect.DeepEqual(recs, refRecs) {
		t.Fatalf("replayJournal: %d records, length %d, err %v; reference: %d records, length %d, err %v",
			len(recs), validLen, err, len(refRecs), refLen, refErr)
	}
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return
	}
	bounds := frameBounds(data)
	one := decodeFrames(data, bounds, 1)
	for _, workers := range []int{2, 3, 7} {
		if got := decodeFrames(data, bounds, workers); !reflect.DeepEqual(got, one) {
			t.Fatalf("%d decoders kept %d of %d frames, one decoder %d", workers, len(got), len(bounds)-1, len(one))
		}
	}
}

// TestReplayJournalDamagedFrame: in a 5,000-frame segment, frame 3,000
// torn, failing its CRC, or CRC-valid but not JSON ends the valid
// prefix where the sequential reader ends it, however many CPUs decode
// the frames, and the owner's open truncates the segment there.
func TestReplayJournalDamagedFrame(t *testing.T) {
	const frames, bad = 5000, 3000
	opt := Options{Insts: 1000}
	fp := opt.Fingerprint()
	data, err := appendFrame([]byte(journalMagic), journalEntry{Meta: &fp})
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, frames+1) // starts[i]: offset of run frame i
	base := journalRecord("126.gcc", nas(config.Naive), 1000)
	for i := 0; i < frames; i++ {
		rec := base
		rec.ConfigHash = fmt.Sprintf("%016x", i)
		starts[i] = len(data)
		if data, err = appendFrame(data, journalEntry{Run: &rec}); err != nil {
			t.Fatal(err)
		}
	}
	starts[frames] = len(data)
	for name, damage := range map[string]func([]byte) []byte{
		"torn": func(b []byte) []byte { return b[:starts[bad]+20] },
		"crc": func(b []byte) []byte {
			// Still JSON, so only the CRC can reject it.
			at := starts[bad] + bytes.Index(b[starts[bad]:], []byte("126.gcc"))
			b[at] = '3'
			return b
		},
		"not json": func(b []byte) []byte {
			payload := b[starts[bad]+8 : starts[bad+1]]
			payload[0] = 'x'
			binary.BigEndian.PutUint32(b[starts[bad]+4:], crc32.ChecksumIEEE(payload))
			return b
		},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b := damage(bytes.Clone(data))
				dir := t.TempDir()
				path := SegmentPath(dir, "0")
				if err := os.WriteFile(path, b, 0o666); err != nil {
					t.Fatal(err)
				}
				recs, validLen, err := replayJournal(path, fp)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != bad || validLen != int64(starts[bad]) {
					t.Fatalf("replayed %d frames up to byte %d, want %d up to byte %d", len(recs), validLen, bad, starts[bad])
				}
				checkAgainstReference(t, path, b, fp)
				j, merged, err := OpenJournal(dir, opt)
				if err != nil {
					t.Fatal(err)
				}
				j.Close()
				if len(merged) != bad || merged[bad-1].ConfigHash != fmt.Sprintf("%016x", bad-1) {
					t.Fatalf("open replayed %d cells, want the first %d", len(merged), bad)
				}
				if st := j.ReplayStats(); st.Segments != 1 || st.Frames != bad {
					t.Errorf("replay stats %+v, want 1 segment and %d frames", st, bad)
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() != int64(starts[bad]) {
					t.Errorf("segment not truncated at the damaged frame (err %v)", err)
				}
			})
		}
	}
}

// FuzzJournalSegment: whatever bytes a segment file holds, opening it
// either fails or yields a journal whose appended cell replays after a
// reopen. It never panics, and it allocates in proportion to the file,
// never to a length prefix read from it. The parallel decoder agrees
// with the sequential reference on every input.
func FuzzJournalSegment(f *testing.F) {
	opt := Options{Insts: 1000}
	header := segmentBytes(f, opt)
	withRun := segmentBytes(f, opt, journalRecord("126.gcc", nas(config.Naive), 1000))
	magic := len(journalMagic)
	flipped := bytes.Clone(withRun)
	flipped[len(header)+5] ^= 0xFF // the run frame's CRC
	huge := binary.BigEndian.AppendUint32(bytes.Clone(header), maxJournalEntry+1)
	huge = append(huge, 0, 0, 0, 0, '{', '}')
	for _, seed := range [][]byte{
		{},
		header[:magic],
		header[:magic+12],
		header,
		withRun,
		withRun[:len(withRun)-10],
		flipped,
		huge,
		[]byte("mdspec-journal/9\n{}"),
		segmentBytes(f, Options{Insts: 2000}),
	} {
		f.Add(seed)
	}
	want := journalRecord("102.swim", nas(config.Oracle), 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := SegmentPath(dir, "w0")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, path, data, opt.Fingerprint())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, _, err := OpenJournalSegment(dir, "w0", opt, 0)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+256*uint64(len(data)) {
			t.Fatalf("opening a %d-byte segment allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		if err := j.Append(want); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := OpenJournalSegment(dir, "w0", opt, 0)
		if err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		defer j2.Close()
		for _, rec := range recs {
			if rec.Bench == want.Bench && rec.ConfigHash == want.ConfigHash {
				if rec.Provenance != want.Provenance || *rec.Stats != *want.Stats {
					t.Fatalf("appended cell replayed as %+v, want %+v", rec, want)
				}
				return
			}
		}
		t.Fatalf("appended cell missing from the %d replayed records", len(recs))
	})
}

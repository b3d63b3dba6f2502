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
	"regexp"
	"runtime"
	"strings"
	"sync"
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

// cellRecords decodes every cell, failing tb if one does not decode.
func cellRecords(tb testing.TB, cells []JournalCell) []RunRecord {
	tb.Helper()
	recs := make([]RunRecord, len(cells))
	for i, c := range cells {
		rec, err := c.Record()
		if err != nil {
			tb.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

func TestJournalRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt") // created by the open
	opt := Options{Insts: 1000}

	j, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(cells))
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

	j2, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := cellRecords(t, cells)
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
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := int64(len(data)) - 40
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	j2, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if recs := cellRecords(t, cells); len(recs) != 1 || recs[0].Config != "NAS/NAV" {
		t.Fatalf("after torn tail replayed %v, want just NAS/NAV", recs)
	}
	// The journal must stay appendable after truncation.
	if err := j2.Append(journalRecord("102.swim", nas(config.Oracle), 1000)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, cells, err = OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("after append-past-torn-tail replayed %d records, want 2", len(cells))
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

	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-20] ^= 0xFF // flip bits inside the last frame's payload
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	j2, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if recs := cellRecords(t, cells); len(recs) != 1 || recs[0].Config != "NAS/NAV" {
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

	// A file an older build left under other options refuses the
	// directory, and the refused open writes nothing, even where the
	// journal's own file is new: the directory still opens under the
	// options that wrote the older file.
	odir := t.TempDir()
	writeOlderFile(t, odir, "runs.w0.journal", journalBytes(t, Options{Insts: 1000}))
	if _, _, err := OpenJournal(odir, Options{Insts: 2000}); err == nil {
		t.Fatal("directory with a mismatched older file accepted")
	}
	j, _, err = OpenJournal(odir, Options{Insts: 1000})
	if err != nil {
		t.Fatalf("refused open left a foreign journal behind: %v", err)
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

	_, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	recs := cellRecords(t, cells)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 after dedup", len(recs))
	}
	if recs[0].WallSeconds != 9.9 {
		t.Errorf("dedup kept WallSeconds %v, want the last entry (9.9)", recs[0].WallSeconds)
	}
}

// TestJournalRejectsForeignFile: pointing -resume at a directory whose
// journal file is not a journal must fail loudly.
func TestJournalRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := journalPath(dir)
	if err := os.WriteFile(path, []byte(`{"not":"a journal"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(dir, Options{Insts: 1000})
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign file accepted or wrong error: %v", err)
	}
}

// writeOlderFile places data in dir under name, as a journal file an
// older build left there.
func writeOlderFile(tb testing.TB, dir, name string, data []byte) {
	tb.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o666); err != nil {
		tb.Fatal(err)
	}
}

// snapshotDir returns the bytes of every file in dir by name.
func snapshotDir(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestReplayJournalDirMerges: the files an older build left next to the
// journal (runs.journal, runs.sup.journal and runs.w0.journal, the last
// torn mid-frame) are replayed read-only before the journal's own file,
// one copy per cell: lexical order among the older files, and the
// journal's own copy over all of them. OpenJournal creates, locks and
// writes no file but runs.0.journal, ReplayJournalDir returns what a
// live OpenJournal replayed, and an older file under another
// fingerprint refuses the directory without touching any file.
func TestReplayJournalDirMerges(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}
	withWall := func(rec RunRecord, wall float64) RunRecord {
		rec.WallSeconds = wall
		return rec
	}
	a := journalRecord("126.gcc", nas(config.Naive), 1000)
	b := journalRecord("126.gcc", nas(config.Sync), 1000)
	c := journalRecord("102.swim", nas(config.Naive), 1000)
	d := journalRecord("102.swim", nas(config.Sync), 1000)
	e := journalRecord("099.go", nas(config.Naive), 1000)
	writeOlderFile(t, dir, "runs.journal", journalBytes(t, opt, withWall(a, 1), b))
	writeOlderFile(t, dir, "runs.sup.journal", journalBytes(t, opt, withWall(a, 2), c))
	w0 := journalBytes(t, opt, d, e)
	writeOlderFile(t, dir, "runs.w0.journal", w0[:len(w0)-30]) // e torn mid-frame
	older := snapshotDir(t, dir)

	j, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range cellRecords(t, cells) {
		got = append(got, fmt.Sprintf("%s %s %g", rec.Bench, rec.Config, rec.WallSeconds))
	}
	want := []string{"126.gcc NAS/NAV 2", "126.gcc NAS/SYNC 0.123", "102.swim NAS/NAV 0.123", "102.swim NAS/SYNC 0.123"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("open over older files replayed %q, want %q", got, want)
	}
	if st := j.ReplayStats(); st.Files != 4 || st.Frames != 5 {
		t.Errorf("replay stats %+v, want 4 files and 5 frames", st)
	}
	after := snapshotDir(t, dir)
	if _, ok := after[journalName]; !ok || len(after) != len(older)+1 {
		t.Errorf("open left %d files, want the %d older ones and %s", len(after), len(older), journalName)
	}
	for name, data := range older {
		if !bytes.Equal(after[name], data) {
			t.Errorf("open changed %s", name)
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := lockFile(f); err != nil {
			t.Errorf("open left %s locked: %v", name, err)
		}
		f.Close()
	}

	// The journal's own copy of a cell wins over every older one, in
	// the open's replay and in ReplayJournalDir's alike, also while a
	// live journal holds the lock.
	if err := j.Append(withWall(a, 3)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, cells, err = OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if recs := cellRecords(t, cells); len(recs) != 4 || recs[0].WallSeconds != 3 {
		t.Fatalf("reopen replayed %+v, want the journal's copy of the first cell", recs)
	}
	replayed, err := ReplayJournalDir(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, cells) {
		t.Errorf("ReplayJournalDir beside a live journal: %+v, want what the open replayed: %+v", replayed, cells)
	}
	j.Close()

	// An older file under another fingerprint refuses the directory, and
	// every file stays as it was.
	writeOlderFile(t, dir, "runs.w1.journal", journalBytes(t, Options{Insts: 2000}))
	before := snapshotDir(t, dir)
	if _, _, err := OpenJournal(dir, opt); err == nil {
		t.Error("open accepted an older file with a foreign fingerprint")
	}
	if _, err := ReplayJournalDir(dir, opt); err == nil {
		t.Error("replay accepted an older file with a foreign fingerprint")
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("refused open changed the directory")
	}
}

// TestReplayJournalDirSkipsForeignTornTail: an older file's torn tail
// ends its replay and stays on disk, while the same tear in the
// journal's own file is truncated by the open.
func TestReplayJournalDirSkipsForeignTornTail(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}
	full := journalBytes(t, opt, journalRecord("126.gcc", nas(config.Naive), 1000), journalRecord("126.gcc", nas(config.Sync), 1000))
	torn := full[:len(full)-40]
	writeOlderFile(t, dir, "runs.w0.journal", torn)
	if err := os.WriteFile(journalPath(dir), torn, 0o666); err != nil {
		t.Fatal(err)
	}

	cells, err := ReplayJournalDir(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if recs := cellRecords(t, cells); len(recs) != 1 || recs[0].Config != "NAS/NAV" {
		t.Fatalf("replay past torn tails gave %v, want just NAS/NAV", recs)
	}
	j, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if recs := cellRecords(t, cells); len(recs) != 1 || recs[0].Config != "NAS/NAV" {
		t.Fatalf("open past torn tails replayed %v, want just NAS/NAV", recs)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "runs.w0.journal")); err != nil || !bytes.Equal(data, torn) {
		t.Errorf("older file changed by the open (err %v)", err)
	}
	if fi, err := os.Stat(journalPath(dir)); err != nil || fi.Size() >= int64(len(torn)) {
		t.Errorf("open did not truncate the journal's own torn tail (err %v)", err)
	}
}

// journalBytes returns the bytes of a closed journal written under opt
// holding recs.
func journalBytes(tb testing.TB, opt Options, recs ...RunRecord) []byte {
	tb.Helper()
	dir := tb.TempDir()
	j, _, err := OpenJournal(dir, opt)
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
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestJournalSegmentTornHeaderReinitialized: a crash before a fresh
// journal's meta entry is durable leaves an empty file, part of the
// magic line, or the magic and a torn meta frame. The next open must
// reset such a file and initialize it once, so the cells appended
// after it replay on every later open.
func TestJournalSegmentTornHeaderReinitialized(t *testing.T) {
	opt := Options{Insts: 1000}
	header := journalBytes(t, opt)
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
			path := journalPath(dir)
			if err := os.WriteFile(path, torn, 0o666); err != nil {
				t.Fatal(err)
			}
			j, cells, err := OpenJournal(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 0 {
				t.Fatalf("torn header replayed %d records", len(cells))
			}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			j.Close()
			j2, cells, err := OpenJournal(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			if recs := cellRecords(t, cells); len(recs) != 1 || recs[0].Provenance != rec.Provenance {
				t.Fatalf("reopen replayed %+v, want the cell appended after the torn header", recs)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, header) || bytes.Count(data, []byte(journalMagic)) != 1 {
				t.Errorf("journal does not start with one fresh header: %q", data[:min(len(data), 2*magic)])
			}
		})
	}
}

// replayJournalReference is the sequential reader the tests hold
// replayJournal to: one frame at a time from the magic line to the
// first torn or CRC-broken frame, or the first one that neither begins
// with a plain run key (refKey) nor parses, under replayJournal's
// contract (the cells of the valid prefix in file order, and the
// prefix's length).
func replayJournalReference(data []byte, want Fingerprint) ([]JournalCell, int64, error) {
	if len(data) < len(journalMagic) && strings.HasPrefix(journalMagic, string(data)) {
		return nil, 0, nil
	}
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return nil, 0, fmt.Errorf("bad magic")
	}
	off := int64(len(journalMagic))
	sawMeta := false
	var cells []JournalCell
	for {
		payload, next, ok := readFrame(data, off)
		if !ok {
			break
		}
		if m := refKey.FindSubmatch(payload); m != nil {
			cells = append(cells, JournalCell{string(m[1]), string(m[2]), payload})
		} else {
			var entry journalEntry
			if json.Unmarshal(payload, &entry) != nil {
				break
			}
			switch {
			case entry.Meta != nil:
				if *entry.Meta != want {
					return nil, 0, fmt.Errorf("written with %+v", *entry.Meta)
				}
				sawMeta = true
			case entry.Run != nil && entry.Run.Stats != nil:
				cells = append(cells, JournalCell{entry.Run.Bench, entry.Run.ConfigHash, payload})
			}
		}
		off = next
	}
	if !sawMeta {
		if len(cells) > 0 {
			return nil, 0, fmt.Errorf("run entries but no meta header")
		}
		return nil, 0, nil
	}
	return cells, off, nil
}

// refKey matches the key prefix json.Marshal writes for a run entry
// whose key strings are printable ASCII without quotes or backslashes:
// those a replay indexes without decoding. It captures the bench and
// the config hash.
var refKey = regexp.MustCompile(`^\{"run":\{"bench":"([\x20\x21\x23-\x5b\x5d-\x7f]*)","config":"[\x20\x21\x23-\x5b\x5d-\x7f]*","config_hash":"([\x20\x21\x23-\x5b\x5d-\x7f]*)"`)

// readFrame returns the payload of the frame at off. ok is false when
// the remaining bytes do not contain one intact, checksum-clean frame.
func readFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	rest := data[off:]
	if len(rest) < 8 {
		return nil, 0, false
	}
	n := int64(binary.BigEndian.Uint32(rest[0:4]))
	sum := binary.BigEndian.Uint32(rest[4:8])
	if n <= 0 || n > maxJournalEntry || int64(len(rest)) < 8+n {
		return nil, 0, false
	}
	payload = rest[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, off + 8 + n, true
}

// checkAgainstReference fails t unless replayJournal over path, which
// holds data, agrees with the sequential reference, and unless every
// cell it indexed decodes exactly when its payload parses to a run of
// that cell, into that run. A cell whose payload is the bytes
// json.Marshal writes for its run must carry that run's key.
func checkAgainstReference(t *testing.T, path string, data []byte, want Fingerprint) {
	t.Helper()
	cells, validLen, err := replayJournal(path, want)
	refCells, refLen, refErr := replayJournalReference(data, want)
	if (err != nil) != (refErr != nil) || validLen != refLen || !reflect.DeepEqual(cells, refCells) {
		t.Fatalf("replayJournal: %d cells, length %d, err %v; reference: %d cells, length %d, err %v",
			len(cells), validLen, err, len(refCells), refLen, refErr)
	}
	for _, c := range cells {
		rec, err := c.Record()
		var e journalEntry
		parsed := json.Unmarshal(c.payload, &e) == nil && e.Run != nil
		if ok := parsed && e.Run.Bench == c.Bench && e.Run.ConfigHash == c.ConfigHash; ok != (err == nil) {
			t.Fatalf("cell %q %q: Record error %v; the payload parses to a run of this cell: %v", c.Bench, c.ConfigHash, err, ok)
		} else if ok && !reflect.DeepEqual(rec, *e.Run) {
			t.Fatalf("cell %q %q: Record gave %+v, the payload parses to %+v", c.Bench, c.ConfigHash, rec, *e.Run)
		}
		if canon, merr := json.Marshal(e); parsed && merr == nil && bytes.Equal(canon, c.payload) && err != nil {
			t.Fatalf("a frame json.Marshal wrote was indexed as %q %q, not as its run's key", c.Bench, c.ConfigHash)
		}
	}
}

// TestReplayJournalDamagedFrame: in a 5,000-frame journal, frame 3,000
// torn, failing its CRC, or CRC-valid but neither JSON nor keyed ends
// the valid prefix where the sequential reader ends it, however many
// CPUs the process has, and the open truncates the journal there.
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
				path := journalPath(dir)
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
				if st := j.ReplayStats(); st.Files != 1 || st.Frames != bad {
					t.Errorf("replay stats %+v, want 1 file and %d frames", st, bad)
				}
				if fi, err := os.Stat(path); err != nil || fi.Size() != int64(starts[bad]) {
					t.Errorf("journal not truncated at the damaged frame (err %v)", err)
				}
			})
		}
	}
}

// TestJournalIndexesWithoutDecoding: run frames whose key prefix is
// intact but whose CRC-valid bodies do not parse, or parse to another
// cell, are indexed, not decoded, so they do not end the valid prefix.
// A runner primed from them simulates each such cell once, however
// many requests race for it, bit-identically to a clean runner, and
// journals it; the next open serves every cell from the journal.
func TestJournalIndexesWithoutDecoding(t *testing.T) {
	opt := Options{Insts: 2000}
	jobs := []job{{"129.compress", nas(config.Naive)}, {"129.compress", nas(config.Sync)}}
	ref := runSweep(t, NewRunner(opt), jobs)

	// Journal the cells, then break each run frame's body after its key
	// and frame it again: the first no longer parses, the second repeats
	// "bench" with another name.
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt1 := opt
	opt1.Journal = j
	runSweep(t, NewRunner(opt1), jobs)
	j.Close()
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := []struct {
		cut int
		add string
	}{{1, "x"}, {2, `,"bench":"102.swim"}}`}}
	damaged := bytes.Clone(data[:len(journalMagic)])
	for off := int64(len(journalMagic)); off < int64(len(data)); {
		payload, next, ok := readFrame(data, off)
		if !ok {
			t.Fatalf("no intact frame at byte %d", off)
		}
		if bytes.HasPrefix(payload, []byte(`{"run":`)) {
			payload = append(bytes.Clone(payload[:len(payload)-damage[0].cut]), damage[0].add...)
			damage = damage[1:]
		}
		damaged = binary.BigEndian.AppendUint32(damaged, uint32(len(payload)))
		damaged = binary.BigEndian.AppendUint32(damaged, crc32.ChecksumIEEE(payload))
		damaged = append(damaged, payload...)
		off = next
	}
	if err := os.WriteFile(path, damaged, 0o666); err != nil {
		t.Fatal(err)
	}

	j2, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(jobs) {
		t.Fatalf("open indexed %d cells, want %d", len(cells), len(jobs))
	}
	for i, c := range cells {
		if _, err := c.Record(); err == nil || json.Valid(c.payload) != (i == 1) {
			t.Fatalf("cell %s %s: Record error %v from a damaged body (valid JSON: %v)", c.Bench, c.ConfigHash, err, json.Valid(c.payload))
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(damaged)) {
		t.Fatalf("open truncated a journal whose frames are all indexed (err %v)", err)
	}
	opt2 := opt
	opt2.Journal = j2
	r2 := NewRunner(opt2)
	if n := r2.Prime(cells); n != len(jobs) {
		t.Fatalf("Prime indexed %d cells, want %d", n, len(jobs))
	}
	runConcurrently(t, r2, jobs, ref, SourceSimulated)
	if c := r2.Counters(); c.JobsStarted != int64(len(jobs)) || c.Replayed != 0 {
		t.Errorf("counters %+v, want %d jobs started and none replayed", c, len(jobs))
	}
	if err := r2.JournalErr(); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// The fresh copies, appended after the damaged frames, win.
	j3, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	opt3 := opt
	opt3.Journal = j3
	r3 := NewRunner(opt3)
	r3.Prime(cells)
	runConcurrently(t, r3, jobs, ref, SourceJournal)
	if c := r3.Counters(); c.JobsStarted != 0 || c.Replayed != int64(len(jobs)) {
		t.Errorf("counters %+v after reopen, want no job started and %d cells replayed", c, len(jobs))
	}
}

// runConcurrently requests every job from four goroutines at once and
// fails t unless each answer has ref's stats and, for each job, one
// answer came from first (the others joining it or hitting the memo).
func runConcurrently(t *testing.T, r *Runner, jobs []job, ref map[runKeyID]*stats.Run, first RunSource) {
	t.Helper()
	const callers = 4
	srcs := make([]RunSource, len(jobs)*callers)
	var wg sync.WaitGroup
	for i := range srcs {
		jb := jobs[i/callers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, src, err := r.RunWithSource(bg, jb.bench, jb.cfg)
			if want := ref[runKeyID{jb.bench, jb.cfg.Hash()}]; err != nil || !reflect.DeepEqual(res, want) {
				t.Errorf("%s under %s: stats %+v (err %v), want %+v", jb.bench, jb.cfg.Name(), res, err, want)
			}
			srcs[i] = src
		}()
	}
	wg.Wait()
	for k, jb := range jobs {
		n := 0
		for _, src := range srcs[k*callers : (k+1)*callers] {
			if src == first {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s under %s: sources %v, want one %q", jb.bench, jb.cfg.Name(), srcs[k*callers:(k+1)*callers], first)
		}
	}
}

// FuzzJournalSegment: whatever bytes a journal file holds, opening it
// either fails or yields a journal whose appended cell replays after a
// reopen. It never panics, and it allocates in proportion to the file,
// never to a length prefix read from it. The replay agrees with the
// sequential reference on every input, and every cell it indexes
// decodes, or fails to, as checkAgainstReference requires.
func FuzzJournalSegment(f *testing.F) {
	opt := Options{Insts: 1000}
	header := journalBytes(f, opt)
	withRun := journalBytes(f, opt, journalRecord("126.gcc", nas(config.Naive), 1000))
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
		journalBytes(f, Options{Insts: 2000}),
	} {
		f.Add(seed)
	}
	want := journalRecord("102.swim", nas(config.Oracle), 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := journalPath(dir)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, path, data, opt.Fingerprint())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j, _, err := OpenJournal(dir, opt)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+256*uint64(len(data)) {
			t.Fatalf("opening a %d-byte journal allocated %d bytes", len(data), grew)
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
		j2, cells, err := OpenJournal(dir, opt)
		if err != nil {
			t.Fatalf("reopen after an append: %v", err)
		}
		defer j2.Close()
		for _, c := range cells {
			if c.Bench == want.Bench && c.ConfigHash == want.ConfigHash {
				if rec, err := c.Record(); err != nil || rec.Provenance != want.Provenance || *rec.Stats != *want.Stats {
					t.Fatalf("appended cell replayed as %+v (%v), want %+v", rec, err, want)
				}
				return
			}
		}
		t.Fatalf("appended cell missing from the %d replayed cells", len(cells))
	})
}

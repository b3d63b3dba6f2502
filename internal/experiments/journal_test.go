package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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
	path := filepath.Join(dir, journalName)
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

	path := filepath.Join(dir, journalName)
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
// runs.journal is not a journal must fail loudly.
func TestJournalRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte(`{"not":"a journal"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJournal(dir, Options{Insts: 1000})
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("foreign file accepted or wrong error: %v", err)
	}
}

// writeLease plants a lease file for segment id with the given
// heartbeat age, as a crashed (or live) foreign owner would leave it.
func writeLease(t *testing.T, dir, id string, pid int, hbAge time.Duration) {
	t.Helper()
	now := time.Now().Add(-hbAge).Unix()
	data, err := json.Marshal(leaseInfo{Owner: id, PID: pid, AcquiredUnix: now, HeartbeatUnix: now})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(leasePath(dir, id), data, 0o666); err != nil {
		t.Fatal(err)
	}
}

// readLease parses segment id's lease file.
func readLease(t *testing.T, dir, id string) leaseInfo {
	t.Helper()
	data, err := os.ReadFile(leasePath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	var info leaseInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("lease %s unparsable: %v", leasePath(dir, id), err)
	}
	return info
}

// TestJournalSegmentLeaseExclusive: a segment is single-writer — a
// second open of the same id while the lease is fresh must be refused
// with ErrLeaseHeld, a different id must coexist, and Close must
// release the lease so a successor takes over without waiting.
func TestJournalSegmentLeaseExclusive(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	j0, recs, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh segment replayed %d records", len(recs))
	}
	if got := readLease(t, dir, "w0"); got.Owner != "w0" || got.PID != os.Getpid() {
		t.Errorf("lease = %+v, want owner w0 pid %d", got, os.Getpid())
	}

	_, _, err = OpenJournalSegment(dir, "w0", opt, 0)
	var held *ErrLeaseHeld
	if !errors.As(err, &held) {
		t.Fatalf("double-open of a leased segment: err = %v, want ErrLeaseHeld", err)
	}
	if held.PID != os.Getpid() {
		t.Errorf("ErrLeaseHeld.PID = %d, want %d", held.PID, os.Getpid())
	}

	j1, _, err := OpenJournalSegment(dir, "w1", opt, 0)
	if err != nil {
		t.Fatalf("sibling segment refused: %v", err)
	}
	j1.Close()

	if err := j0.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leasePath(dir, "w0")); !os.IsNotExist(err) {
		t.Fatalf("Close left the lease behind: %v", err)
	}
	j0b, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatalf("reopen after clean release: %v", err)
	}
	j0b.Close()
}

// TestJournalSegmentStaleLeaseReclaim: a lease whose heartbeat is older
// than the TTL belongs to a dead writer and must be reclaimed; an
// unparsable (torn) lease is equally evidence of death.
func TestJournalSegmentStaleLeaseReclaim(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	writeLease(t, dir, "w0", 99999, time.Hour)
	j, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatalf("stale lease not reclaimed: %v", err)
	}
	if got := readLease(t, dir, "w0"); got.PID != os.Getpid() {
		t.Errorf("reclaimed lease pid = %d, want %d", got.PID, os.Getpid())
	}
	j.Close()

	if err := os.WriteFile(leasePath(dir, "w1"), []byte("torn{"), 0o666); err != nil {
		t.Fatal(err)
	}
	j1, _, err := OpenJournalSegment(dir, "w1", opt, 0)
	if err != nil {
		t.Fatalf("torn lease not reclaimed: %v", err)
	}
	j1.Close()

	// A fresh heartbeat, however stale the acquire time, means alive.
	writeLease(t, dir, "w2", 99999, 0)
	if _, _, err := OpenJournalSegment(dir, "w2", opt, 0); err == nil {
		t.Fatal("fresh foreign lease was stolen")
	}
}

// TestJournalHeartbeat: Heartbeat must rewrite the lease with a fresh
// liveness timestamp; on the legacy unleased journal it is a no-op.
func TestJournalHeartbeat(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	j, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Age the on-disk lease, then heartbeat: the timestamp must recover.
	writeLease(t, dir, "w0", os.Getpid(), time.Hour)
	if err := j.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if got := readLease(t, dir, "w0"); time.Since(time.Unix(got.HeartbeatUnix, 0)) > time.Minute {
		t.Errorf("heartbeat did not refresh the lease: %+v", got)
	}

	legacy, _, err := OpenJournal(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if err := legacy.Heartbeat(); err != nil {
		t.Errorf("Heartbeat on unleased journal: %v", err)
	}
}

// TestBreakLease: the supervisor's force-release (used only after
// waitpid proves the owner dead) must let a successor reacquire
// immediately, without waiting out the TTL.
func TestBreakLease(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	writeLease(t, dir, "w0", 99999, 0) // fresh: unreclaimable by TTL
	if _, _, err := OpenJournalSegment(dir, "w0", opt, 0); err == nil {
		t.Fatal("fresh lease acquired without BreakLease")
	}
	if err := BreakLease(dir, "w0"); err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournalSegment(dir, "w0", opt, 0)
	if err != nil {
		t.Fatalf("reacquire after BreakLease: %v", err)
	}
	j.Close()

	// Breaking a lease that is not there is not an error (the worker
	// may have released it on a clean exit).
	if err := BreakLease(dir, "w0"); err != nil {
		t.Errorf("BreakLease on released lease: %v", err)
	}
	if err := BreakLease(dir, "../evil"); err == nil {
		t.Error("BreakLease accepted a path-escaping id")
	}
}

// TestJournalSegmentIDValidation: ids are filename tokens; anything
// that could escape the directory or collide with runs.journal is
// rejected.
func TestJournalSegmentIDValidation(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"", "a/b", "..", "w 0", "w.0"} {
		if _, _, err := OpenJournalSegment(dir, id, Options{Insts: 1000}, 0); err == nil {
			t.Errorf("segment id %q accepted", id)
		}
	}
}

// TestReplayJournalDirMerges: the merged replay spans the legacy
// runs.journal and every segment, deduplicating per cell with the
// lexically-last copy winning.
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

	// A segment under a different fingerprint poisons the whole merge.
	foreign, _, err := openJournalFile(SegmentPath(dir, "w2"), Options{Insts: 2000}.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	foreign.Close()
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

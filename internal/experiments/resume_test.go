package experiments

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// sweepJobs is the small real-simulation sweep the resume tests run.
func sweepJobs() []job {
	return []job{
		{"129.compress", nas(config.Naive)},
		{"129.compress", nas(config.Sync)},
		{"102.swim", nas(config.Naive)},
		{"102.swim", nas(config.Sync)},
	}
}

// runSweep executes the jobs and returns the per-cell stats keyed by
// (bench, config hash).
func runSweep(t *testing.T, r *Runner, jobs []job) map[runKeyID]*stats.Run {
	t.Helper()
	out := make(map[runKeyID]*stats.Run)
	for _, j := range jobs {
		res, err := r.Run(bg, j.bench, j.cfg)
		if err != nil {
			t.Fatalf("%s under %s: %v", j.bench, j.cfg.Name(), err)
		}
		out[runKeyID{j.bench, j.cfg.Hash()}] = res
	}
	return out
}

// TestResumeBitIdentical is the library-level kill-resume equivalence
// proof: a sweep journaled to completion, "killed" (journal reopened as
// a crash would leave it), and resumed must produce per-cell statistics
// bit-identical to an uninterrupted run — with the already-finished
// cells replayed from the journal instead of re-simulated.
func TestResumeBitIdentical(t *testing.T) {
	opt := Options{Insts: 6_000, Sampled: true, TimingWindow: 1_000, FunctionalWindow: 2_000}
	jobs := sweepJobs()

	// Reference: one uninterrupted sweep.
	ref := runSweep(t, NewRunner(opt), jobs)

	// "Crashed" sweep: journal only the first half, then abandon the
	// runner (as SIGKILL would — no flush beyond the per-append fsync).
	dir := t.TempDir()
	j1, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	opt1 := opt
	opt1.Journal = j1
	r1 := NewRunner(opt1)
	runSweep(t, r1, jobs[:2])
	j1.Close()

	// Resume: replay the journal, prime a fresh runner, run the full
	// sweep. The first half must be served from the journal.
	j2, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opt2 := opt
	opt2.Journal = j2
	r2 := NewRunner(opt2)
	if n := r2.Prime(recs); n != 2 {
		t.Fatalf("Prime accepted %d records, want 2", n)
	}
	resumed := runSweep(t, r2, jobs)

	if got := r2.Counters().Replayed; got != 2 {
		t.Errorf("Replayed = %d, want 2 cells served from the journal", got)
	}
	if got := r2.Counters().JobsStarted; got != 2 {
		t.Errorf("JobsStarted = %d, want only the 2 unfinished cells simulated", got)
	}
	for k, want := range ref {
		got, ok := resumed[k]
		if !ok {
			t.Fatalf("resumed sweep missing cell %v", k)
		}
		if *got != *want {
			t.Errorf("cell %v differs after resume:\nref:     %+v\nresumed: %+v", k, *want, *got)
		}
	}
	if err := r2.JournalErr(); err != nil {
		t.Errorf("JournalErr = %v", err)
	}

	// The resumed sweep journaled its two new cells; a third open must
	// replay all four.
	j2.Close()
	_, recs, err = OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("journal holds %d cells after resume, want 4", len(recs))
	}
}

// TestCrashRecoveryKeepsOlderFiles is TestResumeBitIdentical with a
// crash mid-append, next to a file an older build left: an older fleet
// worker's runs.w0.journal holds half of a sweep, and the journal's
// writer is "SIGKILLed" while appending the other half (its file closes
// without Close, its last frame is torn). Recovery must take the
// journal over at once, truncate exactly its torn tail — not a byte of
// the older file — and replay every other cell from both files
// bit-identically, re-simulating only the torn one.
func TestCrashRecoveryKeepsOlderFiles(t *testing.T) {
	opt := Options{Insts: 6_000, Sampled: true, TimingWindow: 1_000, FunctionalWindow: 2_000}
	jobs := sweepJobs()

	// Reference: one uninterrupted sweep.
	ref := runSweep(t, NewRunner(opt), jobs)

	// The older file: the first half, journaled elsewhere and copied in.
	wdir := t.TempDir()
	jw, _, err := OpenJournal(wdir, opt)
	if err != nil {
		t.Fatal(err)
	}
	optW := opt
	optW.Journal = jw
	runSweep(t, NewRunner(optW), jobs[:2])
	jw.Close()
	olderBytes, err := os.ReadFile(journalPath(wdir))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	older := filepath.Join(dir, "runs.w0.journal")
	if err := os.WriteFile(older, olderBytes, 0o666); err != nil {
		t.Fatal(err)
	}

	// The writer journals the second half one cell at a time so the test
	// can record its file's frame boundaries.
	j1, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("open replayed %d cells from the older file, want 2", len(recs))
	}
	opt1 := opt
	opt1.Journal = j1
	r1 := NewRunner(opt1)
	var sizes []int64
	for _, jb := range jobs[2:] {
		if _, err := r1.Run(bg, jb.bench, jb.cfg); err != nil {
			t.Fatalf("%s under %s: %v", jb.bench, jb.cfg.Name(), err)
		}
		fi, err := os.Stat(journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}

	// "SIGKILL" the writer mid-append: its file closes the way a dying
	// process's does, which drops the lock, and its last frame is torn.
	j1.f.Close()
	if err := os.Truncate(journalPath(dir), sizes[1]-11); err != nil {
		t.Fatal(err)
	}

	// Recovery: the successor takes the journal over and repairs it —
	// truncated to exactly the last intact frame.
	j1b, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if fi, serr := os.Stat(journalPath(dir)); serr != nil {
		t.Fatal(serr)
	} else if fi.Size() != sizes[0] {
		t.Errorf("torn tail truncated to %d bytes, want exactly the intact prefix %d", fi.Size(), sizes[0])
	}
	if got, rerr := os.ReadFile(older); rerr != nil || !bytes.Equal(got, olderBytes) {
		t.Errorf("recovery modified the older file (err %v)", rerr)
	}
	if len(recs) != 3 {
		t.Fatalf("replay has %d cells, want 3 (both of the older file's, the journal's intact first)", len(recs))
	}

	// Resume the full sweep: only the torn cell re-simulates, and every
	// cell's statistics match the uninterrupted reference bit for bit.
	optR := opt
	optR.Journal = j1b
	r2 := NewRunner(optR)
	if n := r2.Prime(recs); n != 3 {
		t.Fatalf("Prime accepted %d records, want 3", n)
	}
	resumed := runSweep(t, r2, jobs)
	if got := r2.Counters().Replayed; got != 3 {
		t.Errorf("Replayed = %d, want 3 cells served from the two files", got)
	}
	if got := r2.Counters().JobsStarted; got != 1 {
		t.Errorf("JobsStarted = %d, want only the torn cell re-simulated", got)
	}
	for k, want := range ref {
		got, ok := resumed[k]
		if !ok {
			t.Fatalf("resumed sweep missing cell %v", k)
		}
		if *got != *want {
			t.Errorf("cell %v differs after crash recovery:\nref:     %+v\nresumed: %+v", k, *want, *got)
		}
	}
	j1b.Close()

	// After recovery the directory holds all four cells again.
	recs, err = ReplayJournalDir(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("directory replays %d cells after recovery, want 4", len(recs))
	}
}

// TestPrimeSkipsForeignRecords: records from a different runner version
// or budget must not prime the cache.
func TestPrimeSkipsForeignRecords(t *testing.T) {
	r := NewRunner(Options{Insts: 1000})
	good := journalRecord("126.gcc", nas(config.Naive), 1000)
	wrongInsts := journalRecord("126.gcc", nas(config.Sync), 2000)
	wrongRunner := journalRecord("102.swim", nas(config.Naive), 1000)
	wrongRunner.Runner = "mdspec-runner/0"
	noStats := journalRecord("102.swim", nas(config.Sync), 1000)
	noStats.Stats = nil
	// The retired serial sampled fallback computed another estimator.
	retired := journalRecord("099.go", nas(config.Naive), 1000)
	retired.Fallback = "serial-sampled"

	if n := r.Prime([]RunRecord{good, wrongInsts, wrongRunner, noStats, retired}); n != 1 {
		t.Fatalf("Prime accepted %d records, want 1", n)
	}

	// The primed cell is served without simulation...
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return nil, errors.New("should not simulate a primed cell")
	}
	res, err := r.Run(bg, "126.gcc", nas(config.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if *res != *good.Stats {
		t.Errorf("primed cell returned %+v, want the journaled stats", res)
	}
	if r.Counters().Replayed != 1 {
		t.Errorf("Replayed = %d, want 1", r.Counters().Replayed)
	}
	// ...and appears in Records with its original provenance.
	recs := r.Records()
	if len(recs) != 1 || recs[0].WallSeconds != good.WallSeconds {
		t.Errorf("Records() = %+v, want the journaled record verbatim", recs)
	}

	// The rejected cells would simulate (and here, fail).
	if _, err := r.Run(bg, "126.gcc", nas(config.Sync)); err == nil {
		t.Error("cell with mismatched budget was served from the journal")
	}
	if _, err := r.Run(bg, "099.go", nas(config.Naive)); err == nil {
		t.Error("cell of the retired serial sampled fallback was served from the journal")
	}
}

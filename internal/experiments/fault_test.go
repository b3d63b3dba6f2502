//go:build mdfault

package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/faultinject"
	"mdspec/internal/retry"
	"mdspec/internal/stats"
)

// TestInjectedJobPanicRetried: a seeded panic at the runner.job site is
// recovered into a *RunPanicError and retried; with the plan one-shot,
// the retry succeeds and the cell's record shows the extra attempt.
func TestInjectedJobPanicRetried(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Retry: retry.Policy{MaxAttempts: 3}})
	r.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return &stats.Run{Workload: bench, Config: cfg.Name(), Cycles: 2, Committed: 1}, nil
	}

	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteRunnerJob, N: 1, Kind: faultinject.KindPanic,
	})
	defer faultinject.Disarm()

	var sawPanic bool
	r.opt.Hooks.JobRetried = func(bench, cfg string, attempt int, err error) {
		var pe *RunPanicError
		if errors.As(err, &pe) {
			if _, ok := pe.Value.(*faultinject.InjectedPanic); ok {
				sawPanic = true
			}
		}
	}

	res, err := r.Run(bg, "126.gcc", nas(config.Naive))
	if err != nil {
		t.Fatalf("retry should absorb the one-shot injected panic: %v", err)
	}
	if res == nil || !sawPanic {
		t.Fatalf("res=%v sawPanic=%v, want a result after retrying the injected panic", res, sawPanic)
	}
	recs := r.Records()
	if len(recs) != 1 || recs[0].Attempts != 2 {
		t.Errorf("record = %+v, want Attempts=2 (injected panic + clean retry)", recs[0])
	}
}

// TestInjectedJournalAppendError: a seeded error at the journal.append
// site must not fail the cell or the sweep — it surfaces through
// JournalErr as degraded resumability, and the journal skips only the
// poisoned entry.
func TestInjectedJournalAppendError(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}
	j, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	opt.Journal = j

	r := NewRunner(opt)
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return &stats.Run{Workload: bench, Config: cfg.Name(), Cycles: 2, Committed: 1}, nil
	}

	// Arm after the journal's init so its meta append is untouched;
	// counting starts at Arm, so N=1 fires on the next run's append.
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteJournalAppend, N: 1, Kind: faultinject.KindError,
	})
	defer faultinject.Disarm()

	if _, err := r.Run(bg, "126.gcc", nas(config.Naive)); err != nil {
		t.Fatalf("journal failure must not fail the cell: %v", err)
	}
	if _, err := r.Run(bg, "126.gcc", nas(config.Sync)); err != nil {
		t.Fatal(err)
	}

	jerr := r.JournalErr()
	var inj *faultinject.InjectedError
	if jerr == nil || !errors.As(jerr, &inj) {
		t.Fatalf("JournalErr = %v, want the injected append error", jerr)
	}

	// The first cell's entry was lost (degraded resumability); the
	// second was journaled normally.
	j.Close()
	_, recs, err := OpenJournal(dir, Options{Insts: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Config != "NAS/SYNC" {
		t.Fatalf("journal replayed %+v, want only the NAS/SYNC cell", recs)
	}
}

// TestInjectedJournalLockError: a seeded error at the journal.lock
// site must fail the open with that error and leave nothing behind —
// the next open of the directory takes the journal at once, so no
// descriptor or lock leaked.
func TestInjectedJournalLockError(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteJournalLock, N: 1, Kind: faultinject.KindError,
	})
	defer faultinject.Disarm()

	_, _, err := OpenJournal(dir, opt)
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("open with an armed journal.lock fault: err = %v, want the injected error", err)
	}
	j, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatalf("open after the injected failure: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedRecordingWriteError: a seeded error at the atomicio.write
// site while a RecordingDir runner captures a full-timing cell must not
// fail the cell or change its statistics — the runner replays its
// in-memory capture — and must publish nothing: the directory holds no
// .mdrec and no temp file.
func TestInjectedRecordingWriteError(t *testing.T) {
	const bench = "129.compress"
	cfg := nas(config.Sync)
	opt := Options{Insts: 5_000}
	want, err := NewRunner(opt).Run(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteAtomicWrite, N: 1, Kind: faultinject.KindError, Repeat: true,
	})
	defer faultinject.Disarm()
	opt.RecordingDir = dir
	r := NewRunner(opt)
	defer r.Close()
	got, err := r.Run(bg, bench, cfg)
	if err != nil {
		t.Fatalf("atomicio.write fault must not fail the cell: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("stats under an atomicio.write fault differ from the unarmed run")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed recording write left %s behind", e.Name())
	}
}

// faultCkptOpt mirrors ckptOpt from ckpt_test.go with a RecordingDir,
// at a geometry small enough for tagged CI runs.
func faultCkptOpt(dir string) Options {
	o := ckptOpt()
	o.RecordingDir = dir
	return o
}

// TestInjectedCkptWriteError: a seeded error at the ckpt.write site
// must not fail the cell — the sweep runs on the in-memory set, no
// file is published, and a later healthy runner re-captures it.
func TestInjectedCkptWriteError(t *testing.T) {
	const bench = "129.compress"
	cfg := nas(config.Sync)

	// Ground truth from an in-memory (never-written) checkpointed run.
	want, err := NewRunner(ckptOpt()).Run(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteCkptWrite, N: 1, Kind: faultinject.KindError,
	})
	defer faultinject.Disarm()

	r := NewRunner(faultCkptOpt(dir))
	defer r.Close()
	got, err := r.Run(bg, bench, cfg)
	if err != nil {
		t.Fatalf("ckpt.write fault must not fail the cell: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("stats under a ckpt.write fault differ from the clean run")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.mdckpt")); len(files) != 0 {
		t.Errorf("failed checkpoint write still published %v", files)
	}

	// A healthy runner over the same directory captures the file.
	faultinject.Disarm()
	h := NewRunner(faultCkptOpt(dir))
	defer h.Close()
	if _, err := h.Run(bg, bench, cfg); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.mdckpt")); len(files) != 1 {
		t.Errorf("healthy runner did not re-capture the checkpoint file, got %v", files)
	}
}

// TestInjectedCkptLoadError: a seeded error at the ckpt.load site must
// fall back to functional fast-forward with bit-identical statistics,
// and the (actually healthy) file is re-captured in place.
func TestInjectedCkptLoadError(t *testing.T) {
	const bench = "129.compress"
	cfg := nas(config.Sync)
	dir := t.TempDir()

	seed := NewRunner(faultCkptOpt(dir))
	defer seed.Close()
	want, err := seed.Run(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.mdckpt"))
	if len(files) != 1 {
		t.Fatalf("seed runner published %v, want one checkpoint file", files)
	}

	faultinject.Arm(faultinject.Plan{
		Site: faultinject.SiteCkptLoad, N: 1, Kind: faultinject.KindError,
	})
	defer faultinject.Disarm()

	r := NewRunner(faultCkptOpt(dir))
	defer r.Close()
	got, err := r.Run(bg, bench, cfg)
	if err != nil {
		t.Fatalf("ckpt.load fault must not fail the cell: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("stats under a ckpt.load fault differ — the fallback changed results")
	}
	c := r.Counters()
	if c.CheckpointMisses != 1 || c.CheckpointHits != 0 {
		t.Errorf("counters = %+v, want the load fault counted as a re-capture miss", c)
	}

	// The re-captured file is valid for the next runner.
	faultinject.Disarm()
	h := NewRunner(faultCkptOpt(dir))
	defer h.Close()
	if _, err := h.Run(bg, bench, cfg); err != nil {
		t.Fatal(err)
	}
	if hc := h.Counters(); hc.CheckpointHits != 1 || hc.CheckpointMisses != 0 {
		t.Errorf("counters after re-capture = %+v, want a clean hit", hc)
	}
}

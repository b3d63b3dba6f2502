//go:build unix && !aix && (!solaris || illumos)

package experiments

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"testing"

	"mdspec/internal/config"
)

// lockHelperEnv, set to a journal directory, makes
// TestJournalLockAcrossProcesses act as its own helper process.
const lockHelperEnv = "MDSPEC_JOURNAL_LOCK_HELPER"

// TestJournalLockExclusive: a directory has one writer — a second open
// of its journal while the first is open must be refused with
// ErrJournalLocked, and Close must release the lock so a successor
// takes over without waiting.
func TestJournalLockExclusive(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Insts: 1000}

	j0, recs, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}

	_, _, err = OpenJournal(dir, opt)
	var held *ErrJournalLocked
	if !errors.As(err, &held) {
		t.Fatalf("double-open of a locked journal: err = %v, want ErrJournalLocked", err)
	}
	if held.Path != journalPath(dir) {
		t.Errorf("ErrJournalLocked.Path = %s, want %s", held.Path, journalPath(dir))
	}

	if err := j0.Close(); err != nil {
		t.Fatal(err)
	}
	j0b, _, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatalf("reopen after clean release: %v", err)
	}
	j0b.Close()
}

// TestJournalLockAcrossProcesses: a helper process holds the journal
// with one cell journaled. While it lives, opening the directory here
// is refused; once it is SIGKILLed and reaped, the open succeeds at
// once, with no wait and no break step, and replays the helper's cell.
func TestJournalLockAcrossProcesses(t *testing.T) {
	opt := Options{Insts: 1000}
	cell := journalRecord("126.gcc", nas(config.Naive), 1000)
	if dir := os.Getenv(lockHelperEnv); dir != "" {
		j, _, err := OpenJournal(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(cell); err != nil {
			t.Fatal(err)
		}
		fmt.Println("ready")
		// Hold the journal until killed, or until the parent is gone.
		_, _ = io.Copy(io.Discard, os.Stdin)
		return
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestJournalLockAcrossProcesses$")
	cmd.Env = append(os.Environ(), lockHelperEnv+"="+dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stdin.Close()
		_ = cmd.Process.Kill() // already dead on the success path
		_ = cmd.Wait()
	}()
	if line, err := bufio.NewReader(stdout).ReadString('\n'); line != "ready\n" {
		t.Fatalf("helper said %q (%v), want ready", line, err)
	}

	_, _, err = OpenJournal(dir, opt)
	var held *ErrJournalLocked
	if !errors.As(err, &held) {
		t.Fatalf("open while another process holds the journal: err = %v, want ErrJournalLocked", err)
	}

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // "signal: killed"
	j, cells, err := OpenJournal(dir, opt)
	if err != nil {
		t.Fatalf("open right after the holder was killed: %v", err)
	}
	defer j.Close()
	recs := cellRecords(t, cells)
	if len(recs) != 1 || recs[0].Provenance != cell.Provenance || *recs[0].Stats != *cell.Stats {
		t.Fatalf("replayed %+v, want the killed helper's cell", recs)
	}
}

// Package atomicio writes artifacts crash-safely. A multi-hour sweep
// must never be left with a truncated JSON/CSV artifact or a
// half-written journal segment because the process died mid-write, so
// every artifact write goes through WriteFile: the content is produced
// into a temporary file in the destination directory, fsynced, and
// renamed over the destination in one atomic step, and the directory
// entry is fsynced afterwards. Readers therefore see either the old
// complete file or the new complete file, never a torn one.
//
// The package is deterministic (no wall-clock, no randomness beyond the
// kernel's temp-name counter, no goroutines) and is covered by mdvet's
// determinism analyzer.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mdspec/internal/faultinject"
)

// WriteFile atomically replaces path with the bytes write produces. On
// any failure — including a failure of write itself — the temporary
// file is removed and the previous content of path, if any, is left
// untouched.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	if err := faultinject.PointErr(faultinject.SiteAtomicWrite); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close() //md:errok cleanup on an already-failing write; the first error is the one reported
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", tmp, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	// Persist the new directory entry; without this a crash can undo
	// the rename even though the data blocks survived.
	if err = SyncDir(dir); err != nil {
		return err
	}
	return nil
}

// SyncDir fsyncs a directory so renames and creations within it are
// durable. Filesystems that cannot fsync directories (and say so with
// EINVAL-style errors on Sync, not on Open) are tolerated.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: sync dir %s: %w", dir, err)
	}
	defer d.Close() //md:errok read-only directory handle; nothing written through it
	// Best effort: some filesystems reject directory fsync (EINVAL);
	// the data-file fsync before the rename is the load-bearing one.
	_ = d.Sync() //md:errok deliberate best effort: EINVAL-style directory-fsync rejection is tolerated by contract
	return nil
}

// ProbeDir verifies dir exists (creating it if needed) and is writable
// by creating and removing a probe file. Runners call it before a long
// sweep so an unwritable artifact destination fails in seconds, not at
// serialization time hours later.
func ProbeDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("atomicio: output directory %s: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("atomicio: output directory %s is not writable: %w", dir, err)
	}
	name := f.Name()
	// The probe exists to surface unwritability early: a failing close
	// (quota exceeded, I/O error at flush) is exactly the signal it is
	// meant to catch, so it must not be dropped.
	closeErr := f.Close()
	if err := faultinject.PointErr(faultinject.SiteProbeClose); err != nil {
		closeErr = err
	}
	if closeErr != nil {
		os.Remove(name) //md:errok probe cleanup on an already-failing path; the close error is the one reported
		return fmt.Errorf("atomicio: output directory %s is not writable: %w", dir, closeErr)
	}
	if err := os.Remove(name); err != nil {
		return fmt.Errorf("atomicio: output directory %s: %w", dir, err)
	}
	return nil
}

//go:build unix && !aix && (!solaris || illumos)

package experiments

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockFile takes an exclusive flock on an open segment file without
// blocking. The lock belongs to the open file, so a second open of the
// segment is refused in this process as in any other, and the kernel
// drops it when the file closes, also when its process dies.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return &ErrLeaseHeld{Path: f.Name()}
	}
	if err != nil {
		return fmt.Errorf("journal: locking %s: %w", f.Name(), err)
	}
	return nil
}

//go:build linux

package fleet

import (
	"os"
	"syscall"
)

// sysProcAttr ties each worker's lifetime to the supervisor's: if the
// supervising thread dies without running its shutdown path (SIGKILL,
// OOM), the kernel delivers SIGKILL to the children, so a fleet can
// never outlive its supervisor as orphan processes holding their
// journal segments locked.
func sysProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// termSignal is the graceful-drain signal sent before escalating to
// SIGKILL.
func termSignal() os.Signal { return syscall.SIGTERM }

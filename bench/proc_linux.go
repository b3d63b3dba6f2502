//go:build linux

package bench

import "syscall"

// daemonProcAttr makes the kernel SIGKILL a started daemon if the
// benchmark dies without stopping it (mdserve does the same for its
// workers), so no run leaves processes behind.
func daemonProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

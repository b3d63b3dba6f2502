//go:build !linux

package bench

import "syscall"

func daemonProcAttr() *syscall.SysProcAttr { return nil }

package emu

import "syscall"

// dropPages tells the kernel that the mapped file bytes b are not needed
// for now. On a read-only shared file mapping the pages leave the
// process's resident set and the next read faults them back in from the
// page cache, so the bytes a reader sees never change.
func dropPages(b []byte) error {
	return syscall.Madvise(b, syscall.MADV_DONTNEED)
}

//go:build !linux

package emu

// dropPages is a no-op where the standard library has no madvise: the
// mapping's pages stay resident until Close.
func dropPages([]byte) error { return nil }

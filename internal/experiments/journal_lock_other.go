//go:build !unix || aix || (solaris && !illumos)

package experiments

import "os"

// lockFile takes no lock here: these platforms' syscall package has no
// flock. A segment is then single-writer only by convention, and a
// second writer on the same segment is not refused.
func lockFile(*os.File) error { return nil }

//go:build !unix || aix || (solaris && !illumos)

package experiments

import "os"

// lockFile takes no lock here: these platforms' syscall package has no
// flock. A journal directory is then single-writer only by convention,
// and a second writer is not refused.
func lockFile(*os.File) error { return nil }

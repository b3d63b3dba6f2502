package emu

// DetachColumns drops the chunks r holds, so a test in package emu_test
// can read the heap they occupied. r must not be replayed afterwards.
func DetachColumns(r *Recording) { r.chunks = nil }

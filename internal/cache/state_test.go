package cache

import (
	"hash/fnv"
	"reflect"
	"testing"
)

// xorshift64 gives the tests a deterministic access stream without
// math/rand (the package is under the determinism analyzer).
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

func warmStream(h *Hierarchy, n int, seed uint64) {
	rng := xorshift64(seed)
	for i := 0; i < n; i++ {
		v := rng.next()
		addr := uint32(v) & 0xfffff
		if v&(1<<32) != 0 {
			h.D.Warm(addr, v&(1<<33) != 0)
		} else {
			h.I.Warm(addr&^3, false)
		}
	}
}

func TestHierarchyStateRoundTrip(t *testing.T) {
	src := Table2()
	warmStream(src, 20000, 1)

	b := src.AppendState(nil)
	want := cacheHdrBytes*3 +
		(len(src.I.ways)+len(src.D.ways)+len(src.L2.ways))*wayBytes +
		mainMemABytes
	if len(b) != want {
		t.Fatalf("state length = %d, want %d", len(b), want)
	}

	dst := Table2()
	n, err := dst.RestoreState(b)
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if n != len(b) {
		t.Fatalf("RestoreState consumed %d of %d bytes", n, len(b))
	}
	if !reflect.DeepEqual(src, dst) {
		t.Fatal("restored hierarchy differs from source")
	}

	// A restored hierarchy must behave bit-identically from here on,
	// for both further warming and timed accesses.
	warmStream(src, 5000, 2)
	warmStream(dst, 5000, 2)
	for i, addr := range []uint32{0, 32, 64, 4096, 12345, 0xabcd0} {
		a := src.D.Access(addr, int64(i*10), i%2 == 0)
		b := dst.D.Access(addr, int64(i*10), i%2 == 0)
		if a != b {
			t.Fatalf("access %d: done cycle %d != %d", i, a, b)
		}
	}
	if !reflect.DeepEqual(src, dst) {
		t.Fatal("hierarchies diverged after restore")
	}
}

// TestAppendStateBytesPinned pins the warm-state byte stream of a
// warmed Table 2 hierarchy: MDCKPT01 checkpoint files embed these bytes,
// so any change to the way storage order, the field encoding or the
// header would strand every .mdckpt file already on disk.
func TestAppendStateBytesPinned(t *testing.T) {
	h := Table2()
	warmStream(h, 20000, 1)
	b := h.AppendState(nil)
	f := fnv.New64a()
	f.Write(b)
	const wantLen, wantFNV = 466072, 0xedb12b3e9af52282
	if len(b) != wantLen || f.Sum64() != wantFNV {
		t.Fatalf("warm state = %d bytes, FNV-1a %#x; want %d bytes, %#x",
			len(b), f.Sum64(), wantLen, uint64(wantFNV))
	}
}

func TestRestoreStateValidatesBeforeMutating(t *testing.T) {
	src := Table2()
	warmStream(src, 1000, 3)
	b := src.I.AppendState(nil)

	fresh := Table2()
	pristine := Table2()

	// Truncated buffer: nothing may change.
	if _, err := fresh.I.RestoreState(b[:len(b)-1]); err != ErrStateTruncated {
		t.Fatalf("truncated restore: err = %v, want ErrStateTruncated", err)
	}
	if _, err := fresh.I.RestoreState(b[:8]); err != ErrStateTruncated {
		t.Fatalf("short-header restore: err = %v, want ErrStateTruncated", err)
	}
	// Geometry mismatch: the I-cache state must not restore into the
	// (differently shaped) D-cache.
	if _, err := fresh.D.RestoreState(b); err != ErrStateGeometry {
		t.Fatalf("geometry mismatch: err = %v, want ErrStateGeometry", err)
	}
	if !reflect.DeepEqual(fresh, pristine) {
		t.Fatal("failed restore mutated the cache")
	}
}

func TestMainMemoryStateRoundTrip(t *testing.T) {
	m := &MainMemory{Latency: 40, Accesses: 12345}
	b := m.AppendState(nil)
	got := &MainMemory{Latency: 40}
	if n, err := got.RestoreState(b); err != nil || n != len(b) {
		t.Fatalf("RestoreState = %d, %v", n, err)
	}
	if got.Accesses != 12345 {
		t.Fatalf("Accesses = %d, want 12345", got.Accesses)
	}
	if _, err := got.RestoreState(b[:4]); err != ErrStateTruncated {
		t.Fatalf("truncated: err = %v, want ErrStateTruncated", err)
	}
}

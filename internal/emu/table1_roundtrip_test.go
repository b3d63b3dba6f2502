package emu_test

import (
	"reflect"
	"runtime"
	"testing"

	"mdspec/internal/emu"
	"mdspec/internal/workload"
)

// TestColumnarRoundTripTable1 is the property test over the full
// benchmark suite: for every Table 1 analog, a delta-encoded columnar
// recording must replay a stream DeepEqual to the direct (uncompressed)
// Trace. It lives in an external test package because workload itself
// imports emu.
func TestColumnarRoundTripTable1(t *testing.T) {
	horizon := int64(20_000)
	if testing.Short() {
		horizon = 4_000
	}
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := workload.MustBuild(name)
			tr := emu.NewTrace(emu.New(p))
			rec := emu.NewRecording(emu.New(p))
			rec.Record(horizon)
			rp := rec.NewReplay()
			var n int64
			for ; n < horizon; n++ {
				want := tr.At(n)
				got := rp.At(n)
				if (want == nil) != (got == nil) {
					t.Fatalf("seq %d: trace nil=%v, replay nil=%v", n, want == nil, got == nil)
				}
				if want == nil {
					break
				}
				if !reflect.DeepEqual(*want, *got) {
					t.Fatalf("seq %d:\nwant %+v\ngot  %+v", n, *want, *got)
				}
				tr.Release(n - 64)
			}
			if n == 0 {
				t.Fatalf("%s produced no instructions", name)
			}
		})
	}
}

// TestRecordingFootprint pins the columnar layout's headline number:
// the in-memory recording must stay at or below 13 bytes/inst (the old
// array-of-DynInst chunks cost ~88).
func TestRecordingFootprint(t *testing.T) {
	p := workload.MustBuild("126.gcc")
	rec := emu.NewRecording(emu.New(p))
	rec.Record(50_000)
	n := rec.Len()
	if n < 50_000 {
		t.Fatalf("recorded only %d insts", n)
	}
	if bpi := float64(rec.SizeBytes()) / float64(n); bpi > 13 {
		t.Errorf("recording costs %.1f bytes/inst in memory, want <= 13", bpi)
	}
}

// TestRecordingHeapMatchesSizeBytes captures every suite benchmark to
// the horizon the benchmark's cell-timing workload records (50,000
// instructions and 65,536 of slack) and reads the heap their chunks
// hold. Sealed chunks carry no spare capacity, so that heap is
// SizeBytes up to the allocator's size-class rounding: within 5%.
func TestRecordingHeapMatchesSizeBytes(t *testing.T) {
	horizon := int64(50_000 + 1<<16)
	if testing.Short() {
		horizon = 20_000
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var recs []*emu.Recording
	var size, insts int64
	for _, name := range workload.Names() {
		rec := emu.NewRecording(emu.New(workload.MustBuild(name)))
		rec.Record(horizon)
		size += rec.SizeBytes()
		insts += rec.Len()
		recs = append(recs, rec)
	}
	before := heap()
	for _, rec := range recs {
		emu.DetachColumns(rec)
	}
	held := before - heap()
	runtime.KeepAlive(recs)
	t.Logf("%d recordings, %d insts: SizeBytes %d (%.2f B/inst), chunk heap %d (%+.2f%%)",
		len(recs), insts, size, float64(size)/float64(insts), held, 100*float64(held-size)/float64(size))
	if held < size*95/100 || held > size*105/100 {
		t.Errorf("chunks hold %d bytes of heap, SizeBytes is %d: want within 5%%", held, size)
	}
}

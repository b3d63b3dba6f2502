package emu

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mdspec/internal/isa"
	"mdspec/internal/prog"
)

// loopProgram builds a counted loop with a mix of ALU and memory work,
// long enough to span several recording chunks.
func loopProgram(iters int64) *prog.Program {
	b := prog.NewBuilder()
	arena := b.AllocAligned(64, 4096)
	b.Li(isa.R1, int64(arena))
	b.Li(isa.R9, iters)
	b.Label("top")
	b.Sw(isa.R9, isa.R1, 0)
	b.Lw(isa.R2, isa.R1, 0)
	b.Add(isa.R3, isa.R2, isa.R9)
	b.Addi(isa.R9, isa.R9, -1)
	b.Bne(isa.R9, isa.R0, "top")
	b.Halt()
	return b.MustProgram()
}

// TestReplayMatchesTrace runs the same program through a windowed Trace
// and through a Recording replay and requires identical streams.
func TestReplayMatchesTrace(t *testing.T) {
	p := loopProgram(3000) // ~15k dynamic instructions, several chunks
	tr := NewTrace(New(p))
	rec := NewRecording(New(p))
	rec.Record(1 << 20)
	rp := rec.NewReplay()
	var n int64
	for ; ; n++ {
		want := tr.At(n)
		got := rp.At(n)
		if (want == nil) != (got == nil) {
			t.Fatalf("seq %d: trace nil=%v, replay nil=%v", n, want == nil, got == nil)
		}
		if want == nil {
			break
		}
		if *want != *got {
			t.Fatalf("seq %d: trace %+v, replay %+v", n, *want, *got)
		}
		// Keep the trace window small, as a pipeline would.
		if n > 64 {
			tr.Release(n - 64)
		}
	}
	if rp.Len() != n {
		t.Errorf("replay Len() = %d after end, want %d", rp.Len(), n)
	}
}

// TestReplayConcurrentCursors runs many readers of one captured
// recording at once, each cursor reading a different interleaving
// (stride and offset) to the program's end. Run under -race this checks
// that readers share a recording without locks: Record returns before
// any replay starts, and nothing writes to the recording after it.
func TestReplayConcurrentCursors(t *testing.T) {
	rec := NewRecording(New(loopProgram(2000)))
	rec.Record(1 << 20)
	ref := NewTrace(New(loopProgram(2000)))
	var refSum int64
	var refLen int64
	for ; ; refLen++ {
		d := ref.At(refLen)
		if d == nil {
			break
		}
		refSum += int64(d.PC) + d.LoadVal + d.StoreVal
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rp := rec.NewReplay()
			var sum int64
			stride := int64(1 + g%3)
			for off := int64(0); off < stride; off++ {
				for seq := off; seq < refLen; seq += stride {
					d := rp.At(seq)
					if d == nil {
						errs <- fmt.Errorf("replay returned nil mid-program at seq %d", seq)
						return
					}
					sum += int64(d.PC) + d.LoadVal + d.StoreVal
				}
			}
			if rp.At(refLen) != nil {
				errs <- fmt.Errorf("replay past the program's end at seq %d returned an instruction", refLen)
			}
			if sum != refSum {
				errs <- fmt.Errorf("checksum %d, want %d", sum, refSum)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecordingDoesNotPinProgram: a machine and a recording over it
// keep the program's code table and fingerprint, not the program, so
// the caller's copy (with its data image) is collected while the
// recording is still live and replaying; and Record drops the machine,
// so its memory image is collected too.
func TestRecordingDoesNotPinProgram(t *testing.T) {
	p := loopProgram(3000)
	fp := ProgramFingerprint(p)
	progFreed, machineFreed := make(chan struct{}), make(chan struct{})
	runtime.SetFinalizer(p, func(*prog.Program) { close(progFreed) })
	m := New(p)
	runtime.SetFinalizer(m, func(*Machine) { close(machineFreed) })
	rec := NewRecording(m)
	rec.Record(10_000)
	p, m = nil, nil
	for _, c := range []struct {
		what  string
		freed chan struct{}
	}{{"program", progFreed}, {"machine", machineFreed}} {
		collected := false
		for i := 0; i < 20 && !collected; i++ {
			runtime.GC()
			select {
			case <-c.freed:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !collected {
			t.Fatalf("the %s was not collected while its recording is live", c.what)
		}
	}
	if rec.NewReplay().At(9_999) == nil || rec.Fingerprint() != fp {
		t.Error("the recording lost its stream or its fingerprint")
	}
}

// TestRecordContextStopsWhenDone: a capture whose context is done stops
// at the next chunk boundary with the context's error and drops its
// machine, so a canceled request does not wait for a whole capture.
func TestRecordContextStopsWhenDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := NewRecording(New(loopProgram(100_000)))
	if err := rec.RecordContext(ctx, 1<<20); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecordContext under a canceled context = %v, want context.Canceled", err)
	}
	if rec.Len() != 0 || !rec.Prefix() || rec.m != nil {
		t.Errorf("canceled capture holds %d instructions (prefix %v, machine kept %v), want an empty prefix and no machine",
			rec.Len(), rec.Prefix(), rec.m != nil)
	}
}

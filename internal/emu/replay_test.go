package emu

import (
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
	rp := NewRecording(New(p)).NewReplay()
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

// TestReplayConcurrentCursors races many cursors over one recording,
// each reading a different interleaving (stride and offset), so cursors
// both extend the recording and read far behind its frontier. Run under
// -race this checks the publication protocol.
func TestReplayConcurrentCursors(t *testing.T) {
	rec := NewRecording(New(loopProgram(2000)))
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
// recording is still live and replaying.
func TestRecordingDoesNotPinProgram(t *testing.T) {
	p := loopProgram(3000)
	fp := ProgramFingerprint(p)
	freed := make(chan struct{})
	runtime.SetFinalizer(p, func(*prog.Program) { close(freed) })
	rec := NewRecording(New(p))
	rec.Record(10_000)
	p = nil
	collected := false
	for i := 0; i < 20 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Fatal("the program was not collected while its recording is live")
	}
	if rec.NewReplay().At(9_999) == nil || rec.Fingerprint() != fp {
		t.Error("the recording lost its stream or its fingerprint")
	}
}

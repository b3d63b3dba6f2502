package core

import (
	"reflect"
	"testing"

	"mdspec/internal/bpred"
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/workload"
)

func TestWarmerStateRoundTrip(t *testing.T) {
	p := workload.MustBuild("129.compress")
	cfg := config.Default128().WithPolicy(config.Sync)
	rec := emu.NewRecording(emu.New(p))
	rec.Record(60_000)

	src := NewMachineWarmer(cfg, rec.NewReplay())
	src.Advance(30_000)
	b := src.AppendState(nil)
	if len(b) != src.StateLen() {
		t.Fatalf("state length = %d, want %d", len(b), src.StateLen())
	}

	dst := NewMachineWarmer(cfg, rec.NewReplay())
	n, err := dst.RestoreState(b)
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if dst.Seq() != 30_000 || dst.Ended() {
		t.Fatalf("restored cursor = %d (ended %v), want 30000", dst.Seq(), dst.Ended())
	}

	// The restored warmer and the original must stay bit-identical
	// through further warming.
	src.Advance(10_000)
	dst.Advance(10_000)
	sb := src.AppendState(nil)
	db := dst.AppendState(nil)
	if !reflect.DeepEqual(sb, db) {
		t.Fatal("warmers diverged after restore")
	}

	if _, err := dst.RestoreState(b[:len(b)-1]); err == nil {
		t.Fatal("truncated restore should fail")
	}
}

// TestRestoreWarmBitIdentical is the core checkpointing contract: a
// segment entered through a warm-state snapshot produces exactly the
// statistics of one entered through a full functional fast-forward.
func TestRestoreWarmBitIdentical(t *testing.T) {
	p := workload.MustBuild("102.swim")
	rec := emu.NewRecording(emu.New(p))
	rec.Record(80_000)

	const start, end, tw, fw, warmup = 45_000, 75_000, 5_000, 10_000, 5_000
	for _, cfg := range []config.Machine{
		config.Default128().WithPolicy(config.Sync),
		config.Default128().WithPolicy(config.Naive),
	} {
		// Reference: fresh machine, full fast-forward from sequence 0.
		ref, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RunSampledInterval(start, end, tw, fw, warmup)
		if err != nil {
			t.Fatal(err)
		}

		// Capture a snapshot mid-way through the warm-up fast-forward
		// region (strictly before start-warmup, leaving a residue).
		w := NewMachineWarmer(cfg, rec.NewReplay())
		w.Advance(30_000)
		snap := w.AppendState(nil)

		pl, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.RestoreWarm(snap); err != nil {
			t.Fatal(err)
		}
		got, err := pl.RunSampledInterval(start, end, tw, fw, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: checkpoint-resumed stats differ from fast-forwarded:\nwant %+v\ngot  %+v",
				cfg.Name(), want, got)
		}

		// A snapshot landing exactly on the warm-up start (zero residue)
		// must also match.
		w2 := NewMachineWarmer(cfg, rec.NewReplay())
		w2.Advance(start - warmup)
		pl2, err := New(cfg, rec.NewReplay())
		if err != nil {
			t.Fatal(err)
		}
		if err := pl2.RestoreWarm(w2.AppendState(nil)); err != nil {
			t.Fatal(err)
		}
		got2, err := pl2.RunSampledInterval(start, end, tw, fw, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got2) {
			t.Errorf("%s: zero-residue resume differs from fast-forwarded", cfg.Name())
		}
	}
}

func TestRestoreWarmRejects(t *testing.T) {
	p := workload.KernelRecurrence(500)
	cfg := config.Default128()
	rec := emu.NewRecording(emu.New(p))
	rec.Record(2_000)

	w := NewMachineWarmer(cfg, rec.NewReplay())
	w.Advance(1_000)
	snap := w.AppendState(nil)

	// Used pipeline: rejected.
	pl, err := New(cfg, rec.NewReplay())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Run(500); err != nil {
		t.Fatal(err)
	}
	if err := pl.RestoreWarm(snap); err != ErrPipelineUsed {
		t.Fatalf("used pipeline: err = %v, want ErrPipelineUsed", err)
	}

	// Double restore: rejected (the warmer is already mid-stream).
	pl2, _ := New(cfg, rec.NewReplay())
	if err := pl2.RestoreWarm(snap); err != nil {
		t.Fatal(err)
	}
	if err := pl2.RestoreWarm(snap); err != ErrPipelineUsed {
		t.Fatalf("double restore: err = %v, want ErrPipelineUsed", err)
	}

	// A snapshot past the interval's warm-up start: rejected by the run.
	pl3, _ := New(cfg, rec.NewReplay())
	if err := pl3.RestoreWarm(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := pl3.RunSampledInterval(500, 1_500, 100, 200, 0); err == nil {
		t.Fatal("restore past warm-up start should error")
	}
}

// TestRecycleResetsToFresh is the reuse contract of Pipeline.Recycle:
// for every warm configuration, the cache hierarchy and branch
// predictor a run has dirtied come back equal to what newWarmState
// builds, and the pipeline that handed them back holds neither.
func TestRecycleResetsToFresh(t *testing.T) {
	rec := emu.NewRecording(emu.New(workload.MustBuild("126.gcc")))
	rec.Record(20_000 + ReadAhead)
	for _, perfect := range []bool{false, true} {
		for _, kind := range []bpred.Kind{bpred.Combined, bpred.GShare, bpred.Bimodal, bpred.StaticTaken} {
			cfg := config.Default128().WithPolicy(config.Naive)
			cfg.PerfectCaches, cfg.BranchPredictor = perfect, kind
			pl, err := New(cfg, rec.NewReplay())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pl.Run(20_000); err != nil {
				t.Fatal(err)
			}
			h, bp := pl.hier, pl.bp
			freshH, freshBP := newWarmState(perfect, kind)
			if reflect.DeepEqual(h, freshH) || reflect.DeepEqual(bp, freshBP) {
				t.Fatalf("perfect=%v %v: the run left the warm state fresh; the test dirties nothing", perfect, kind)
			}
			pl.Recycle()
			if pl.hier != nil || pl.bp != nil || pl.warm.hier != nil || pl.warm.bp != nil {
				t.Errorf("perfect=%v %v: the pipeline still reaches the state it handed back", perfect, kind)
			}
			if !reflect.DeepEqual(h, freshH) {
				t.Errorf("perfect=%v %v: reset hierarchy differs from a fresh one", perfect, kind)
			}
			if !reflect.DeepEqual(bp, freshBP) {
				t.Errorf("perfect=%v %v: reset predictor differs from a fresh one", perfect, kind)
			}
		}
	}
}

package parsim

import (
	"reflect"
	"testing"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/emu"
)

// buildSet captures the checkpoint schedule matching opt over rec.
func buildSet(t testing.TB, cfg config.Machine, rec *emu.Recording, opt Options) *ckpt.Set {
	t.Helper()
	seqs := ckpt.Positions(opt.TotalTiming, opt.TimingInsts, opt.FunctionalInsts,
		opt.segmentPeriods(), opt.warmup())
	set, err := ckpt.Build(cfg, rec, rec.Fingerprint(), seqs)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCheckpointResumedBitIdentical is the acceptance-criterion test:
// stats from checkpoint-resumed segments must DeepEqual the
// non-checkpointed run for 1, 2, and 8 workers.
func TestCheckpointResumedBitIdentical(t *testing.T) {
	rec := recordingOf(t, "129.compress")
	cfg := config.Default128().WithPolicy(config.Sync)
	opt := Options{TotalTiming: 24_000, TimingInsts: 3_000, FunctionalInsts: 6_000, SegmentPeriods: 2}

	want, err := Run(bg, cfg, rec, opt)
	if err != nil {
		t.Fatal(err)
	}
	set := buildSet(t, cfg, rec, opt)
	if len(set.Frames) == 0 {
		t.Fatal("no checkpoint frames captured")
	}
	for _, workers := range []int{1, 2, 8} {
		o := opt
		o.Workers = workers
		o.Checkpoints = set
		got, err := Run(bg, cfg, rec, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: checkpoint-resumed stats differ:\nwant %+v\ngot  %+v", workers, want, got)
		}
	}

	// A persisted-and-reopened set must behave the same as the live one.
	path := t.TempDir() + "/c.mdckpt"
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := ckpt.OpenFile(path, set.RecFP, set.WarmHash)
	if err != nil {
		t.Fatal(err)
	}
	o := opt
	o.Workers = 4
	o.Checkpoints = reopened
	got, err := Run(bg, cfg, rec, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("stats resumed from the on-disk set differ from the non-checkpointed run")
	}
}

// TestCheckpointWrongWarmClassIgnored: a set captured under a different
// warm configuration must be dropped, not restored.
func TestCheckpointWrongWarmClassIgnored(t *testing.T) {
	rec := recordingOf(t, "102.swim")
	cfg := config.Default128().WithPolicy(config.Naive)
	opt := Options{TotalTiming: 12_000, TimingInsts: 2_000, FunctionalInsts: 4_000, SegmentPeriods: 1}

	want, err := Run(bg, cfg, rec, opt)
	if err != nil {
		t.Fatal(err)
	}
	otherCfg := cfg
	otherCfg.PerfectCaches = true
	o := opt
	o.Checkpoints = buildSet(t, otherCfg, rec, opt) // wrong warm class
	got, err := Run(bg, cfg, rec, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("mismatched checkpoint set changed the results")
	}
}

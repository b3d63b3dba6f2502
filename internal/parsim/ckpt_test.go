package parsim

import (
	"reflect"
	"testing"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/stats"
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

// TestPhaseSelect: a weighted selection simulates only the chosen
// segments, scales them, and merges in index order.
func TestPhaseSelect(t *testing.T) {
	rec := recordingOf(t, "129.compress")
	cfg := config.Default128().WithPolicy(config.Naive)
	opt := Options{TotalTiming: 16_000, TimingInsts: 2_000, FunctionalInsts: 4_000, SegmentPeriods: 2}
	// 8 periods → 4 segments.

	// Reference: simulate the two selected segments individually.
	seg1, err := Run(bg, cfg, rec, Options{TotalTiming: opt.TotalTiming, TimingInsts: opt.TimingInsts,
		FunctionalInsts: opt.FunctionalInsts, SegmentPeriods: opt.SegmentPeriods,
		Select: []ckpt.WeightedSegment{{Index: 1, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	seg3, err := Run(bg, cfg, rec, Options{TotalTiming: opt.TotalTiming, TimingInsts: opt.TimingInsts,
		FunctionalInsts: opt.FunctionalInsts, SegmentPeriods: opt.SegmentPeriods,
		Select: []ckpt.WeightedSegment{{Index: 3, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}

	o := opt
	o.Select = []ckpt.WeightedSegment{{Index: 1, Weight: 3}, {Index: 3, Weight: 1}}
	for _, workers := range []int{1, 4} {
		o.Workers = workers
		got, err := Run(bg, cfg, rec, o)
		if err != nil {
			t.Fatal(err)
		}
		want := stats.Merge([]*stats.Run{stats.Scale(seg1, 3), seg3})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: weighted selection mismatch:\nwant %+v\ngot  %+v", workers, want, got)
		}
		if got.Committed < 4*opt.TimingInsts*opt.TotalTiming/16_000 {
			t.Errorf("workers=%d: implausibly few committed insts %d", workers, got.Committed)
		}
	}

	// Invalid selections are rejected.
	for _, sel := range [][]ckpt.WeightedSegment{
		{{Index: -1, Weight: 1}},
		{{Index: 99, Weight: 1}},
		{{Index: 0, Weight: 0}},
		{{Index: 0, Weight: 1}, {Index: 0, Weight: 2}},
	} {
		o := opt
		o.Select = sel
		if _, err := Run(bg, cfg, rec, o); err == nil {
			t.Errorf("selection %v should be rejected", sel)
		}
	}
}

// TestCheckpointWithPhaseSelect combines both mechanisms, the intended
// production shape: representative segments only, each warm-started.
func TestCheckpointWithPhaseSelect(t *testing.T) {
	rec := recordingOf(t, "102.swim")
	cfg := config.Default128().WithPolicy(config.Sync)
	opt := Options{TotalTiming: 16_000, TimingInsts: 2_000, FunctionalInsts: 4_000, SegmentPeriods: 2}
	sel := []ckpt.WeightedSegment{{Index: 0, Weight: 2}, {Index: 2, Weight: 2}}

	o1 := opt
	o1.Select = sel
	want, err := Run(bg, cfg, rec, o1)
	if err != nil {
		t.Fatal(err)
	}
	o2 := opt
	o2.Select = sel
	o2.Checkpoints = buildSet(t, cfg, rec, opt)
	o2.Workers = 4
	got, err := Run(bg, cfg, rec, o2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("checkpointed phase-selected run differs:\nwant %+v\ngot  %+v", want, got)
	}
}

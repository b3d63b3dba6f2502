package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/parsim"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// ckptOpt is a sampled geometry small enough for tests but with a
// multi-segment decomposition, so checkpoints actually exist.
func ckptOpt() Options {
	return Options{Insts: 24_000, Sampled: true,
		TimingWindow: 3_000, FunctionalWindow: 6_000, SegmentPeriods: 2}
}

// ckptFile returns the single .mdckpt file in dir (or fails).
func ckptFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.mdckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one .mdckpt in %s, got %v (%v)", dir, files, err)
	}
	return files[0]
}

// TestRunnerCheckpointsBitIdentical is the acceptance criterion at the
// runner layer: a sampled cell simulated with warm-state checkpoints —
// in-memory, freshly captured to disk, or reopened from another
// runner's file — must be bit-identical to the plain interval-parallel
// run without any checkpoints.
func TestRunnerCheckpointsBitIdentical(t *testing.T) {
	const bench = "129.compress"
	cfg := nas(config.Sync)
	opt := ckptOpt()

	// Ground truth: parsim without checkpoints over a private recording
	// (the determinism contract makes recordings interchangeable).
	p, err := workload.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	rec := emu.NewRecording(emu.New(p))
	rec.Record(opt.captureHorizon())
	want, err := parsim.Run(bg, cfg, rec, parsim.Options{
		TotalTiming: opt.Insts, TimingInsts: opt.timingWindow(),
		FunctionalInsts: opt.functionalWindow(), SegmentPeriods: opt.SegmentPeriods,
	})
	if err != nil {
		t.Fatal(err)
	}
	want.Workload = bench

	// In-memory checkpoints (no RecordingDir).
	mem := NewRunner(opt)
	res, _, err := mem.RunWithSource(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Errorf("in-memory checkpointed stats differ:\nwant %+v\ngot  %+v", want, res)
	}
	if c := mem.Counters(); c.CheckpointMisses != 1 || c.CheckpointHits != 0 {
		t.Errorf("in-memory counters = %+v, want 1 checkpoint miss", c)
	}

	// First runner over an empty RecordingDir captures and publishes.
	dir := t.TempDir()
	o := opt
	o.RecordingDir = dir
	a := NewRunner(o)
	defer a.Close()
	res, _, err = a.RunWithSource(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Error("disk-captured checkpointed stats differ from the plain run")
	}
	ca := a.Counters()
	if ca.CheckpointMisses != 1 || ca.CheckpointHits != 0 || ca.CheckpointBytes == 0 {
		t.Errorf("capture counters = %+v, want 1 miss with bytes published", ca)
	}
	if ca.RecordingMisses != 1 || ca.RecordingHits != 0 {
		t.Errorf("capture counters = %+v, want 1 recording miss", ca)
	}
	path := ckptFile(t, dir)

	// Second runner reopens both caches.
	b := NewRunner(o)
	defer b.Close()
	res, _, err = b.RunWithSource(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Error("stats resumed from the shared on-disk checkpoint differ")
	}
	cb := b.Counters()
	if cb.CheckpointHits != 1 || cb.CheckpointMisses != 0 || cb.CheckpointBytes == 0 {
		t.Errorf("reopen counters = %+v, want 1 checkpoint hit", cb)
	}
	if cb.RecordingHits != 1 || cb.RecordingMisses != 0 || cb.RecordingBytes == 0 {
		t.Errorf("reopen counters = %+v, want 1 recording hit", cb)
	}

	// A policy ablation shares the same warm class: no second set.
	if _, _, err := b.RunWithSource(bg, bench, nas(config.Naive)); err != nil {
		t.Fatal(err)
	}
	if c := b.Counters(); c.CheckpointHits != 1 || c.CheckpointMisses != 0 {
		t.Errorf("counters after policy ablation = %+v, want no new set", c)
	}

	// A corrupted file silently falls back to functional fast-forward
	// (identical stats) and is re-captured as a valid file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewRunner(o)
	defer c.Close()
	res, _, err = c.RunWithSource(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, res) {
		t.Error("stats after checkpoint corruption differ — corruption must never change results")
	}
	if cc := c.Counters(); cc.CheckpointMisses != 1 || cc.CheckpointHits != 0 {
		t.Errorf("corruption counters = %+v, want a re-capture miss", cc)
	}
	set, err := ckpt.OpenFile(path, emu.ProgramFingerprint(p), ckpt.WarmConfigOf(cfg).Hash())
	if err != nil {
		t.Fatalf("corrupted checkpoint file was not re-captured: %v", err)
	}
	if len(set.Frames) == 0 {
		t.Error("re-captured checkpoint file has no frames")
	}
}

// TestRunnerRecapturesMispositionedFrames: a CRC-valid checkpoint file
// whose frames hold warm state 1,000 instructions past or before their
// directory positions is refused at open, so the runner re-captures it
// and the cell's statistics equal an uncached run's. Restored as it
// was, a frame ahead of its position failed every segment with a plain
// error, abandoning the cell on every later sweep, and a frame behind
// its position warmed 1,000 instructions twice.
func TestRunnerRecapturesMispositionedFrames(t *testing.T) {
	const bench = "129.compress"
	cfg := nas(config.Sync)
	want, _, err := NewRunner(ckptOpt()).RunWithSource(bg, bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []int64{1_000, -1_000} {
		o := ckptOpt()
		o.RecordingDir = t.TempDir()
		seed := NewRunner(o)
		if _, _, err := seed.RunWithSource(bg, bench, cfg); err != nil {
			t.Fatal(err)
		}
		seed.Close()
		path := ckptFile(t, o.RecordingDir)
		set, err := ckpt.OpenFile(path, emu.ProgramFingerprint(p), ckpt.WarmConfigOf(cfg).Hash())
		if err != nil {
			t.Fatal(err)
		}
		for i := range set.Frames {
			// A warm state leads with its stream position.
			st := bytes.Clone(set.Frames[i].State)
			binary.LittleEndian.PutUint64(st, uint64(set.Frames[i].Seq+shift))
			set.Frames[i].State = st
		}
		if err := set.WriteFile(path); err != nil {
			t.Fatal(err)
		}

		r := NewRunner(o)
		got, _, err := r.RunWithSource(bg, bench, cfg)
		r.Close()
		if err != nil {
			t.Fatalf("frames moved by %+d: %v", shift, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("frames moved by %+d: stats differ from an uncached run", shift)
		}
		if c := r.Counters(); c.CheckpointMisses != 1 || c.CheckpointHits != 0 {
			t.Errorf("frames moved by %+d: counters = %+v, want the file re-captured", shift, c)
		}
	}
}

// TestCheckpointFilePerSchedule: a checkpoint file is named by its
// capture schedule. Sweeps over geometry A, then B, then A again share
// one recording directory; B keeps its own file, so the return to A
// reopens A's file instead of re-capturing it, with A's first stats. A
// geometry C with other windows but A's schedule shares A's file.
func TestCheckpointFilePerSchedule(t *testing.T) {
	const bench = "129.compress"
	cfg := nas(config.Sync)
	dir := t.TempDir()
	run := func(opt Options) (*stats.Run, Counters) {
		t.Helper()
		opt.RecordingDir = dir
		r := NewRunner(opt)
		defer r.Close()
		res, _, err := r.RunWithSource(bg, bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, r.Counters()
	}
	a := ckptOpt() // positions 15,000, 33,000, 51,000
	b := a
	b.TimingWindow, b.FunctionalWindow = 2_000, 4_000
	c := Options{Insts: 12_000, Sampled: true, TimingWindow: 3_000, FunctionalWindow: 15_000, SegmentPeriods: 1}
	if !slices.Equal(a.sampling().CheckpointSeqs(), c.sampling().CheckpointSeqs()) {
		t.Fatal("geometries A and C must share one schedule")
	}

	first, _ := run(a)
	if _, cb := run(b); cb.CheckpointMisses != 1 {
		t.Errorf("geometry B: counters = %+v, want its own capture", cb)
	}
	again, ca := run(a)
	if ca.CheckpointMisses != 0 || ca.CheckpointHits != 1 {
		t.Errorf("geometry A after B: counters = %+v, want A's file reopened", ca)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("geometry A's stats changed after geometry B ran")
	}
	if _, cc := run(c); cc.CheckpointMisses != 0 || cc.CheckpointHits != 1 {
		t.Errorf("geometry C: counters = %+v, want A's file reopened", cc)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.mdckpt")); len(files) != 2 {
		t.Errorf("checkpoint files = %v, want one per schedule", files)
	}
}

// TestCountersExposeCacheFields: the cache counters must survive JSON
// round-tripping under their documented names — mdserve /v1/metrics
// serves exactly this struct.
func TestCountersExposeCacheFields(t *testing.T) {
	b, err := json.Marshal(Counters{RecordingHits: 1, RecordingBytes: 2, CheckpointHits: 3, CheckpointBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"recording_hits", "recording_misses", "recording_bytes",
		"checkpoint_hits", "checkpoint_misses", "checkpoint_bytes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("Counters JSON missing %q", key)
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// TestRecordingDirCachesAndReplays pins the on-disk recording cache:
// the first runner captures and publishes <bench>.mdrec, a second
// runner in the same dir serves replays from the mmapped file, and
// both produce statistics bit-identical to a runner with no cache.
func TestRecordingDirCachesAndReplays(t *testing.T) {
	dir := t.TempDir()
	const bench = "129.compress"
	cfg := config.Default128().WithPolicy(config.Naive)
	opt := Options{Insts: 10_000, Benchmarks: []string{bench}, RecordingDir: dir}

	key := func(r *Runner) string {
		res, _, err := r.RunWithSource(context.Background(), bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d/%d/%d/%d/%d", res.Cycles, res.Committed,
			res.Misspeculations, res.SquashedInsts, res.BranchMispredicts)
	}

	r1 := NewRunner(opt)
	got := key(r1)
	if err := r1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, bench+".mdrec")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first run did not publish the recording file: %v", err)
	}

	r2 := NewRunner(opt)
	if got2 := key(r2); got2 != got {
		t.Errorf("file-backed run diverged: %s vs %s", got2, got)
	}
	f, err := r2.recording(bg, bench)
	if err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.RecordingHits != 1 || c.RecordingMisses != 0 {
		t.Fatalf("second runner: recording_hits %d, recording_misses %d; want it to replay from the file", c.RecordingHits, c.RecordingMisses)
	}
	if !f.Mmapped() {
		t.Log("recording file loaded without mmap (fallback path)")
	}
	defer r2.Close()

	rLive := NewRunner(Options{Insts: 10_000, Benchmarks: []string{bench}})
	if gotLive := key(rLive); gotLive != got {
		t.Errorf("cached recording diverged from live emulation: %s vs %s", got, gotLive)
	}

	// A damaged file must be recaptured, not replayed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(opt)
	if got3 := key(r3); got3 != got {
		t.Errorf("recapture after corruption diverged: %s vs %s", got3, got)
	}
	defer r3.Close()
}

// TestRecordingDirRecapturesVersion1: a cache file in the previous
// format (MDREC001, here the emu package's fixture, which a build of
// that format wrote) is refused as corrupt, so the runner captures the
// benchmark once, republishes it in the current format and simulates
// what a runner without a cache does.
func TestRecordingDirRecapturesVersion1(t *testing.T) {
	dir := t.TempDir()
	const bench = "129.compress"
	v1, err := os.ReadFile(filepath.Join("..", "emu", "testdata", "loop60.mdrec001"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bench+".mdrec")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default128().WithPolicy(config.Naive)
	run := func(opt Options) (*stats.Run, Counters) {
		r := NewRunner(opt)
		defer r.Close()
		res, _, err := r.RunWithSource(context.Background(), bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, r.Counters()
	}
	want, _ := run(Options{Insts: 10_000})
	got, c := run(Options{Insts: 10_000, RecordingDir: dir})
	if c.RecordingMisses != 1 || c.RecordingHits != 0 {
		t.Errorf("recording_misses = %d, recording_hits = %d over a version-1 file; want one capture", c.RecordingMisses, c.RecordingHits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("stats after re-capturing a version-1 file differ from an uncached runner's")
	}
	if _, c := run(Options{Insts: 10_000, RecordingDir: dir}); c.RecordingHits != 1 || c.RecordingMisses != 0 {
		t.Errorf("the republished file gave %d hits and %d misses, want 1 and 0", c.RecordingHits, c.RecordingMisses)
	}
}

// TestRecordingDirServesMixedBudgets runs a small and a large budget
// over one recording directory, in both orders, with full timing and
// with sampling. A file captured for the smaller budget is sealed short
// of the larger budget's horizon, so the larger budget must re-capture
// it once instead of replaying past its end; a larger file serves the
// smaller budget as is. Checkpoint sets follow the same
// rule: the larger budget re-captures a set captured for the smaller
// one, and the smaller budget reuses the larger set. Every run's
// statistics must equal a runner's without a cache, and no cell may be
// abandoned.
func TestRecordingDirServesMixedBudgets(t *testing.T) {
	benches := []string{"129.compress", "102.swim"}
	cfgs := []config.Machine{config.Default128(), config.Default128().WithPolicy(config.Naive)}
	run := func(t *testing.T, opt Options) (map[string]*stats.Run, Counters) {
		t.Helper()
		r := NewRunner(opt)
		defer r.Close()
		out := make(map[string]*stats.Run)
		for _, b := range benches {
			for _, c := range cfgs {
				res, _, err := r.RunWithSource(context.Background(), b, c)
				if err != nil {
					t.Fatalf("insts %d: %v", opt.Insts, err)
				}
				out[b+" "+c.Name()] = res
			}
		}
		if ab := r.Abandoned(); len(ab) != 0 {
			t.Fatalf("insts %d: abandoned %+v", opt.Insts, ab)
		}
		return out, r.Counters()
	}
	sampled := func(insts int64) Options {
		return Options{Insts: insts, Sampled: true, TimingWindow: 1_000, FunctionalWindow: 2_000, SegmentPeriods: 4}
	}
	for _, mode := range []struct {
		name         string
		small, large Options
	}{
		{"full", Options{Insts: 10_000}, Options{Insts: 150_000}},
		{"sampled", sampled(5_000), sampled(60_000)},
	} {
		for _, grow := range []bool{true, false} {
			first, second := mode.small, mode.large
			name := mode.name + "/small-then-large"
			if !grow {
				first, second = second, first
				name = mode.name + "/large-then-small"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, benches[0]+".mdrec")
				var size int64
				for i, opt := range []Options{first, second} {
					want, _ := run(t, opt)
					opt.RecordingDir = dir
					got, c := run(t, opt)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("insts %d: stats over the recording directory differ from an uncached run", opt.Insts)
					}
					fi, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case i == 0 && c.RecordingMisses != int64(len(benches)):
						t.Errorf("first sweep captured %d recordings, want %d", c.RecordingMisses, len(benches))
					case i == 1 && grow && c.RecordingMisses > int64(len(benches)):
						t.Errorf("larger budget re-captured %d recordings, want at most one per benchmark", c.RecordingMisses)
					case i == 1 && !grow && c.RecordingMisses != 0:
						t.Errorf("smaller budget re-captured %d recordings a larger file covers", c.RecordingMisses)
					case fi.Size() < size:
						t.Errorf("%s shrank from %d to %d bytes", path, size, fi.Size())
					}
					size = fi.Size()
					// Both configurations share one warm class per benchmark.
					wantSets := int64(0)
					if opt.Sampled && (i == 0 || grow) {
						wantSets = int64(len(benches))
					}
					if c.CheckpointMisses != wantSets {
						t.Errorf("insts %d: captured %d checkpoint sets, want %d", opt.Insts, c.CheckpointMisses, wantSets)
					}
				}
			})
		}
	}
}

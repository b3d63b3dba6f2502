package experiments

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/workload"
)

// residentFileKB reads the process's resident file-backed and shared
// memory (RssFile + RssShmem: a recording directory on tmpfs maps
// shmem pages) from /proc/self/status.
func residentFileKB(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	var kb int64
	found := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != "RssFile" && name != "RssShmem" {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
		kb += n
		found++
	}
	if found != 2 {
		t.Skip("/proc/self/status reports no RssFile and RssShmem")
	}
	return kb
}

// TestBatchReleasesBenchmarks: a batch over a recording directory gives
// back each benchmark's recording pages and checkpoint sets once its
// last cell returns, so neither grows with the number of benchmarks.
func TestBatchReleasesBenchmarks(t *testing.T) {
	benches := workload.Names()[:8]
	cfgs := []config.Machine{nas(config.NoSpec), nas(config.Naive)}
	opt := ckptOpt()
	opt.Benchmarks = benches
	opt.Parallel = 2
	opt.RecordingDir = t.TempDir()

	cold := NewRunner(opt) // writes the recording and checkpoint files
	if err := cold.prefetch(bg, benches, cfgs...); err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := filepath.Glob(filepath.Join(opt.RecordingDir, "*.mdrec"))
	if err != nil || len(recs) != len(benches) {
		t.Fatalf("recordings %v (%v), want %d", recs, err, len(benches))
	}
	var totalKB int64
	for _, p := range recs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		totalKB += fi.Size() / 1024
	}

	var r *Runner
	var mu sync.Mutex
	maxSets := 0
	sample := func() {
		n := cachedSetBenches(r)
		mu.Lock()
		maxSets = max(maxSets, n)
		mu.Unlock()
	}
	opt.Hooks.JobStarted = func(string, string) { sample() }
	opt.Hooks.JobFinished = func(string, string, time.Duration, error) { sample() }
	r = NewRunner(opt)
	defer r.Close()
	before := residentFileKB(t)
	if err := r.prefetch(bg, benches, cfgs...); err != nil {
		t.Fatal(err)
	}
	grown := residentFileKB(t) - before
	if c := r.Counters(); c.RecordingHits != int64(len(benches)) || c.CheckpointHits != int64(len(benches)) {
		t.Fatalf("counters %+v, want every recording and checkpoint file reopened", c)
	}
	if grown > totalKB/4 {
		t.Errorf("resident file pages grew by %d KB over a batch of %d recordings totalling %d KB; want the pages given back", grown, len(benches), totalKB)
	}
	if maxSets > opt.Parallel+1 {
		t.Errorf("the runner held checkpoint sets of %d benchmarks at once, want at most Parallel+1 = %d", maxSets, opt.Parallel+1)
	}
}

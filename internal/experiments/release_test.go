package experiments

import (
	"reflect"
	"sync"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// cachedSetBenches counts the benchmarks the runner holds checkpoint
// sets for.
func cachedSetBenches(r *Runner) int {
	r.ckpts.mu.Lock()
	defer r.ckpts.mu.Unlock()
	benches := make(map[string]bool)
	for k := range r.ckpts.done { //md:orderindependent counts distinct keys
		benches[k.bench] = true
	}
	return len(benches)
}

// TestReleaseDuringConcurrentReplays: batches release a benchmark (its
// recording's pages and its checkpoint sets) while other callers replay
// the same benchmark through RunWithSource. Every result equals an
// unreleased runner's.
func TestReleaseDuringConcurrentReplays(t *testing.T) {
	const bench = "129.compress"
	opt := Options{Insts: 12_000, Sampled: true, TimingWindow: 1_000, FunctionalWindow: 2_000,
		Parallel: 2, RecordingDir: t.TempDir()}
	var callerCfgs, batchCfgs []config.Machine
	for _, p := range []config.Policy{config.NoSpec, config.Naive, config.Selective, config.Sync} {
		callerCfgs = append(callerCfgs, nas(p))
	}
	for _, lat := range []int{0, 1} {
		for _, p := range []config.Policy{config.NoSpec, config.Naive} {
			batchCfgs = append(batchCfgs, config.Default128().WithAddressScheduler(lat).WithPolicy(p))
		}
	}

	// The reference runner only answers single cells, which release
	// nothing; it also writes the recording and checkpoint files.
	ref := NewRunner(opt)
	defer ref.Close()
	want := make(map[config.Machine]*stats.Run)
	for _, cfg := range append(callerCfgs, batchCfgs...) {
		res, err := ref.Run(bg, bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[cfg] = res
	}

	// The batches start once every caller's simulation has, so the first
	// release lands while the callers replay.
	var started sync.WaitGroup
	started.Add(len(callerCfgs))
	opt.Hooks.JobStarted = func(_, cfg string) {
		for _, c := range callerCfgs {
			if c.Name() == cfg {
				started.Done()
			}
		}
	}
	r := NewRunner(opt)
	defer r.Close()
	var wg sync.WaitGroup
	got := make([]*stats.Run, len(callerCfgs))
	errs := make([]error, len(callerCfgs))
	for i, cfg := range callerCfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = r.RunWithSource(bg, bench, cfg)
		}()
	}
	started.Wait()
	for _, cfg := range batchCfgs {
		if err := r.prefetch(bg, []string{bench}, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(bg, bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[cfg], res) {
			t.Errorf("batch cell %s: stats differ from the unreleased runner's", cfg.Name())
		}
	}
	wg.Wait()
	for i, cfg := range callerCfgs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cfg.Name(), errs[i])
		}
		if !reflect.DeepEqual(want[cfg], got[i]) {
			t.Errorf("concurrent cell %s: stats differ from the unreleased runner's", cfg.Name())
		}
	}
	if n := cachedSetBenches(r); n != 0 {
		t.Errorf("after the last batch the runner holds checkpoint sets of %d benchmarks, want 0", n)
	}
}

package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/emu"
	"mdspec/internal/stats"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

func TestRunAllAggregatesAllErrors(t *testing.T) {
	r := NewRunner(Options{Insts: 1000})
	jobs := []job{
		{"126.gcc", nas(config.NoSpec)},
		{"bogus.one", nas(config.NoSpec)},
		{"bogus.two", nas(config.Oracle)},
	}
	res, err := r.runAll(bg, jobs)
	if err == nil {
		t.Fatal("runAll with two failing jobs returned nil")
	}
	if res[0] == nil || res[0].Workload != "126.gcc" || res[1] != nil || res[2] != nil {
		t.Errorf("runAll stats = %v, want the healthy job's run and nil for each failure", res)
	}
	msg := err.Error()
	for _, want := range []string{"bogus.one", "bogus.two", "NAS/NO", "NAS/ORACLE"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated error missing %q:\n%s", want, msg)
		}
	}
}

// TestRunAllReportsBackendDeadline: a backend error that wraps
// context.DeadlineExceeded while the batch's own context is live is a
// failure of that cell, not the batch's cancellation, so a generator
// never reads a missing cell as a result.
func TestRunAllReportsBackendDeadline(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Benchmarks: []string{"126.gcc", "102.swim"}})
	r.UseBackend(func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		if bench == "102.swim" && cfg.Policy == config.Naive {
			return nil, fmt.Errorf("remote request: %w", context.DeadlineExceeded)
		}
		return okRun(bench, cfg), nil
	})
	rows, err := Figure2(bg, r)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "102.swim") || rows != nil {
		t.Fatalf("Figure2 = %v, %v; want no rows and the 102.swim cell's deadline error", rows, err)
	}
}

func TestRunNamesFailingPair(t *testing.T) {
	r := NewRunner(Options{Insts: 1000})
	_, _, err := r.RunWithSource(bg, "999.nope", nas(config.Sync))
	if err == nil {
		t.Fatal("unknown benchmark should error")
	}
	if !strings.Contains(err.Error(), "999.nope") || !strings.Contains(err.Error(), "NAS/SYNC") {
		t.Errorf("error should name the (bench, config) pair: %v", err)
	}
}

// TestRunnerSampled: with Options.Sampled, a continuous-window config
// runs the interval-parallel sampled engine (visible as functionally
// skipped instructions), a split-window config falls back to a full
// timing run, and both land in the memo cache as usual.
func TestRunnerSampled(t *testing.T) {
	r := NewRunner(Options{Insts: 12_000, Sampled: true, TimingWindow: 2_000, FunctionalWindow: 4_000})
	res, _, err := r.RunWithSource(bg, "129.compress", nas(config.Sync))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 12_000 {
		t.Errorf("sampled run committed %d, want >= 12000", res.Committed)
	}
	if res.Skipped == 0 {
		t.Error("sampled run should skip instructions functionally")
	}
	if res.Workload != "129.compress" {
		t.Errorf("Workload = %q, want 129.compress", res.Workload)
	}

	split, _, err := r.RunWithSource(bg, "129.compress", nas(config.Naive).WithSplitWindow(4))
	if err != nil {
		t.Fatalf("split-window config under Sampled should fall back to full timing: %v", err)
	}
	if split.Skipped != 0 {
		t.Errorf("split-window fallback skipped %d instructions, want 0", split.Skipped)
	}
}

func TestRunnerSingleflight(t *testing.T) {
	r := NewRunner(Options{Insts: 1000})
	var sims atomic.Int64
	gate := make(chan struct{})
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		sims.Add(1)
		<-gate // hold every caller inside one simulated run
		return &stats.Run{Workload: bench, Config: cfg.Name(), Cycles: 1, Committed: 1}, nil
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*stats.Run, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	// Let every goroutine reach Run before releasing the simulation.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := sims.Load(); n != 1 {
		t.Errorf("concurrent identical runs started %d simulations, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different *stats.Run than caller 0", i)
		}
	}
	c := r.Counters()
	if c.CacheMisses != 1 || c.CacheHits != callers-1 {
		t.Errorf("counters = %+v, want 1 miss and %d hits", c, callers-1)
	}
}

func TestRunnerSharesRecordingAcrossConfigs(t *testing.T) {
	r := NewRunner(Options{Insts: 3000})
	for _, cfg := range []config.Machine{nas(config.NoSpec), nas(config.Naive), nas(config.Sync)} {
		if _, _, err := r.RunWithSource(bg, "129.compress", cfg); err != nil {
			t.Fatal(err)
		}
	}
	r.recs.mu.Lock()
	n := len(r.recs.done)
	r.recs.mu.Unlock()
	if n != 1 {
		t.Errorf("three configs over one benchmark created %d recordings, want 1", n)
	}
	a, err := r.recording("129.compress")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.recording("129.compress")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("recording() returned distinct recordings for the same benchmark")
	}
}

// TestRunnerFirstUseBuildsOnce starts several configurations of one
// benchmark at once on a fresh runner: the recording is built outside
// the runner lock, yet still exactly once.
func TestRunnerFirstUseBuildsOnce(t *testing.T) {
	r := NewRunner(Options{Insts: 2000, RecordingDir: t.TempDir()})
	defer r.Close()
	cfgs := []config.Machine{nas(config.NoSpec), nas(config.Naive), nas(config.Sync), nas(config.Oracle)}
	recs := make([]emu.ReplaySource, len(cfgs))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg config.Machine) {
			defer wg.Done()
			<-start
			if _, _, err := r.RunWithSource(bg, "129.compress", cfg); err != nil {
				t.Error(err)
			}
			rec, err := r.recording("129.compress")
			if err != nil {
				t.Error(err)
			}
			recs[i] = rec
		}(i, cfg)
	}
	close(start)
	wg.Wait()
	for i := range recs {
		if recs[i] != recs[0] {
			t.Errorf("caller %d saw a different recording than caller 0", i)
		}
	}
	if c := r.Counters(); c.RecordingMisses != 1 || c.RecordingHits != 0 {
		t.Errorf("recording_misses = %d, recording_hits = %d; want one capture", c.RecordingMisses, c.RecordingHits)
	}
}

// TestBuildOnceClaims: a key is built once while its callers wait; other
// keys do not wait for it; a panicking build releases its waiters, and
// the next caller builds again.
func TestBuildOnceClaims(t *testing.T) {
	var o buildOnce[string, int]
	var builds atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]int, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := o.get("slow", func() (int, error) {
				builds.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	// Another key completes while "slow" is still building.
	for builds.Load() == 0 {
		runtime.Gosched()
	}
	if v, err := o.get("fast", func() (int, error) { return 1, nil }); v != 1 || err != nil {
		t.Fatalf("fast = %d, %v", v, err)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("slow key built %d times, want 1", n)
	}
	for i, v := range got {
		if v != 7 {
			t.Errorf("caller %d got %d, want 7", i, v)
		}
	}

	func() {
		defer func() { recover() }()
		o.get("boom", func() (int, error) { panic("build failed") })
	}()
	if v, err := o.get("boom", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Errorf("after a panicking build: %d, %v; want a fresh build", v, err)
	}
	if _, err := o.get("err", func() (int, error) { return 0, errors.New("transient") }); err == nil {
		t.Error("build error was not returned")
	}
	if v, _ := o.get("err", func() (int, error) { return 4, nil }); v != 4 {
		t.Errorf("failed build was memoized: got %d, want 4", v)
	}
}

func TestRunnerMemoizesStub(t *testing.T) {
	r := NewRunner(Options{Insts: 1000})
	var sims atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		sims.Add(1)
		return &stats.Run{Workload: bench, Config: cfg.Name(), Cycles: 1, Committed: 1}, nil
	}
	a, _, err := r.RunWithSource(bg, "126.gcc", nas(config.NoSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.RunWithSource(bg, "126.gcc", nas(config.NoSpec))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || sims.Load() != 1 {
		t.Errorf("repeated key should return the memoized pointer after one sim (got %d sims)", sims.Load())
	}
}

func TestRunnerCancellationAbortsSweep(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Parallel: 2})
	var started atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		started.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &stats.Run{Workload: bench, Cycles: 1, Committed: 1}, nil
		}
	}

	var jobs []job
	for _, b := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		jobs = append(jobs, job{b, nas(config.Naive)})
	}
	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := r.runAll(ctx, jobs)
	elapsed := time.Since(t0)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runAll after cancel = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
	if n := started.Load(); n > 2 {
		t.Errorf("%d sims started despite Parallel=2 and early cancel", n)
	}
	// New work after cancellation is refused immediately.
	if _, _, err := r.RunWithSource(ctx, "z", nas(config.Naive)); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestRunAllPreCanceledContext(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Parallel: 2})
	var started atomic.Int64
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		started.Add(1)
		return &stats.Run{Workload: bench, Cycles: 1, Committed: 1}, nil
	}

	var jobs []job
	for _, b := range []string{"a", "b", "c", "d"} {
		jobs = append(jobs, job{b, nas(config.Naive)})
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()

	t0 := time.Now()
	_, err := r.runAll(ctx, jobs)
	elapsed := time.Since(t0)

	// Submission is ctx-aware: a sweep handed a dead context reports the
	// cancellation instead of nil, runs no simulations, and returns
	// without waiting on anything.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runAll on pre-canceled ctx = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d sims started under a pre-canceled ctx, want 0", n)
	}
	if elapsed > time.Second {
		t.Errorf("pre-canceled runAll took %v, want immediate return", elapsed)
	}
}

func TestRunnerDeadline(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Parallel: 1})
	r.sim = func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &stats.Run{Cycles: 1, Committed: 1}, nil
		}
	}
	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	res, err := r.grid(ctx, []string{"a", "b", "c"}, nas(config.Naive))
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("grid past deadline = %v, %v, want DeadlineExceeded and no rows", res, err)
	}
}

func TestRunnerRecordsProvenance(t *testing.T) {
	r := NewRunner(Options{Insts: 5_000})
	if _, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive)); err != nil { // cache hit: no new record
		t.Fatal(err)
	}
	recs := r.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	rec := recs[0]
	switch {
	case rec.Bench != "126.gcc":
		t.Errorf("bench = %q", rec.Bench)
	case rec.Config != "NAS/NAV":
		t.Errorf("config = %q", rec.Config)
	case rec.ConfigHash != nas(config.Naive).Hash() || len(rec.ConfigHash) != 16:
		t.Errorf("config hash = %q", rec.ConfigHash)
	case rec.Insts != 5_000:
		t.Errorf("insts = %d", rec.Insts)
	case rec.WallSeconds <= 0:
		t.Errorf("wall seconds = %v", rec.WallSeconds)
	case rec.Runner != RunnerVersion:
		t.Errorf("runner version = %q", rec.Runner)
	case rec.Stats == nil || rec.Stats.Committed == 0:
		t.Error("record missing raw stats")
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	r := NewRunner(Options{Insts: 5_000, Benchmarks: []string{"126.gcc"}})
	rows, err := Table3(bg, r)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewResults("mdexp-test", r.Options())
	rs.AddExperiment("table3", rows, time.Second)
	rs.Attach(r)

	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Tool != "mdexp-test" || back.Runner != RunnerVersion || back.Insts != 5_000 {
		t.Errorf("envelope fields lost: %+v", back)
	}
	if len(back.Experiments) != 1 || back.Experiments[0].Name != "table3" {
		t.Errorf("experiments lost: %+v", back.Experiments)
	}
	if len(back.Runs) == 0 {
		t.Fatal("no run records in artifact")
	}
	for _, rec := range back.Runs {
		if rec.Bench == "" || rec.Config == "" || rec.ConfigHash == "" ||
			rec.Insts != 5_000 || rec.WallSeconds <= 0 || rec.Runner != RunnerVersion {
			t.Errorf("run record missing provenance: %+v", rec.Provenance)
		}
		if rec.Stats == nil || rec.Stats.Cycles == 0 {
			t.Errorf("run record missing stats: %+v", rec.Provenance)
		}
	}
	if back.Metrics.JobsFinished == 0 || back.Metrics.CacheMisses == 0 {
		t.Errorf("metrics lost: %+v", back.Metrics)
	}
}

func TestResultsCSV(t *testing.T) {
	r := NewRunner(Options{Insts: 5_000, Benchmarks: []string{"126.gcc"}})
	if _, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Naive)); err != nil {
		t.Fatal(err)
	}
	rs := NewResults("mdexp-test", r.Options())
	rs.Attach(r)
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // header + one run
		t.Fatalf("csv rows = %d, want 2", len(recs))
	}
	if recs[0][0] != "bench" || recs[1][0] != "126.gcc" || recs[1][1] != "NAS/NAV" {
		t.Errorf("csv content wrong: %v", recs)
	}
	if len(recs[1]) != len(csvHeader) {
		t.Errorf("csv row has %d fields, header %d", len(recs[1]), len(csvHeader))
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.interactive = true // pin the terminal mode; a buffer autodetects as non-TTY
	h := p.Hooks()
	h.JobStarted("126.gcc", "NAS/NAV")
	h.JobFinished("126.gcc", "NAS/NAV", time.Millisecond, nil)
	h.CacheHit("126.gcc", "NAS/NAV")
	h.JobStarted("102.swim", "NAS/SYNC")
	h.JobFinished("102.swim", "NAS/SYNC", time.Millisecond, errors.New("boom"))
	p.Done()
	out := buf.String()
	for _, want := range []string{"126.gcc", "cache hits 1", "2/2 jobs", "1 FAILED"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%q", want, out)
		}
	}
	// Done must leave the line cleared (ends with a carriage return).
	if !strings.HasSuffix(out, "\r") {
		t.Error("Done should clear the progress line")
	}
}

// TestParseSampling: a sampling geometry is the whole string, two
// positive counts; anything else is refused rather than run under
// another geometry.
func TestParseSampling(t *testing.T) {
	for _, tc := range []struct {
		in     string
		tw, fw int64
		ok     bool
	}{
		{"2000:4000", 2000, 4000, true},
		{"5000:10000", 5000, 10000, true},
		{"1:1", 1, 1, true},
		{"2000:4000x", 0, 0, false},
		{"2000:4000:1", 0, 0, false},
		{"2000:0", 0, 0, false},
		{"0:4000", 0, 0, false},
		{"-2000:4000", 0, 0, false},
		{"2000:-1", 0, 0, false},
		{" 2000:4000", 0, 0, false},
		{"2000 :4000", 0, 0, false},
		{"2000", 0, 0, false},
		{"2000:", 0, 0, false},
		{":4000", 0, 0, false},
		{"", 0, 0, false},
		{"99999999999999999999:1", 0, 0, false},
	} {
		tw, fw, err := ParseSampling(tc.in)
		if (err == nil) != tc.ok || tw != tc.tw || fw != tc.fw {
			t.Errorf("ParseSampling(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, tw, fw, err, tc.tw, tc.fw, tc.ok)
		}
	}
}

func TestMeansByClassSkipsUnknownNames(t *testing.T) {
	metric := func(i int) float64 {
		return []float64{1, 3, 1000}[i] // a misspelled name must never reach the metric
	}
	im, fm := meansByClass([]string{"126.gcc", "102.swim", "126.gc"}, metric)
	if im != 1 || fm != 3 {
		t.Errorf("means = %v, %v: misspelled name contaminated a class mean", im, fm)
	}
}

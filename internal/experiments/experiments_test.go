package experiments

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// testRunner uses a small subset and budget so the whole file stays fast.
func testRunner() *Runner {
	return NewRunner(Options{
		Insts:      15_000,
		Benchmarks: []string{"129.compress", "126.gcc", "102.swim"},
	})
}

func TestRunnerMemoizes(t *testing.T) {
	r := testRunner()
	a, _, err := r.RunWithSource(bg, "126.gcc", nas(config.NoSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.RunWithSource(bg, "126.gcc", nas(config.NoSpec))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs should return the memoized result")
	}
	c, _, err := r.RunWithSource(bg, "126.gcc", nas(config.Oracle))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different configs must not share results")
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	r := testRunner()
	if _, _, err := r.RunWithSource(bg, "999.bogus", nas(config.NoSpec)); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestFigure1Shape(t *testing.T) {
	rows, err := Figure1(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Oracle128 < r.NO128 {
			t.Errorf("%s: oracle (%.3f) must not lose to no-speculation (%.3f)",
				r.Bench, r.Oracle128, r.NO128)
		}
		if r.Oracle128 < r.Oracle64 {
			t.Errorf("%s: 128-entry oracle should not lose to 64-entry", r.Bench)
		}
		if r.Speedup128 < r.Speedup64-0.05 {
			t.Errorf("%s: oracle speedup should grow (or hold) with window size: %.3f vs %.3f",
				r.Bench, r.Speedup128, r.Speedup64)
		}
	}
	out := RenderFigure1(rows)
	if !strings.Contains(out, "129.compress") || !strings.Contains(out, "Figure 1") {
		t.Error("render output missing expected content")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FD < 0 || r.FD > 1 {
			t.Errorf("%s: FD %.3f out of range", r.Bench, r.FD)
		}
		if r.FD > 0 && r.RL <= 0 {
			t.Errorf("%s: delayed loads but zero resolution latency", r.Bench)
		}
	}
	// swim must be false-dependence dominated (paper: 91%).
	for _, r := range rows {
		if r.Bench == "102.swim" && r.FD < 0.5 {
			t.Errorf("swim FD = %.3f, should be large", r.FD)
		}
	}
	if !strings.Contains(RenderTable3(rows), "Table 3") {
		t.Error("render output missing title")
	}
}

func TestFigure2Ordering(t *testing.T) {
	rows, err := Figure2(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Oracle < r.NO {
			t.Errorf("%s: ORACLE %.3f < NO %.3f", r.Bench, r.Oracle, r.NO)
		}
		if r.Oracle+1e-9 < r.Naive {
			t.Errorf("%s: ORACLE %.3f < NAV %.3f", r.Bench, r.Oracle, r.Naive)
		}
	}
}

func TestFigure3SchedulerLatencyMonotone(t *testing.T) {
	rows, err := Figure3(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Higher scheduler latency must not improve AS/NAV.
		if r.NavIPC[2] > r.NavIPC[0]*1.01 {
			t.Errorf("%s: AS/NAV got faster with a slower scheduler: %v", r.Bench, r.NavIPC)
		}
		if r.BaseIPC <= 0 {
			t.Errorf("%s: base IPC missing", r.Bench)
		}
	}
}

func TestFigure4OracleCompetitive(t *testing.T) {
	rows, err := Figure4(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The 2-cycle scheduler must not beat the 0-cycle one.
		if r.Nav[2] > r.Nav[0]+0.01 {
			t.Errorf("%s: AS/NAV+2 above AS/NAV+0: %v", r.Bench, r.Nav)
		}
	}
}

func TestFigure6SyncApproachesOracle(t *testing.T) {
	rows, err := Figure6(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SyncMisspec > r.NavMisspec {
			t.Errorf("%s: SYNC misspec %.4f above NAV %.4f", r.Bench, r.SyncMisspec, r.NavMisspec)
		}
		if r.SyncRel < -0.05 {
			t.Errorf("%s: SYNC loses badly to NAV (%.3f)", r.Bench, r.SyncRel)
		}
	}
	if !strings.Contains(RenderTable4(rows), "Table 4") {
		t.Error("table 4 render missing title")
	}
}

func TestFigure7SplitMisspeculates(t *testing.T) {
	rows, err := Figure7(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	anySplit := false
	for _, r := range rows {
		if r.ContASMisspec > 0.001 {
			t.Errorf("%s: continuous AS/NAV misspec %.4f should be ~0", r.Bench, r.ContASMisspec)
		}
		if r.SplitASMisspec > 0 {
			anySplit = true
		}
		if r.SplitNavMisspec+1e-12 < r.ContNavMisspec*0.5 {
			t.Errorf("%s: split NAS/NAV misspec (%.4f) collapsed below continuous (%.4f)",
				r.Bench, r.SplitNavMisspec, r.ContNavMisspec)
		}
	}
	if !anySplit {
		t.Error("no benchmark misspeculated under the split window with AS/NAV")
	}
}

func TestSummaryAllFindings(t *testing.T) {
	rows, err := Summary(bg, testRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("findings = %d, want 5", len(rows))
	}
	// The qualitative orderings of §4 must hold even on a tiny budget.
	byName := map[string]SummaryRow{}
	for _, r := range rows {
		byName[r.Finding] = r
	}
	oracle := byName["NAS/ORACLE over NAS/NO"]
	nav := byName["NAS/NAV over NAS/NO"]
	if oracle.IntMeasured < nav.IntMeasured-0.02 || oracle.FPMeasured < nav.FPMeasured-0.02 {
		t.Errorf("oracle should dominate naive: %+v vs %+v", oracle, nav)
	}
	sync := byName["NAS/SYNC over NAS/NAV"]
	if sync.IntMeasured <= 0 {
		t.Errorf("SYNC should beat NAV on int codes: %+v", sync)
	}
	out := RenderSummary(rows)
	if !strings.Contains(out, "paper") {
		t.Error("summary render should include paper reference columns")
	}
}

// TestGeneratorsCountOnlyRealAnswers: a generator reads the grid it
// ran, so a fresh Figure 2 counts no cache hit, and a Summary after it
// counts exactly the three cells per benchmark they share (NAS/NO,
// NAS/NAV, NAS/ORACLE), in the counter and in the CacheHit hook alike.
func TestGeneratorsCountOnlyRealAnswers(t *testing.T) {
	benches := []string{"129.compress", "126.gcc", "102.swim", "107.mgrid"}
	n := int64(len(benches))
	var hooked atomic.Int64
	r := NewRunner(Options{Insts: 1000, Benchmarks: benches,
		Hooks: Hooks{CacheHit: func(string, string) { hooked.Add(1) }}})
	r.UseBackend(func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return okRun(bench, cfg), nil
	})
	for _, step := range []struct {
		name       string
		run        func(context.Context, *Runner) error
		jobs, hits int64
	}{
		{"Figure2", func(ctx context.Context, r *Runner) error { _, err := Figure2(ctx, r); return err }, 3 * n, 0},
		{"Summary", func(ctx context.Context, r *Runner) error { _, err := Summary(ctx, r); return err }, 6 * n, 3 * n},
	} {
		if err := step.run(bg, r); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		c := r.Counters()
		if c.JobsStarted != step.jobs || c.CacheHits != step.hits || hooked.Load() != step.hits {
			t.Errorf("after %s: jobs_started %d, cache_hits %d, CacheHit hook calls %d; want %d, %d, %d",
				step.name, c.JobsStarted, c.CacheHits, hooked.Load(), step.jobs, step.hits, step.hits)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	r := NewRunner(Options{Insts: 10_000, Benchmarks: []string{"129.compress"}})
	if rows, err := AblationMDPTSize(bg, r); err != nil || len(rows) == 0 {
		t.Fatalf("mdpt ablation: %v (%d rows)", err, len(rows))
	} else if !strings.Contains(RenderMDPTSize(rows), "MDPT") {
		t.Error("mdpt render missing")
	}
	if rows, err := AblationFlush(bg, r); err != nil || len(rows) == 0 {
		t.Fatalf("flush ablation: %v", err)
	} else if !strings.Contains(RenderFlush(rows), "flush") {
		t.Error("flush render missing")
	}
	if rows, err := AblationWindow(bg, r); err != nil || len(rows) == 0 {
		t.Fatalf("window ablation: %v", err)
	} else if !strings.Contains(RenderWindow(rows), "window") {
		t.Error("window render missing")
	}
	if rows, err := AblationStoreSets(bg, r); err != nil || len(rows) == 0 {
		t.Fatalf("store-set ablation: %v", err)
	} else if !strings.Contains(RenderStoreSets(rows), "store-set") {
		t.Error("store-set render missing")
	}
}

func TestWindowAblationGrowsOracleGain(t *testing.T) {
	r := NewRunner(Options{Insts: 20_000, Benchmarks: []string{"102.swim"}})
	rows, err := AblationWindow(bg, r)
	if err != nil {
		t.Fatal(err)
	}
	gain := map[int]float64{}
	for _, row := range rows {
		gain[row.Window] = row.Oracle/row.NO - 1
	}
	// §3.2: the benefit of exploiting load/store parallelism grows with
	// the window.
	if gain[256] < gain[32] {
		t.Errorf("oracle gain should grow with window: 32=%+.3f 256=%+.3f", gain[32], gain[256])
	}
}

func TestWorkloadClass(t *testing.T) {
	if workloadClass("126.gcc") != "int" || workloadClass("102.swim") != "fp" {
		t.Error("workloadClass misclassifies")
	}
}

func TestAblationBPred(t *testing.T) {
	r := NewRunner(Options{Insts: 15_000, Benchmarks: []string{"129.compress"}})
	rows, err := AblationBPred(bg, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 predictor kinds", len(rows))
	}
	byKind := map[string]BPredRow{}
	for _, row := range rows {
		byKind[row.Kind] = row
	}
	if byKind["static-taken"].BMissRate <= byKind["combined"].BMissRate {
		t.Error("static prediction should miss far more than the combined predictor")
	}
	if byKind["static-taken"].OracleRel >= byKind["combined"].OracleRel {
		t.Error("misprediction stalls should shrink the oracle's advantage")
	}
	if !strings.Contains(RenderBPred(rows), "McFarling") {
		t.Error("render missing title")
	}
}

package mdspec

// One benchmark per table/figure of the paper: each regenerates the
// experiment over the full 18-benchmark suite at a reduced instruction
// budget and reports its headline quantities via b.ReportMetric, so
// `go test -bench=.` doubles as a fast end-to-end reproduction run. Use
// cmd/mdexp for the full paper-style tables at larger budgets.

import (
	"context"
	"testing"

	"mdspec/internal/experiments"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// benchInsts is the per-(benchmark, config) budget used by the
// experiment benchmarks; large enough for stable shapes, small enough to
// keep -bench=. pleasant.
const benchInsts = 20_000

// bg is the context for benchmark sweeps (never canceled).
var bg = context.Background()

func benchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Insts: benchInsts})
}

func intFPMeans(b *testing.B, metric func(bench string) float64) (float64, float64) {
	b.Helper()
	var iv, fv []float64
	for _, n := range workload.IntNames() {
		iv = append(iv, metric(n))
	}
	for _, n := range workload.FPNames() {
		fv = append(fv, metric(n))
	}
	return stats.Mean(iv), stats.Mean(fv)
}

// BenchmarkFigure1 regenerates Figure 1 (§3.2): NAS/NO vs NAS/ORACLE at
// 64- and 128-entry windows.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rows, err := experiments.Figure1(bg, r)
		if err != nil {
			b.Fatal(err)
		}
		by := rowMap(rows, func(x experiments.Figure1Row) (string, float64) { return x.Bench, x.Speedup128 })
		im, fm := intFPMeans(b, func(n string) float64 { return by[n] })
		b.ReportMetric(100*im, "int-spdup128-%")
		b.ReportMetric(100*fm, "fp-spdup128-%")
	}
}

// BenchmarkTable3 regenerates Table 3: false-dependence fraction and
// resolution latency under the 128-entry NAS/NO machine.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var fd, rl []float64
		for _, r := range rows {
			fd = append(fd, r.FD)
			rl = append(rl, r.RL)
		}
		b.ReportMetric(100*stats.Mean(fd), "mean-FD-%")
		b.ReportMetric(stats.Mean(rl), "mean-RL-cycles")
	}
}

// BenchmarkFigure2 regenerates Figure 2 (§3.3): NAS/NO, NAS/ORACLE,
// NAS/NAV.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure2(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		by := rowMap(rows, func(x experiments.Figure2Row) (string, float64) { return x.Bench, x.Naive/x.NO - 1 })
		im, fm := intFPMeans(b, func(n string) float64 { return by[n] })
		b.ReportMetric(100*im, "int-NAVvsNO-%")
		b.ReportMetric(100*fm, "fp-NAVvsNO-%")
	}
}

// BenchmarkFigure3 regenerates Figure 3 (§3.4): AS/NAV vs AS/NO at
// scheduler latencies 0, 1, 2.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var r0, r2 []float64
		for _, r := range rows {
			r0 = append(r0, r.Rel[0])
			r2 = append(r2, r.Rel[2])
		}
		b.ReportMetric(100*stats.Mean(r0), "rel@0-%")
		b.ReportMetric(100*stats.Mean(r2), "rel@2-%")
	}
}

// BenchmarkFigure4 regenerates Figure 4 (§3.4.1): NAS/ORACLE and
// AS/NAV(0/1/2) relative to 0-cycle AS/NO.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var oracle, nav0 []float64
		for _, r := range rows {
			oracle = append(oracle, r.Oracle)
			nav0 = append(nav0, r.Nav[0])
		}
		b.ReportMetric(100*stats.Mean(oracle), "oracle-rel-%")
		b.ReportMetric(100*stats.Mean(nav0), "asnav0-rel-%")
	}
}

// BenchmarkFigure5 regenerates Figure 5 (§3.5): selective and
// store-barrier speculation relative to naive.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var sel, store []float64
		for _, r := range rows {
			sel = append(sel, r.Sel)
			store = append(store, r.Store)
		}
		b.ReportMetric(100*stats.Mean(sel), "sel-rel-%")
		b.ReportMetric(100*stats.Mean(store), "store-rel-%")
	}
}

// BenchmarkFigure6 regenerates Figure 6 (§3.6): speculation/
// synchronization relative to naive speculation.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		by := rowMap(rows, func(x experiments.Figure6Row) (string, float64) { return x.Bench, x.SyncRel })
		im, fm := intFPMeans(b, func(n string) float64 { return by[n] })
		b.ReportMetric(100*im, "int-SYNCvsNAV-%")
		b.ReportMetric(100*fm, "fp-SYNCvsNAV-%")
	}
}

// BenchmarkTable4 regenerates Table 4: misspeculation rates under NAV
// and SYNC.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var nav, sync []float64
		for _, r := range rows {
			nav = append(nav, r.NavMisspec)
			sync = append(sync, r.SyncMisspec)
		}
		b.ReportMetric(100*stats.Mean(nav), "NAV-misspec-%")
		b.ReportMetric(100*stats.Mean(sync), "SYNC-misspec-%")
	}
}

// BenchmarkFigure7 regenerates the §3.7 split-vs-continuous comparison.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var cont, split []float64
		for _, r := range rows {
			cont = append(cont, r.ContASMisspec)
			split = append(split, r.SplitASMisspec)
		}
		b.ReportMetric(100*stats.Mean(cont), "ASNAV-cont-misspec-%")
		b.ReportMetric(100*stats.Mean(split), "ASNAV-split-misspec-%")
	}
}

// BenchmarkSummary regenerates the §4 average-speedup findings.
func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Summary(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Finding {
			case "NAS/ORACLE over NAS/NO":
				b.ReportMetric(100*r.IntMeasured, "oracle-int-%")
				b.ReportMetric(100*r.FPMeasured, "oracle-fp-%")
			case "NAS/SYNC over NAS/NAV":
				b.ReportMetric(100*r.IntMeasured, "sync-int-%")
				b.ReportMetric(100*r.FPMeasured, "sync-fp-%")
			}
		}
	}
}

// BenchmarkAblationMDPTSize sweeps the MDPT capacity for NAS/SYNC.
func BenchmarkAblationMDPTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationMDPTSize(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var small, big []float64
		for _, r := range rows {
			if r.Entries == 256 {
				small = append(small, r.IPC)
			}
			if r.Entries == 16384 {
				big = append(big, r.IPC)
			}
		}
		b.ReportMetric(stats.Mean(small), "IPC@256")
		b.ReportMetric(stats.Mean(big), "IPC@16K")
	}
}

// BenchmarkAblationFlush sweeps the MDPT flush interval.
func BenchmarkAblationFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationFlush(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var never, fast []float64
		for _, r := range rows {
			switch r.Interval {
			case 0:
				never = append(never, r.IPC)
			case 10_000:
				fast = append(fast, r.IPC)
			}
		}
		b.ReportMetric(stats.Mean(fast), "IPC@10k-flush")
		b.ReportMetric(stats.Mean(never), "IPC@never-flush")
	}
}

// BenchmarkAblationWindow sweeps the window size 32..256 (§3.2's claim
// that load/store parallelism matters more as the window grows).
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationWindow(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		gain := map[int][]float64{}
		for _, r := range rows {
			gain[r.Window] = append(gain[r.Window], r.Oracle/r.NO-1)
		}
		b.ReportMetric(100*stats.Mean(gain[32]), "oracle-gain@32-%")
		b.ReportMetric(100*stats.Mean(gain[256]), "oracle-gain@256-%")
	}
}

// BenchmarkAblationStoreSets compares the store-set predictor with the
// paper's MDPT.
func BenchmarkAblationStoreSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationStoreSets(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var sync, sset []float64
		for _, r := range rows {
			sync = append(sync, r.SyncIPC)
			sset = append(sset, r.StoreSetIPC)
		}
		b.ReportMetric(stats.Mean(sync), "SYNC-IPC")
		b.ReportMetric(stats.Mean(sset), "SSET-IPC")
	}
}

// BenchmarkAblationRecovery compares squash vs selective invalidation.
func BenchmarkAblationRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationRecovery(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var sq, sel []float64
		for _, r := range rows {
			sq = append(sq, r.SquashIPC)
			sel = append(sel, r.SelectiveIPC)
		}
		b.ReportMetric(stats.Mean(sq), "squash-IPC")
		b.ReportMetric(stats.Mean(sel), "selinv-IPC")
	}
}

// BenchmarkAblationBPred sweeps the branch predictor kinds.
func BenchmarkAblationBPred(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBPred(bg, benchRunner())
		if err != nil {
			b.Fatal(err)
		}
		var combined, static []float64
		for _, r := range rows {
			switch r.Kind {
			case "combined":
				combined = append(combined, r.OracleRel)
			case "static-taken":
				static = append(static, r.OracleRel)
			}
		}
		b.ReportMetric(100*stats.Mean(combined), "oracle-rel-combined-%")
		b.ReportMetric(100*stats.Mean(static), "oracle-rel-static-%")
	}
}

// rowMap builds a name->metric map from experiment rows.
func rowMap[T any](rows []T, f func(T) (string, float64)) map[string]float64 {
	out := make(map[string]float64, len(rows))
	for _, r := range rows {
		k, v := f(r)
		out[k] = v
	}
	return out
}

package experiments

import (
	"fmt"
	"strings"

	"mdspec/internal/stats"
)

func pct(v float64) string  { return fmt.Sprintf("%+.1f%%", 100*v) }
func pct2(v float64) string { return fmt.Sprintf("%.4f%%", 100*v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }

// RenderFigure1 formats Figure 1 like the paper's bar chart, one row per
// benchmark with the oracle speedups, plus int/fp averages.
func RenderFigure1(rows []Figure1Row) string {
	t := &stats.Table{Header: []string{"bench", "64/NO", "64/ORACLE", "spdup64", "128/NO", "128/ORACLE", "spdup128"}}
	var int64s, fp64s, int128s, fp128s []float64
	for _, r := range rows {
		t.Add(r.Bench, f3(r.NO64), f3(r.Oracle64), pct(r.Speedup64),
			f3(r.NO128), f3(r.Oracle128), pct(r.Speedup128))
		if workloadClass(r.Bench) == "int" {
			int64s, int128s = append(int64s, r.Speedup64), append(int128s, r.Speedup128)
		} else {
			fp64s, fp128s = append(fp64s, r.Speedup64), append(fp128s, r.Speedup128)
		}
	}
	var b strings.Builder
	b.WriteString("Figure 1: IPC with (NAS/ORACLE) and without (NAS/NO) exploiting load/store parallelism\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "averages: 64-entry int %s fp %s | 128-entry int %s fp %s (paper: ~+55%% int, ~+154%% fp at 128)\n",
		pct(stats.Mean(int64s)), pct(stats.Mean(fp64s)), pct(stats.Mean(int128s)), pct(stats.Mean(fp128s)))
	return b.String()
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	t := &stats.Table{Header: []string{"bench", "FD", "RL (cycles)"}}
	for _, r := range rows {
		t.Add(r.Bench, fmt.Sprintf("%.1f%%", 100*r.FD), fmt.Sprintf("%.1f", r.RL))
	}
	return "Table 3: loads delayed by false dependences (128-entry NAS/NO)\n" + t.String()
}

// RenderFigure2 formats Figure 2.
func RenderFigure2(rows []Figure2Row) string {
	t := &stats.Table{Header: []string{"bench", "NAS/NO", "NAS/ORACLE", "NAS/NAV", "NAV vs NO", "NAV misspec"}}
	var iv, fv []float64
	for _, r := range rows {
		rel := r.Naive/r.NO - 1
		t.Add(r.Bench, f3(r.NO), f3(r.Oracle), f3(r.Naive), pct(rel), pct2(r.NaiveMisspec))
		if workloadClass(r.Bench) == "int" {
			iv = append(iv, rel)
		} else {
			fv = append(fv, rel)
		}
	}
	var b strings.Builder
	b.WriteString("Figure 2: naive memory dependence speculation without an address scheduler\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "NAS/NAV over NAS/NO averages: int %s fp %s (paper: +29%% int, +113%% fp)\n",
		pct(stats.Mean(iv)), pct(stats.Mean(fv)))
	return b.String()
}

// RenderFigure3 formats Figure 3 (parts a and b).
func RenderFigure3(rows []Figure3Row) string {
	t := &stats.Table{Header: []string{"bench", "rel@0cyc", "rel@1cyc", "rel@2cyc", "AS/NO-0 IPC"}}
	for _, r := range rows {
		t.Add(r.Bench, pct(r.Rel[0]), pct(r.Rel[1]), pct(r.Rel[2]), f3(r.BaseIPC))
	}
	return "Figure 3: AS/NAV relative to AS/NO at address-scheduler latency 0/1/2 (a), base AS/NO IPC (b)\n" + t.String()
}

// RenderFigure4 formats Figure 4.
func RenderFigure4(rows []Figure4Row) string {
	t := &stats.Table{Header: []string{"bench", "NAS/ORACLE", "AS/NAV+0", "AS/NAV+1", "AS/NAV+2"}}
	for _, r := range rows {
		t.Add(r.Bench, pct(r.Oracle), pct(r.Nav[0]), pct(r.Nav[1]), pct(r.Nav[2]))
	}
	return "Figure 4: relative to 0-cycle AS/NO — oracle disambiguation vs address scheduling + naive speculation\n" + t.String()
}

// RenderFigure5 formats Figure 5.
func RenderFigure5(rows []Figure5Row) string {
	t := &stats.Table{Header: []string{"bench", "NAS/SEL vs NAV", "NAS/STORE vs NAV", "NAS/ORACLE vs NAV"}}
	for _, r := range rows {
		t.Add(r.Bench, pct(r.Sel), pct(r.Store), pct(r.OracleRel))
	}
	return "Figure 5: selective and store-barrier speculation relative to naive speculation\n" + t.String()
}

// RenderFigure6 formats Figure 6 together with Table 4.
func RenderFigure6(rows []Figure6Row) string {
	t := &stats.Table{Header: []string{"bench", "SYNC vs NAV", "ORACLE vs NAV", "NAV misspec", "SYNC misspec"}}
	var iv, fv []float64
	for _, r := range rows {
		t.Add(r.Bench, pct(r.SyncRel), pct(r.OracleRel), pct2(r.NavMisspec), pct2(r.SyncMisspec))
		if workloadClass(r.Bench) == "int" {
			iv = append(iv, r.SyncRel)
		} else {
			fv = append(fv, r.SyncRel)
		}
	}
	var b strings.Builder
	b.WriteString("Figure 6 + Table 4: speculation/synchronization relative to naive speculation\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "NAS/SYNC over NAS/NAV averages: int %s fp %s (paper: +19.7%% int, +19.1%% fp)\n",
		pct(stats.Mean(iv)), pct(stats.Mean(fv)))
	return b.String()
}

// RenderTable4 formats just the Table 4 misspeculation rates.
func RenderTable4(rows []Figure6Row) string {
	t := &stats.Table{Header: []string{"bench", "NAV", "SYNC"}}
	for _, r := range rows {
		t.Add(r.Bench, pct2(r.NavMisspec), pct2(r.SyncMisspec))
	}
	return "Table 4: memory dependence misspeculation rates (over committed loads)\n" + t.String()
}

// RenderFigure7 formats the §3.7 comparison.
func RenderFigure7(rows []Figure7Row) string {
	t := &stats.Table{Header: []string{"bench", "AS/NAV cont", "AS/NAV split", "NAS/NAV cont", "NAS/NAV split", "IPC cont", "IPC split"}}
	for _, r := range rows {
		t.Add(r.Bench, pct2(r.ContASMisspec), pct2(r.SplitASMisspec),
			pct2(r.ContNavMisspec), pct2(r.SplitNavMisspec), f3(r.ContASIPC), f3(r.SplitASIPC))
	}
	return fmt.Sprintf("Figure 7 / §3.7: misspeculation rates, continuous vs %d-unit split window\n", splitUnits) + t.String()
}

// RenderSummary formats the §4 summary with paper-vs-measured columns.
func RenderSummary(rows []SummaryRow) string {
	t := &stats.Table{Header: []string{"finding", "int measured", "int paper", "fp measured", "fp paper"}}
	for _, r := range rows {
		t.Add(r.Finding, pct(r.IntMeasured), pct(r.IntPaper), pct(r.FPMeasured), pct(r.FPPaper))
	}
	return "Summary (§4): average speedups, measured vs paper\n" + t.String()
}

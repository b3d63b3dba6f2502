package experiments

import (
	"context"

	"mdspec/internal/config"
	"mdspec/internal/workload"
)

func nas(p config.Policy) config.Machine { return config.Default128().WithPolicy(p) }
func as(p config.Policy, lat int) config.Machine {
	return config.Default128().WithPolicy(p).WithAddressScheduler(lat)
}
func small(p config.Policy) config.Machine { return config.Small64().WithPolicy(p) }

// --- Figure 1 -------------------------------------------------------

// Figure1Row is one benchmark's bars in Figure 1: IPC for NAS/NO and
// NAS/ORACLE at 64- and 128-entry windows, with the oracle speedups the
// paper prints on top of the bars.
type Figure1Row struct {
	Bench                 string
	NO64, Oracle64        float64
	NO128, Oracle128      float64
	Speedup64, Speedup128 float64
}

// Figure1 reproduces Figure 1 (performance potential of load/store
// parallelism, §3.2).
func Figure1(ctx context.Context, r *Runner) ([]Figure1Row, error) {
	benches := r.opt.benchmarks()
	res, err := r.grid(ctx, benches, small(config.NoSpec), small(config.Oracle), nas(config.NoSpec), nas(config.Oracle))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure1Row, 0, len(benches))
	for i, b := range benches {
		no64, or64, no128, or128 := res[i][0].IPC(), res[i][1].IPC(), res[i][2].IPC(), res[i][3].IPC()
		rows = append(rows, Figure1Row{
			Bench: b,
			NO64:  no64, Oracle64: or64, NO128: no128, Oracle128: or128,
			Speedup64:  or64/no64 - 1,
			Speedup128: or128/no128 - 1,
		})
	}
	return rows, nil
}

// --- Table 3 --------------------------------------------------------

// Table3Row is one benchmark's false-dependence statistics under the
// 128-entry NAS/NO machine: the fraction of committed loads delayed by
// false dependences (FD) and the mean resolution latency in cycles (RL).
type Table3Row struct {
	Bench string
	FD    float64
	RL    float64
}

// Table3 reproduces Table 3 (§3.2).
func Table3(ctx context.Context, r *Runner) ([]Table3Row, error) {
	benches := r.opt.benchmarks()
	res, err := r.grid(ctx, benches, nas(config.NoSpec))
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(benches))
	for i, b := range benches {
		no := res[i][0]
		rows = append(rows, Table3Row{Bench: b, FD: no.FalseDepRate(), RL: no.FalseDepLatency()})
	}
	return rows, nil
}

// --- Figure 2 -------------------------------------------------------

// Figure2Row holds the three bars of Figure 2 per benchmark: IPC under
// NAS/NO, NAS/ORACLE and NAS/NAV on the 128-entry machine.
type Figure2Row struct {
	Bench             string
	NO, Oracle, Naive float64
	NaiveMisspec      float64 // Table 4 "NAV" column
}

// Figure2 reproduces Figure 2 (§3.3) and Table 4's NAV column.
func Figure2(ctx context.Context, r *Runner) ([]Figure2Row, error) {
	benches := r.opt.benchmarks()
	res, err := r.grid(ctx, benches, nas(config.NoSpec), nas(config.Oracle), nas(config.Naive))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure2Row, 0, len(benches))
	for i, b := range benches {
		no, or, nv := res[i][0], res[i][1], res[i][2]
		rows = append(rows, Figure2Row{
			Bench: b, NO: no.IPC(), Oracle: or.IPC(), Naive: nv.IPC(),
			NaiveMisspec: nv.MisspecRate(),
		})
	}
	return rows, nil
}

// --- Figure 3 -------------------------------------------------------

// Figure3Row compares AS/NAV against AS/NO at scheduler latencies 0, 1
// and 2 cycles. Rel[i] is the paper's part (a): the relative performance
// of AS/NAV over AS/NO at latency i (each against its own-latency base);
// BaseIPC is part (b): AS/NO IPC at latency 0.
type Figure3Row struct {
	Bench   string
	Rel     [3]float64
	NoIPC   [3]float64
	NavIPC  [3]float64
	BaseIPC float64
}

// Figure3 reproduces Figure 3 (§3.4).
func Figure3(ctx context.Context, r *Runner) ([]Figure3Row, error) {
	benches := r.opt.benchmarks()
	var cfgs []config.Machine
	for lat := 0; lat <= 2; lat++ {
		cfgs = append(cfgs, as(config.NoSpec, lat), as(config.Naive, lat))
	}
	res, err := r.grid(ctx, benches, cfgs...)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure3Row, 0, len(benches))
	for i, b := range benches {
		row := Figure3Row{Bench: b}
		for lat := 0; lat <= 2; lat++ {
			no, nv := res[i][2*lat], res[i][2*lat+1]
			row.NoIPC[lat] = no.IPC()
			row.NavIPC[lat] = nv.IPC()
			row.Rel[lat] = nv.IPC()/no.IPC() - 1
		}
		row.BaseIPC = row.NoIPC[0]
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Figure 4 -------------------------------------------------------

// Figure4Row compares, relative to the 0-cycle AS/NO configuration:
// NAS/ORACLE and AS/NAV at scheduler latencies 0, 1, 2 (§3.4.1).
type Figure4Row struct {
	Bench  string
	Oracle float64 // NAS/ORACLE vs AS/NO(0)
	Nav    [3]float64
}

// Figure4 reproduces Figure 4.
func Figure4(ctx context.Context, r *Runner) ([]Figure4Row, error) {
	benches := r.opt.benchmarks()
	res, err := r.grid(ctx, benches, as(config.NoSpec, 0), nas(config.Oracle),
		as(config.Naive, 0), as(config.Naive, 1), as(config.Naive, 2))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure4Row, 0, len(benches))
	for i, b := range benches {
		base, or := res[i][0], res[i][1]
		row := Figure4Row{Bench: b, Oracle: or.IPC()/base.IPC() - 1}
		for lat := 0; lat <= 2; lat++ {
			row.Nav[lat] = res[i][2+lat].IPC()/base.IPC() - 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Figure 5 -------------------------------------------------------

// Figure5Row compares selective (NAS/SEL) and store-barrier (NAS/STORE)
// speculation against naive speculation (NAS/NAV), with NAS/ORACLE for
// reference (§3.5).
type Figure5Row struct {
	Bench            string
	Sel, Store       float64 // relative to NAS/NAV
	OracleRel        float64
	SelIPC, StoreIPC float64
}

// Figure5 reproduces Figure 5.
func Figure5(ctx context.Context, r *Runner) ([]Figure5Row, error) {
	benches := r.opt.benchmarks()
	res, err := r.grid(ctx, benches, nas(config.Naive), nas(config.Selective), nas(config.StoreBarrier), nas(config.Oracle))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure5Row, 0, len(benches))
	for i, b := range benches {
		nv, sel, st, or := res[i][0], res[i][1], res[i][2], res[i][3]
		rows = append(rows, Figure5Row{
			Bench: b,
			Sel:   sel.IPC()/nv.IPC() - 1, Store: st.IPC()/nv.IPC() - 1,
			OracleRel: or.IPC()/nv.IPC() - 1,
			SelIPC:    sel.IPC(), StoreIPC: st.IPC(),
		})
	}
	return rows, nil
}

// --- Figure 6 and Table 4 ------------------------------------------

// Figure6Row compares speculation/synchronization (NAS/SYNC) against
// NAS/NAV, with NAS/ORACLE for reference (§3.6); the misspeculation
// rates are Table 4.
type Figure6Row struct {
	Bench       string
	SyncRel     float64 // NAS/SYNC vs NAS/NAV
	OracleRel   float64 // NAS/ORACLE vs NAS/NAV
	NavMisspec  float64 // Table 4 NAV column
	SyncMisspec float64 // Table 4 SYNC column
	SyncIPC     float64
}

// Figure6 reproduces Figure 6 and Table 4.
func Figure6(ctx context.Context, r *Runner) ([]Figure6Row, error) {
	benches := r.opt.benchmarks()
	res, err := r.grid(ctx, benches, nas(config.Naive), nas(config.Sync), nas(config.Oracle))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure6Row, 0, len(benches))
	for i, b := range benches {
		nv, sy, or := res[i][0], res[i][1], res[i][2]
		rows = append(rows, Figure6Row{
			Bench:       b,
			SyncRel:     sy.IPC()/nv.IPC() - 1,
			OracleRel:   or.IPC()/nv.IPC() - 1,
			NavMisspec:  nv.MisspecRate(),
			SyncMisspec: sy.MisspecRate(),
			SyncIPC:     sy.IPC(),
		})
	}
	return rows, nil
}

// --- Figure 7 / §3.7 ------------------------------------------------

// Figure7Row contrasts the continuous and split windows on the same
// hardware: misspeculation rates and IPC under 0-cycle AS/NAV and under
// NAS/NAV, per benchmark plus the Figure 7 recurrence kernel.
type Figure7Row struct {
	Bench                 string
	ContASMisspec         float64
	SplitASMisspec        float64
	ContNavMisspec        float64
	SplitNavMisspec       float64
	ContASIPC, SplitASIPC float64
}

// splitUnits is the §3.7 model's sub-window count.
const splitUnits = 4

// Figure7 reproduces the §3.7 discussion quantitatively.
func Figure7(ctx context.Context, r *Runner) ([]Figure7Row, error) {
	benches := r.opt.benchmarks()
	res, err := r.grid(ctx, benches,
		as(config.Naive, 0),
		as(config.Naive, 0).WithSplitWindow(splitUnits),
		nas(config.Naive),
		nas(config.Naive).WithSplitWindow(splitUnits),
	)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure7Row, 0, len(benches))
	for i, b := range benches {
		x := res[i]
		rows = append(rows, Figure7Row{
			Bench:           b,
			ContASMisspec:   x[0].MisspecRate(),
			SplitASMisspec:  x[1].MisspecRate(),
			ContNavMisspec:  x[2].MisspecRate(),
			SplitNavMisspec: x[3].MisspecRate(),
			ContASIPC:       x[0].IPC(),
			SplitASIPC:      x[1].IPC(),
		})
	}
	return rows, nil
}

// --- §4 summary -----------------------------------------------------

// SummaryRow is one of the paper's §4 average-speedup findings, with the
// paper's reported numbers alongside the measured ones.
type SummaryRow struct {
	Finding           string
	IntMeasured       float64
	FPMeasured        float64
	IntPaper, FPPaper float64
}

// Summary computes the paper's §4 average speedups (arithmetic mean over
// the int and fp subsets).
func Summary(ctx context.Context, r *Runner) ([]SummaryRow, error) {
	benches := r.opt.benchmarks()
	const nasNO, nasNAV, nasSYNC, nasORACLE, asNO, asNAV = 0, 1, 2, 3, 4, 5
	res, err := r.grid(ctx, benches, nas(config.NoSpec), nas(config.Naive), nas(config.Sync),
		nas(config.Oracle), as(config.NoSpec, 0), as(config.Naive, 0))
	if err != nil {
		return nil, err
	}
	var rows []SummaryRow
	add := func(name string, num, den int, intPaper, fpPaper float64) {
		im, fm := meansByClass(benches, func(i int) float64 { return res[i][num].IPC()/res[i][den].IPC() - 1 })
		rows = append(rows, SummaryRow{Finding: name, IntMeasured: im, FPMeasured: fm,
			IntPaper: intPaper, FPPaper: fpPaper})
	}
	add("NAS/ORACLE over NAS/NO", nasORACLE, nasNO, 0.55, 1.54)
	add("NAS/NAV over NAS/NO", nasNAV, nasNO, 0.29, 1.13)
	add("AS/NAV over AS/NO (0-cycle)", asNAV, asNO, 0.046, 0.053)
	add("NAS/SYNC over NAS/NAV", nasSYNC, nasNAV, 0.197, 0.191)
	add("NAS/ORACLE over NAS/NAV", nasORACLE, nasNAV, 0.209, 0.204)
	return rows, nil
}

// workloadClass returns "int" or "fp" for a benchmark name.
func workloadClass(bench string) string {
	for _, n := range workload.FPNames() {
		if n == bench {
			return "fp"
		}
	}
	return "int"
}

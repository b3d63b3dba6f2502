package experiments

import (
	"context"
	"fmt"
	"strings"

	"mdspec/internal/bpred"
	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// ablationBenches is the default subset for the (expensive) sweeps: two
// high-misspeculation programs, one pointer-chaser, one streaming FP
// code.
var ablationBenches = []string{"129.compress", "104.hydro2d", "130.li", "102.swim"}

func (o Options) ablationSet() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return ablationBenches
}

// MDPTSizeRow reports SYNC performance and misspeculation against MDPT
// capacity (the paper fixes 4K entries; this sweep shows the sensitivity).
type MDPTSizeRow struct {
	Entries  int
	Bench    string
	IPC      float64
	Misspec  float64
	RelToNav float64
}

// AblationMDPTSize sweeps the MDPT size for NAS/SYNC.
func AblationMDPTSize(ctx context.Context, r *Runner) ([]MDPTSizeRow, error) {
	benches := r.opt.ablationSet()
	sizes := []int{256, 1024, 4096, 16384}
	var cfgs []config.Machine
	for _, s := range sizes {
		c := nas(config.Sync)
		c.PredictorTable.Entries = s
		cfgs = append(cfgs, c)
	}
	cfgs = append(cfgs, nas(config.Naive))
	res, err := r.grid(ctx, benches, cfgs...)
	if err != nil {
		return nil, err
	}
	var rows []MDPTSizeRow
	for i, b := range benches {
		nv := res[i][len(sizes)]
		for j, s := range sizes {
			x := res[i][j]
			rows = append(rows, MDPTSizeRow{Entries: s, Bench: b, IPC: x.IPC(),
				Misspec: x.MisspecRate(), RelToNav: x.IPC()/nv.IPC() - 1})
		}
	}
	return rows, nil
}

// RenderMDPTSize formats the MDPT sweep.
func RenderMDPTSize(rows []MDPTSizeRow) string {
	t := &stats.Table{Header: []string{"bench", "entries", "IPC", "misspec", "vs NAV"}}
	for _, r := range rows {
		t.Add(r.Bench, fmt.Sprintf("%d", r.Entries), f3(r.IPC), pct2(r.Misspec), pct(r.RelToNav))
	}
	return "Ablation: MDPT size sweep for NAS/SYNC (paper uses 4K, 2-way)\n" + t.String()
}

// FlushRow reports SYNC sensitivity to the predictor flush interval
// (the paper flushes every one million cycles, after [4]).
type FlushRow struct {
	Interval int64
	Bench    string
	IPC      float64
	Misspec  float64
}

// AblationFlush sweeps the MDPT flush interval.
func AblationFlush(ctx context.Context, r *Runner) ([]FlushRow, error) {
	benches := r.opt.ablationSet()
	intervals := []int64{10_000, 100_000, 1_000_000, 0} // 0 = never flush
	var cfgs []config.Machine
	for _, iv := range intervals {
		c := nas(config.Sync)
		c.PredictorTable.FlushInterval = iv
		cfgs = append(cfgs, c)
	}
	res, err := r.grid(ctx, benches, cfgs...)
	if err != nil {
		return nil, err
	}
	var rows []FlushRow
	for i, b := range benches {
		for j, iv := range intervals {
			x := res[i][j]
			rows = append(rows, FlushRow{Interval: iv, Bench: b, IPC: x.IPC(), Misspec: x.MisspecRate()})
		}
	}
	return rows, nil
}

// RenderFlush formats the flush-interval sweep.
func RenderFlush(rows []FlushRow) string {
	t := &stats.Table{Header: []string{"bench", "flush interval", "IPC", "misspec"}}
	for _, r := range rows {
		iv := "never"
		if r.Interval > 0 {
			iv = fmt.Sprintf("%d", r.Interval)
		}
		t.Add(r.Bench, iv, f3(r.IPC), pct2(r.Misspec))
	}
	return "Ablation: MDPT flush-interval sweep for NAS/SYNC (paper: 1M cycles)\n" + t.String()
}

// WindowRow reports how the policy gap scales with window size — the
// paper's §3.2 observation that load/store parallelism matters more as
// the window grows.
type WindowRow struct {
	Window int
	Bench  string
	NO     float64
	Naive  float64
	Sync   float64
	Oracle float64
}

// AblationWindow sweeps the instruction window from 32 to 256 entries.
func AblationWindow(ctx context.Context, r *Runner) ([]WindowRow, error) {
	benches := r.opt.ablationSet()
	windows := []int{32, 64, 128, 256}
	policies := []config.Policy{config.NoSpec, config.Naive, config.Sync, config.Oracle}
	var cfgs []config.Machine
	for _, w := range windows {
		for _, pol := range policies {
			c := nas(pol)
			c.Window = w
			cfgs = append(cfgs, c)
		}
	}
	res, err := r.grid(ctx, benches, cfgs...)
	if err != nil {
		return nil, err
	}
	var rows []WindowRow
	for i, b := range benches {
		for k, w := range windows {
			x := res[i][k*len(policies):]
			rows = append(rows, WindowRow{Window: w, Bench: b,
				NO: x[0].IPC(), Naive: x[1].IPC(), Sync: x[2].IPC(), Oracle: x[3].IPC()})
		}
	}
	return rows, nil
}

// RenderWindow formats the window sweep.
func RenderWindow(rows []WindowRow) string {
	t := &stats.Table{Header: []string{"bench", "window", "NO", "NAV", "SYNC", "ORACLE", "ORACLE/NO"}}
	for _, r := range rows {
		t.Add(r.Bench, fmt.Sprintf("%d", r.Window), f3(r.NO), f3(r.Naive), f3(r.Sync), f3(r.Oracle),
			pct(r.Oracle/r.NO-1))
	}
	return "Ablation: window-size sweep (the §3.2 claim that parallelism matters more with bigger windows)\n" + t.String()
}

// StoreSetRow compares the store-set predictor (reference [4]) against
// the paper's MDPT speculation/synchronization.
type StoreSetRow struct {
	Bench           string
	SyncIPC         float64
	StoreSetIPC     float64
	SyncMisspec     float64
	StoreSetMisspec float64
}

// AblationStoreSets runs the store-set extension.
func AblationStoreSets(ctx context.Context, r *Runner) ([]StoreSetRow, error) {
	benches := r.opt.ablationSet()
	res, err := r.grid(ctx, benches, nas(config.Sync), nas(config.StoreSets))
	if err != nil {
		return nil, err
	}
	var rows []StoreSetRow
	for i, b := range benches {
		sy, ss := res[i][0], res[i][1]
		rows = append(rows, StoreSetRow{Bench: b, SyncIPC: sy.IPC(), StoreSetIPC: ss.IPC(),
			SyncMisspec: sy.MisspecRate(), StoreSetMisspec: ss.MisspecRate()})
	}
	return rows, nil
}

// RenderStoreSets formats the store-set comparison.
func RenderStoreSets(rows []StoreSetRow) string {
	t := &stats.Table{Header: []string{"bench", "SYNC IPC", "SSET IPC", "SYNC misspec", "SSET misspec"}}
	for _, r := range rows {
		t.Add(r.Bench, f3(r.SyncIPC), f3(r.StoreSetIPC), pct2(r.SyncMisspec), pct2(r.StoreSetMisspec))
	}
	var b strings.Builder
	b.WriteString("Ablation: store-set predictor (Chrysos & Emer, the paper's [4]) vs MDPT speculation/synchronization\n")
	b.WriteString(t.String())
	return b.String()
}

// RecoveryRow compares squash invalidation against selective
// invalidation (§2's "minimize the amount of work lost" alternative)
// under naive speculation.
type RecoveryRow struct {
	Bench           string
	SquashIPC       float64
	SelectiveIPC    float64
	SquashWorkLost  float64 // squashed instructions per misspeculation
	SelectiveRedone float64 // re-executed instructions per misspeculation
}

// AblationRecovery runs the recovery-mechanism comparison.
func AblationRecovery(ctx context.Context, r *Runner) ([]RecoveryRow, error) {
	benches := r.opt.ablationSet()
	res, err := r.grid(ctx, benches, nas(config.Naive), nas(config.Naive).WithRecovery(config.RecoverySelective))
	if err != nil {
		return nil, err
	}
	perViol := func(work, viol int64) float64 {
		if viol == 0 {
			return 0
		}
		return float64(work) / float64(viol)
	}
	var rows []RecoveryRow
	for i, b := range benches {
		a, c := res[i][0], res[i][1]
		rows = append(rows, RecoveryRow{
			Bench:           b,
			SquashIPC:       a.IPC(),
			SelectiveIPC:    c.IPC(),
			SquashWorkLost:  perViol(a.SquashedInsts, a.Misspeculations),
			SelectiveRedone: perViol(c.SquashedInsts, c.Misspeculations),
		})
	}
	return rows, nil
}

// RenderRecovery formats the recovery comparison.
func RenderRecovery(rows []RecoveryRow) string {
	t := &stats.Table{Header: []string{"bench", "squash IPC", "selinv IPC", "gain",
		"lost/violation (squash)", "redone/violation (selinv)"}}
	for _, r := range rows {
		t.Add(r.Bench, f3(r.SquashIPC), f3(r.SelectiveIPC), pct(r.SelectiveIPC/r.SquashIPC-1),
			fmt.Sprintf("%.1f", r.SquashWorkLost), fmt.Sprintf("%.1f", r.SelectiveRedone))
	}
	return "Ablation: squash vs selective invalidation under NAS/NAV (paper §2's recovery alternatives)\n" + t.String()
}

// BPredRow reports sensitivity of the policy comparison to the branch
// predictor: misprediction stalls gate how much load/store parallelism
// is exposed at all.
type BPredRow struct {
	Bench     string
	Kind      string
	IPC       float64
	BMissRate float64
	OracleRel float64 // NAS/ORACLE over NAS/NO under this predictor
}

// AblationBPred sweeps the direction predictor (combined / gshare /
// bimodal / static-taken) and reports the oracle-over-no-speculation
// gain under each.
func AblationBPred(ctx context.Context, r *Runner) ([]BPredRow, error) {
	benches := r.opt.ablationSet()
	kinds := []bpred.Kind{bpred.Combined, bpred.GShare, bpred.Bimodal, bpred.StaticTaken}
	var cfgs []config.Machine
	for _, k := range kinds {
		no := nas(config.NoSpec)
		no.BranchPredictor = k
		or := nas(config.Oracle)
		or.BranchPredictor = k
		cfgs = append(cfgs, no, or)
	}
	res, err := r.grid(ctx, benches, cfgs...)
	if err != nil {
		return nil, err
	}
	var rows []BPredRow
	for i, b := range benches {
		for j, k := range kinds {
			rn, ro := res[i][2*j], res[i][2*j+1]
			rows = append(rows, BPredRow{
				Bench: b, Kind: k.String(), IPC: ro.IPC(),
				BMissRate: ro.BranchMissRate(),
				OracleRel: ro.IPC()/rn.IPC() - 1,
			})
		}
	}
	return rows, nil
}

// RenderBPred formats the branch-predictor sweep.
func RenderBPred(rows []BPredRow) string {
	t := &stats.Table{Header: []string{"bench", "predictor", "ORACLE IPC", "branch miss", "ORACLE vs NO"}}
	for _, r := range rows {
		t.Add(r.Bench, r.Kind, f3(r.IPC), fmt.Sprintf("%.1f%%", 100*r.BMissRate), pct(r.OracleRel))
	}
	return "Ablation: branch-predictor sensitivity (Table 2 uses the McFarling combined predictor)\n" + t.String()
}

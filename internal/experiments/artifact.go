package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/stats"
)

// RunnerVersion identifies the experiment-runner revision inside
// artifacts so downstream diffs can tell schema or semantics changes
// apart from genuine result drift. Bump on any change to the artifact
// schema or to what the runner measures.
const RunnerVersion = "mdspec-runner/4"

// FallbackSerialSegments marks a sampled run whose interval-parallel
// attempts kept failing transiently and that was completed by running
// the same segments one after another, without checkpoints (graceful
// degradation; see Runner). Its statistics equal the primary engine's.
const FallbackSerialSegments = "serial-segments"

// fallbackSerialSampled marked the retired serial sampled fallback,
// another estimator than the segments'. Prime skips its records.
const fallbackSerialSampled = "serial-sampled"

// Provenance identifies one simulation well enough to reproduce it:
// which benchmark ran under which configuration (by paper-style name
// and by a hash of every Machine field), at what instruction budget,
// how long it took, and which runner revision produced it.
type Provenance struct {
	Bench       string  `json:"bench"`
	Config      string  `json:"config"`
	ConfigHash  string  `json:"config_hash"`
	Insts       int64   `json:"insts"`
	WallSeconds float64 `json:"wall_seconds"`
	Runner      string  `json:"runner_version"`
}

// RunRecord is one executed simulation: its provenance, the headline
// derived metrics, and the full raw counters.
type RunRecord struct {
	Provenance
	// Attempts is how many simulation attempts the cell consumed
	// (1 = clean first try; omitted for replayed pre-retry records).
	Attempts int `json:"attempts,omitempty"`
	// Fallback names the degraded backend that produced the result, if
	// any (FallbackSerialSegments); empty for the primary engine.
	Fallback    string     `json:"fallback,omitempty"`
	IPC         float64    `json:"ipc"`
	MisspecRate float64    `json:"misspec_rate"`
	Stats       *stats.Run `json:"stats"`
}

// AbandonedCell names one (benchmark, configuration) pair the sweep
// gave up on after exhausting its retry budget and any fallback. It is
// the partial-results envelope's record of exactly what is missing.
type AbandonedCell struct {
	Bench      string `json:"bench"`
	Config     string `json:"config"`
	ConfigHash string `json:"config_hash"`
	Attempts   int    `json:"attempts"`
	Error      string `json:"error"`
}

// NewRunRecord assembles a provenance-carrying record for one run.
func NewRunRecord(bench string, cfg config.Machine, insts int64, wall time.Duration, res *stats.Run) RunRecord {
	return newRunRecord(bench, cfg.Name(), cfg.Hash(), insts, wall, res)
}

// newRunRecord is NewRunRecord for callers that already hold the
// configuration's name and hash (the Runner memoizes both).
func newRunRecord(bench, cfgName, cfgHash string, insts int64, wall time.Duration, res *stats.Run) RunRecord {
	return RunRecord{
		Provenance: Provenance{
			Bench:       bench,
			Config:      cfgName,
			ConfigHash:  cfgHash,
			Insts:       insts,
			WallSeconds: wall.Seconds(),
			Runner:      RunnerVersion,
		},
		IPC:         res.IPC(),
		MisspecRate: res.MisspecRate(),
		Stats:       res,
	}
}

// ExperimentResult is one experiment's typed rows inside a Results
// envelope (Rows marshals to the row struct's JSON form). Error is set
// when the experiment failed and its rows are absent or incomplete —
// the sweep records the failure and moves on to the next experiment.
type ExperimentResult struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
	Rows    any     `json:"rows"`
}

// Results is the machine-readable artifact a sweep leaves behind: the
// options it ran with, every experiment's typed rows, every simulation's
// provenance-carrying record, and the runner's metrics.
type Results struct {
	Tool        string             `json:"tool"`
	Runner      string             `json:"runner_version"`
	CreatedAt   time.Time          `json:"created_at"`
	Insts       int64              `json:"insts"`
	Benchmarks  []string           `json:"benchmarks"`
	Experiments []ExperimentResult `json:"experiments"`
	Runs        []RunRecord        `json:"runs"`
	Metrics     Counters           `json:"metrics"`
	// Partial marks an envelope missing results: some experiment failed
	// or some cell was abandoned. Abandoned names every missing cell.
	Partial   bool            `json:"partial,omitempty"`
	Abandoned []AbandonedCell `json:"abandoned,omitempty"`
	// JournalError records a degraded checkpoint journal (the first
	// append that failed). The results themselves are complete — a
	// journal failure costs resumability, not the sweep — but a resume
	// or server restart over this journal will re-simulate the cells
	// that failed to append, so the envelope must not look fully
	// durable when it is not.
	JournalError string `json:"journal_error,omitempty"`
}

// NewResults starts an artifact envelope for the given tool and
// options. Slices start non-nil so an interrupted sweep still
// serializes them as [] rather than null.
func NewResults(tool string, opt Options) *Results {
	return &Results{
		Tool:        tool,
		Runner:      RunnerVersion,
		CreatedAt:   time.Now().UTC(),
		Insts:       opt.Insts,
		Benchmarks:  opt.benchmarks(),
		Experiments: []ExperimentResult{},
		Runs:        []RunRecord{},
	}
}

// AddExperiment appends one experiment's rows and elapsed time.
func (rs *Results) AddExperiment(name string, rows any, d time.Duration) {
	rs.Experiments = append(rs.Experiments, ExperimentResult{
		Name: name, Seconds: d.Seconds(), Rows: rows,
	})
}

// AddFailedExperiment records an experiment that errored out: its rows
// (possibly partial or nil) are kept, the envelope is marked partial,
// and the sweep continues with the next experiment.
func (rs *Results) AddFailedExperiment(name string, rows any, d time.Duration, err error) {
	rs.Experiments = append(rs.Experiments, ExperimentResult{
		Name: name, Seconds: d.Seconds(), Error: err.Error(), Rows: rows,
	})
	rs.Partial = true
}

// Attach copies the runner's per-run records, abandoned cells, journal
// health, and metrics snapshot into the envelope; call it once, after
// the sweep. Any abandoned cell marks the envelope partial.
func (rs *Results) Attach(r *Runner) {
	if recs := r.Records(); recs != nil {
		rs.Runs = recs
	}
	if ab := r.Abandoned(); len(ab) > 0 {
		rs.Abandoned = ab
		rs.Partial = true
	}
	if jerr := r.JournalErr(); jerr != nil {
		rs.JournalError = jerr.Error()
	}
	rs.Metrics = r.Counters()
}

// WriteJSON serializes the envelope as indented JSON.
func (rs *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// csvHeader is the flat per-run schema WriteCSV emits.
var csvHeader = []string{
	"bench", "config", "config_hash", "insts", "wall_seconds",
	"attempts", "fallback",
	"cycles", "committed", "ipc", "misspec_rate", "false_dep_rate",
	"false_dep_latency", "branch_miss_rate", "squashed_insts", "sync_waits",
	"committed_loads", "committed_stores", "forwards", "skipped",
	"dcache_accesses", "dcache_misses", "icache_accesses", "icache_misses",
	"stall_empty", "stall_mem", "stall_exec",
}

// WriteCSV serializes the per-run records as one flat CSV row each,
// carrying the same provenance columns as the JSON form. It is the
// statsguard serialization sink: every exported stats.Run counter must
// appear here, directly or through a derived metric.
//
//md:statssink
func (rs *Results) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, rec := range rs.Runs {
		s := rec.Stats
		row := []string{
			rec.Bench, rec.Config, rec.ConfigHash,
			fmt.Sprintf("%d", rec.Insts),
			fmt.Sprintf("%.6f", rec.WallSeconds),
			fmt.Sprintf("%d", rec.Attempts),
			rec.Fallback,
			fmt.Sprintf("%d", s.Cycles),
			fmt.Sprintf("%d", s.Committed),
			fmt.Sprintf("%.6f", s.IPC()),
			fmt.Sprintf("%.6f", s.MisspecRate()),
			fmt.Sprintf("%.6f", s.FalseDepRate()),
			fmt.Sprintf("%.6f", s.FalseDepLatency()),
			fmt.Sprintf("%.6f", s.BranchMissRate()),
			fmt.Sprintf("%d", s.SquashedInsts),
			fmt.Sprintf("%d", s.SyncWaits),
			fmt.Sprintf("%d", s.CommittedLoads),
			fmt.Sprintf("%d", s.CommittedStores),
			fmt.Sprintf("%d", s.Forwards),
			fmt.Sprintf("%d", s.Skipped),
			fmt.Sprintf("%d", s.DCacheAccesses),
			fmt.Sprintf("%d", s.DCacheMisses),
			fmt.Sprintf("%d", s.ICacheAccesses),
			fmt.Sprintf("%d", s.ICacheMisses),
			fmt.Sprintf("%d", s.StallEmpty),
			fmt.Sprintf("%d", s.StallMem),
			fmt.Sprintf("%d", s.StallExec),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

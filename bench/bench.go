// Package bench is the repository's benchmark: four workloads that
// drive the simulator and the service through their public functions,
// measure what a user of each would see (end-to-end metrics), and, in
// a separate traced run, what each layer costs (per-layer metrics).
// The command is bench/mdbench, the metrics and their bounds are
// declared in BENCHMARK.json at the repository root, and
// bench/README.md describes the method.
//
// The benchmark adds no tracing inside the program. Spans are recorded
// here, around the calls into each layer, and only in traced runs, so
// end-to-end numbers are always measured with tracing off.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"
)

// Scale sizes every workload. FullScale is what BENCHMARK.json
// describes; tinyScale keeps the smoke test fast.
type Scale struct {
	// CellInsts is cell-timing's committed-instruction budget per cell.
	CellInsts int64
	// SweepInsts and SweepWindow are sweep-warm's sampled budget and
	// timing window (the functional window is twice the timing window,
	// the paper's 1:2 ratio); SweepBenches restricts the suite (nil =
	// all 18).
	SweepInsts   int64
	SweepWindow  int64
	SweepBenches []string
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// MixedInsts is serve-mixed's per-cell budget (mdserve -n);
	// MixedRefRPS is its fixed open-loop rate. MixedNominalRPS, about
	// its capacity on a 2-CPU host, sizes the closed loop in requests
	// rather than seconds, so every run with a seed requests the same
	// cells whatever the host's speed. MixedSessions is how many fresh
	// daemons the window is split over.
	MixedInsts      int64
	MixedRefRPS     float64
	MixedNominalRPS float64
	MixedSessions   int
	// CachedInsts and CachedCells size serve-cached's journal.
	CachedInsts int64
	CachedCells int
	// LocalChecks is how many served cells per serve run are
	// re-simulated locally and compared.
	LocalChecks int
	// ProbeInsts sizes the per-layer probes of a traced run.
	ProbeInsts int64
	// RefCalls is how many times each CPU runs the reference kernel in
	// one calibration slice (see calib.go).
	RefCalls int
}

// FullScale is the scale the benchmark runs at.
var FullScale = Scale{
	CellInsts:   50_000,
	SweepInsts:  50_000,
	SweepWindow: 5_000,
	SetupReps:   5,
	MixedInsts:  50_000,
	MixedRefRPS: 60, MixedNominalRPS: 170, MixedSessions: 10,
	CachedInsts: 5_000,
	CachedCells: 2_000,
	LocalChecks: 64,
	ProbeInsts:  100_000,
	RefCalls:    300,
}

// tinyScale runs every workload in about a second.
var tinyScale = Scale{
	CellInsts:    5_000,
	SweepInsts:   10_000,
	SweepWindow:  1_000,
	SweepBenches: []string{"126.gcc", "130.li", "102.swim"},
	SetupReps:    1,
	MixedInsts:   2_000,
	MixedRefRPS:  100, MixedNominalRPS: 200, MixedSessions: 2,
	CachedInsts: 2_000,
	CachedCells: 100,
	LocalChecks: 8,
	ProbeInsts:  10_000,
	RefCalls:    30,
}

// Config selects and parameterizes one run of one workload.
type Config struct {
	Workload string
	// Seed generates the workload's inputs: the same seed gives the same
	// inputs.
	Seed uint64
	// Seconds is the measured window. A traced run measures it twice,
	// half untraced and half traced, and then runs the layer probes.
	Seconds float64
	Trace   bool
	Scale   Scale
	// WorkDir holds the run's own work directory (recordings, journals,
	// daemon sockets), which is removed when the run ends.
	WorkDir string
	// Mdserve is the mdserve binary, for the serve workloads and the
	// fleet probe.
	Mdserve string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Result is one run's outcome.
type Result struct {
	Workload string `json:"workload"`
	Stamp    Stamp  `json:"stamp"`
	// Correct reports that outputs were checked and all matched.
	Correct bool `json:"correct"`
	// Attempted counts operations (cells, requests); Failed counts those
	// that errored, were refused or unanswered, or gave a wrong output.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Checked and Mismatched count output comparisons.
	Checked     int64             `json:"checked"`
	Mismatched  int64             `json:"mismatched"`
	Correctness string            `json:"correctness"`
	Metrics     map[string]Metric `json:"metrics"`
	SelfTime    []LayerTime       `json:"self_time,omitempty"`
	Spans       []Span            `json:"-"`
}

// Workloads lists the workloads in the order mdbench runs them.
func Workloads() []string {
	return []string{"cell-timing", "sweep-warm", "serve-mixed", "serve-cached"}
}

// workloadRun is one workload's lifecycle within a run.
type workloadRun interface {
	// setup performs one set-up repetition and returns its timed part.
	setup(ctx context.Context) (time.Duration, error)
	// measure runs the workload for about seconds and returns its
	// end-to-end metrics (and informational ones). tr is nil untraced.
	measure(ctx context.Context, tr *tracer, seconds float64) (map[string]Metric, error)
	// check verifies outputs after measuring, untimed.
	check(ctx context.Context) error
	// peakRSS reports the peak resident memory of the processes doing
	// the workload's work, in MB.
	peakRSS() (float64, error)
	close() error
}

// workloadDef constructs a workload and names the metric whose change
// under tracing is reported as trace_delta_frac. rawSetup reports
// setup_s as measured rather than scaled to host speed 1: a set-up that
// is a process spawn and a readiness poll does not track CPU speed.
type workloadDef struct {
	create        func(*env) (workloadRun, error)
	primary       string
	primaryHigher bool
	rawSetup      bool
}

var registry = map[string]workloadDef{
	"cell-timing":  {newCellTiming, "cells_per_s", true, false},
	"sweep-warm":   {newSweepWarm, "cells_per_s", true, false},
	"serve-mixed":  {newServeMixed, "latency_p50_ms", false, true},
	"serve-cached": {newServeCached, "cells_per_s", true, false},
}

// env is what a workload run shares with its framework.
type env struct {
	cfg   Config
	dir   string
	rng   *rand.Rand
	tally tally
	calib calibrator
}

func (e *env) logf(format string, args ...any) {
	if e.cfg.Log != nil {
		fmt.Fprintf(e.cfg.Log, "mdbench[%s]: %s\n", e.cfg.Workload, fmt.Sprintf(format, args...))
	}
}

// tally counts operations and output checks; load generators update it
// from several goroutines.
type tally struct {
	mu                                     sync.Mutex
	attempted, failed, checked, mismatched int64    //md:guardedby mu
	notes                                  []string //md:guardedby mu
}

func (t *tally) attempt() { t.add(&t.attempted) }
func (t *tally) fail()    { t.add(&t.failed) }

func (t *tally) add(p *int64) {
	t.mu.Lock()
	*p++
	t.mu.Unlock()
}

// compare records one output comparison.
func (t *tally) compare(ok bool) {
	t.mu.Lock()
	t.checked++
	if !ok {
		t.mismatched++
	}
	t.mu.Unlock()
}

// note adds a clause to the correctness verdict.
func (t *tally) note(format string, args ...any) {
	t.mu.Lock()
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// Run executes one workload: set-up SetupReps times, measure untraced,
// and for a traced run measure again with spans and probe every layer;
// then check outputs and read peak memory. Host-time metrics are
// reported scaled to host speed 1 (see calib.go).
func Run(ctx context.Context, cfg Config) (res *Result, err error) {
	def, ok := registry[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(Workloads(), ", "))
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-"+cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{cfg: cfg, dir: dir, rng: rand.New(rand.NewPCG(cfg.Seed, 0x6d6462656e6368))}
	e.calib.calls = max(1, cfg.Scale.RefCalls)
	w, err := def.create(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	res = &Result{Workload: cfg.Workload, Stamp: newStamp(cfg), Metrics: make(map[string]Metric)}
	var setups []float64
	for i := 0; i < max(1, cfg.Scale.SetupReps); i++ {
		d, err := w.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		e.logf("set-up %d: %.3f s", i+1, d.Seconds())
		e.calib.slice()
	}
	res.add(map[string]Metric{"setup_s": medianMetric("s", setups)})

	seconds := cfg.Seconds
	if cfg.Trace {
		seconds /= 2
	}
	m, err := w.measure(ctx, nil, seconds)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	res.add(m)
	if cfg.Trace {
		tr := newTracer()
		t0 := time.Now()
		mt, err := w.measure(ctx, tr, seconds)
		if err != nil {
			return nil, fmt.Errorf("traced measure: %w", err)
		}
		wall := time.Since(t0)
		res.Spans = tr.Spans()
		res.SelfTime = selfTimes(res.Spans)
		// The tracing overhead is what recording the spans cost, as a
		// share of the traced window. Differencing the traced and the
		// untraced halves is reported too, but on a shared host their
		// noise is larger than the overhead.
		base, traced := m[def.primary].Value, mt[def.primary].Value
		delta := traced/base - 1
		if def.primaryHigher {
			delta = base/traced - 1
		}
		res.add(map[string]Metric{
			"trace_overhead_frac": countMetric(float64(len(res.Spans))*spanCost().Seconds()/wall.Seconds(), "ratio"),
			"trace_delta_frac":    countMetric(delta, "ratio"),
		})
		probe, err := runProbes(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.add(probe)
	}
	if err := w.check(ctx); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	rss, err := w.peakRSS()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	res.add(map[string]Metric{"peak_rss_mb": countMetric(rss, "MB")})
	speed := e.calib.speed()
	for name, m := range res.Metrics { //md:orderindependent independent updates
		if name != "setup_s" || !def.rawSetup {
			res.Metrics[name] = m.scaled(speed.Value)
		}
	}
	res.add(map[string]Metric{"host_speed": speed})

	t := &e.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Checked, res.Mismatched = t.checked, t.mismatched
	res.Correct = t.checked > 0 && t.mismatched == 0
	res.Correctness = fmt.Sprintf("%d/%d outputs match; %s", t.checked-t.mismatched, t.checked, strings.Join(t.notes, "; "))
	return res, nil
}

// add records metrics that were measured: a metric without samples, or
// a ratio whose base was zero, is left out, so a result never claims a
// number it does not have.
func (r *Result) add(m map[string]Metric) {
	for k, v := range m { //md:orderindependent map copy
		if v.N > 0 && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			r.Metrics[k] = v
		}
	}
}

// runDir returns a fresh subdirectory of the run's work directory.
func (e *env) runDir(name string) (string, error) {
	return os.MkdirTemp(e.dir, name+"-")
}

package bench

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"mdspec/internal/experiments"
)

// sweepWarm runs the paper's Figure 2 cell set the way
// `mdexp -sampled -recdir -resume` does: a fresh Runner and a fresh
// journal per sweep over a warm recording and checkpoint cache. The
// cold sweep that fills the cache is the set-up. It does not use the
// seed: its inputs are the paper's.
type sweepWarm struct {
	e      *env
	recdir string
	golden map[string]string
	ref    []experiments.Figure2Row // rows of the first cold sweep
	refDig map[string]string        // its cell digests
	diskMB float64                  // size of the cache a cold sweep leaves
}

func newSweepWarm(e *env) (workloadRun, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	return &sweepWarm{
		e: e, recdir: filepath.Join(e.dir, "recdir"),
		golden: g[goldenSection("sweep-warm", e.cfg.Scale.SweepInsts)],
	}, nil
}

// sweepRun is one Figure 2 sweep's outcome.
type sweepRun struct {
	rows    []experiments.Figure2Row
	digests map[string]string // "<bench>|<config>" -> stats digest
	wall    time.Duration
	cellMS  []float64
	simBusy float64 // SimSeconds / (wall × Parallel)
}

// sweep runs Figure 2 once with a fresh runner and journal.
func (s *sweepWarm) sweep(ctx context.Context, tr *tracer) (*sweepRun, error) {
	jdir, err := s.e.runDir("journal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jdir)
	sc := s.e.cfg.Scale
	opt := experiments.Options{
		Insts: sc.SweepInsts, Benchmarks: sc.SweepBenches,
		Sampled: true, TimingWindow: sc.SweepWindow, FunctionalWindow: 2 * sc.SweepWindow,
		Parallel: runtime.NumCPU(), RecordingDir: s.recdir,
	}
	root := tr.Begin(0, "bench.sweep", "")
	defer tr.End(root)
	out := &sweepRun{}
	var mu sync.Mutex
	opt.Hooks.JobFinished = func(bench, cfg string, d time.Duration, err error) {
		now := time.Now()
		tr.Add(root, "experiments.cell", bench+"|"+cfg, now.Add(-d), now)
		mu.Lock()
		out.cellMS = append(out.cellMS, float64(d.Nanoseconds())/1e6)
		mu.Unlock()
	}
	t0 := time.Now()
	sp := tr.Begin(root, "experiments.journal_open", "")
	j, _, err := experiments.OpenJournal(jdir, opt)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	opt.Journal = j
	r := experiments.NewRunner(opt)
	sp = tr.Begin(root, "experiments.figure2", "")
	rows, err := experiments.Figure2(ctx, r)
	tr.End(sp)
	out.wall = time.Since(t0)
	cerr := r.Close()
	jerr := j.Close()
	switch {
	case err != nil:
		return nil, err
	case cerr != nil:
		return nil, cerr
	case jerr != nil:
		return nil, jerr
	}
	if jerr := r.JournalErr(); jerr != nil {
		return nil, jerr
	}
	out.rows = rows
	out.simBusy = r.Counters().SimSeconds / (out.wall.Seconds() * float64(opt.Parallel))
	out.digests = make(map[string]string)
	for _, rec := range r.Records() {
		out.digests[rec.Bench+"|"+rec.Config] = digest(rec.Stats)
	}
	return out, nil
}

// setup is one cold sweep: empty recording and checkpoint cache.
func (s *sweepWarm) setup(ctx context.Context) (time.Duration, error) {
	if err := os.RemoveAll(s.recdir); err != nil {
		return 0, err
	}
	run, err := s.sweep(ctx, nil)
	if err != nil {
		return 0, err
	}
	if s.ref == nil {
		s.ref, s.refDig = run.rows, run.digests
	}
	s.verify(run)
	if s.diskMB, err = cacheSizeMB(s.recdir); err != nil {
		return 0, err
	}
	return run.wall, nil
}

// cacheSizeMB is the size of the recording and checkpoint files in dir.
func cacheSizeMB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, en := range entries {
		if ext := filepath.Ext(en.Name()); ext != ".mdrec" && ext != ".mdckpt" {
			continue
		}
		info, err := en.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total) / 1e6, nil
}

func (s *sweepWarm) measure(ctx context.Context, tr *tracer, seconds float64) (map[string]Metric, error) {
	var walls, rates, p50, p90, busy []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < seconds {
		run, err := s.sweep(ctx, tr)
		if err != nil {
			return nil, err
		}
		s.verify(run)
		walls = append(walls, run.wall.Seconds())
		rates = append(rates, float64(len(run.digests))/run.wall.Seconds())
		if ms := sorted(run.cellMS); len(ms) > 0 {
			p50 = append(p50, quantile(ms, 0.5))
			p90 = append(p90, quantile(ms, 0.9))
		}
		busy = append(busy, run.simBusy)
		s.e.calib.slice()
	}
	// Every metric is a median over sweeps.
	return map[string]Metric{
		"cells_per_s":    medianMetric("1/s", rates),
		"latency_p50_ms": medianMetric("ms", p50),
		"latency_p90_ms": medianMetric("ms", p90),
		"sweep_wall_s":   medianMetric("s", walls),
		"cache_disk_mb":  countMetric(s.diskMB, "MB"),
		"sim_busy_frac":  medianMetric("ratio", busy),
	}, nil
}

// verify checks a sweep against the first cold sweep (rows and every
// cell's statistics) and against the golden digests.
func (s *sweepWarm) verify(run *sweepRun) {
	for range run.digests {
		s.e.tally.attempt()
	}
	same := reflect.DeepEqual(run.rows, s.ref)
	s.e.tally.compare(same)
	if !same {
		s.e.tally.fail()
		s.e.logf("Figure 2 rows differ from the cold sweep's")
	}
	for key, d := range run.digests { //md:orderindependent independent comparisons
		want, ok := s.golden[key]
		if !ok {
			want = s.refDig[key]
		}
		s.e.tally.compare(d == want)
		if d != want {
			s.e.tally.fail()
			s.e.logf("cell %s: digest %.12s, want %.12s", key, d, want)
		}
	}
	if len(run.digests) != len(s.refDig) {
		s.e.tally.compare(false)
		s.e.tally.fail()
		s.e.logf("sweep ran %d cells, the cold sweep %d", len(run.digests), len(s.refDig))
	}
}

func (s *sweepWarm) check(context.Context) error {
	if s.golden == nil {
		s.e.tally.note("no golden digests at %d insts; sweeps compared with the first cold sweep", s.e.cfg.Scale.SweepInsts)
	} else {
		s.e.tally.note("sweeps DeepEqual the cold sweep and match golden.json section %s", goldenSection("sweep-warm", s.e.cfg.Scale.SweepInsts))
	}
	return nil
}

func (s *sweepWarm) peakRSS() (float64, error) { return peakRSSMB(0) }

func (s *sweepWarm) close() error { return nil }

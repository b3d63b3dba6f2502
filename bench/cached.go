package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"regexp"
	"strconv"
	"sync"
	"time"

	"mdspec/internal/experiments"
)

// serveCached is the service's read-only path: a daemon restarted over
// a journal of already-simulated cells serves them from its cache
// (HTTP, JSON, scheduler, memo), so the timing core does no work.
type serveCached struct {
	e     *env
	jdir  string
	cells []*issued
	d     *daemon
	gen   *loadGen
	rngMu sync.Mutex
	rng   *rand.Rand //md:guardedby rngMu
}

func newServeCached(e *env) (workloadRun, error) {
	meta := experiments.Options{Insts: e.cfg.Scale.CachedInsts}.Fingerprint()
	return &serveCached{
		e:     e,
		cells: seededCells(e.rng, e.cfg.Scale.CachedCells, &meta),
		rng:   rand.New(rand.NewPCG(e.rng.Uint64(), e.rng.Uint64())),
	}, nil
}

func (s *serveCached) start(ctx context.Context) (*daemon, error) {
	dir, err := s.e.runDir("daemon")
	if err != nil {
		return nil, err
	}
	return startDaemon(ctx, s.e.cfg.Mdserve, dir,
		"-n", strconv.FormatInt(s.e.cfg.Scale.CachedInsts, 10), "-journal", s.jdir)
}

// fill simulates every cell once through a daemon, which journals them.
func (s *serveCached) fill(ctx context.Context) error {
	jdir, err := s.e.runDir("journal")
	if err != nil {
		return err
	}
	s.jdir = jdir
	d, err := s.start(ctx)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	k := 0
	inOrder := func() *issued {
		mu.Lock()
		defer mu.Unlock()
		k++
		return s.cells[k-1]
	}
	ss := newLoadGen(s.e, d).closedLoop(ctx, nil, inOrder, len(s.cells), 0)
	if err := d.stop(); err != nil {
		return err
	}
	for _, smp := range ss {
		if smp.err != nil {
			return fmt.Errorf("filling the journal: %w", smp.err)
		}
	}
	return nil
}

var reprimed = regexp.MustCompile(`(?m)^mdserve: .*re-primed (\d+) finished cell`)

// setup restarts the daemon over the filled journal and times it until
// every worker is alive; the supervisor has re-primed its cache from
// the journal by then. The first call fills the journal, untimed.
func (s *serveCached) setup(ctx context.Context) (time.Duration, error) {
	if s.jdir == "" {
		if err := s.fill(ctx); err != nil {
			return 0, err
		}
	}
	if s.d != nil {
		err := s.d.stop()
		s.d = nil
		if err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	d, err := s.start(ctx)
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0)
	s.d, s.gen = d, newLoadGen(s.e, d)
	m := reprimed.FindStringSubmatch(d.log())
	n := -1
	if m != nil {
		n, _ = strconv.Atoi(m[1])
	}
	s.e.tally.compare(n == len(s.cells))
	if n != len(s.cells) {
		return 0, fmt.Errorf("restarted daemon re-primed %d cells, want %d", n, len(s.cells))
	}
	return setup, nil
}

func (s *serveCached) next() *issued {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.cells[s.rng.IntN(len(s.cells))]
}

// measure runs the closed loop in segments of about a second, each
// followed by a reference slice. Every metric is a median over
// segments, which shrugs off a segment slowed by a noisy neighbour on
// a shared host.
func (s *serveCached) measure(ctx context.Context, tr *tracer, seconds float64) (map[string]Metric, error) {
	n := max(4, int(seconds))
	d := time.Duration(seconds / float64(n) * float64(time.Second))
	var lat, rates, p50, p90 []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ss := s.gen.closedLoop(ctx, tr, s.next, 0, d)
		wall := time.Since(t0).Seconds()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seg := sorted(latencies(ss, ""))
		if len(seg) == 0 {
			return nil, fmt.Errorf("no request succeeded")
		}
		lat = append(lat, seg...)
		rates = append(rates, float64(len(seg))/wall)
		p50 = append(p50, quantile(seg, 0.5))
		p90 = append(p90, quantile(seg, 0.9))
		s.e.calib.slice()
	}
	return map[string]Metric{
		"cells_per_s":    medianMetric("1/s", rates),
		"latency_p50_ms": medianMetric("ms", p50),
		"latency_p90_ms": medianMetric("ms", p90),
		"latency_p99_ms": percentileMetric(0.99, "ms", lat),
	}, nil
}

// check confirms the restarted daemon simulated nothing, then compares
// a seeded sample of served cells with local simulations.
func (s *serveCached) check(ctx context.Context) error {
	m, err := s.d.metrics(ctx)
	if err != nil {
		return err
	}
	s.e.tally.compare(m.Counters.JobsStarted == 0)
	if m.Counters.JobsStarted != 0 {
		s.e.tally.fail()
		s.e.logf("restarted daemon re-simulated %d cells", m.Counters.JobsStarted)
	}
	s.e.tally.note("restarts re-primed all %d journaled cells and simulated none", len(s.cells))
	return localCheck(ctx, s.e, s.e.cfg.Scale.CachedInsts, s.cells, s.e.cfg.Scale.LocalChecks)
}

func (s *serveCached) peakRSS() (float64, error) { return s.d.peakRSS(context.Background()) }

func (s *serveCached) close() error {
	if s.d == nil {
		return nil
	}
	return s.d.stop()
}

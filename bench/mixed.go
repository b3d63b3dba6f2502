package bench

import (
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mdspec/internal/experiments"
	"mdspec/internal/workload"
)

// serveMixed is the service's write path: mdserve fleets sharing a warm
// recording cache, each started with an empty journal and memo, under a
// stream in which about half the requests are cells the daemon has
// never seen (simulate, journal, dispatch to a worker) and the rest
// repeat its earlier cells, some still in flight (cache and dedup
// reads).
//
// The window is split into sessions, each on a fresh daemon. A worker
// keeps about 1.7 MB alive for every cell it has simulated, so one
// daemon serving the whole window would grow past 1.5 GB, and its
// speed with it; a session holds about a tenth of that. Every session
// runs both phases, so a slow spell on a shared host moves each metric
// a little instead of one of them a lot.
type serveMixed struct {
	e      *env
	recdir string
	d      *daemon
	gen    *loadGen
	stream *mixedStream
	fleet  fleetTotals
	rss    []float64 // peak memory of every measured session's daemon, MB
}

// fleetTotals sums the fleet counters of every measured session.
type fleetTotals struct {
	cells, busiest, steals, restarts, fallback, errors int64
}

func newServeMixed(e *env) (workloadRun, error) {
	meta := experiments.Options{Insts: e.cfg.Scale.MixedInsts}.Fingerprint()
	return &serveMixed{e: e, recdir: filepath.Join(e.dir, "recdir"), stream: &mixedStream{
		rng: rand.New(rand.NewPCG(e.rng.Uint64(), e.rng.Uint64())), meta: &meta, used: make(map[int]bool),
	}}, nil
}

// mixedStream draws serve-mixed's requests: 50% fresh cells from the
// cell space, 15% one of the session's last three fresh cells (likely
// still in flight, so deduplicated), 35% any earlier cell of the
// session (a cache hit).
type mixedStream struct {
	mu    sync.Mutex
	rng   *rand.Rand               //md:guardedby mu
	meta  *experiments.Fingerprint // immutable
	used  map[int]bool             //md:guardedby mu
	fresh []*issued                //md:guardedby mu — the current session's fresh cells
	all   []*issued                //md:guardedby mu — every fresh cell of the run
}

func (m *mixedStream) next() *issued {
	m.mu.Lock()
	defer m.mu.Unlock()
	u := m.rng.Float64()
	switch n := len(m.fresh); {
	case n == 0 || u < 0.5:
		return m.freshLocked(-1)
	case u < 0.65:
		return m.fresh[n-1-m.rng.IntN(min(3, n))]
	default:
		return m.fresh[m.rng.IntN(n)]
	}
}

// nextOf draws a fresh cell of benchmark b (an index into
// workload.Names).
func (m *mixedStream) nextOf(b int) *issued {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freshLocked(b)
}

// freshLocked draws a cell the run has not requested yet, of benchmark
// b, or of any benchmark if b < 0. cellAt takes the benchmark from the
// index modulo the number of benchmarks.
//
//md:locked mu
func (m *mixedStream) freshLocked(b int) *issued {
	nb := len(workload.Names())
	for {
		i := m.rng.IntN(cellSpaceSize())
		if b >= 0 {
			i += b - i%nb
		}
		if !m.used[i] {
			m.used[i] = true
			x := newIssued(cellAt(i), m.meta)
			m.fresh = append(m.fresh, x)
			m.all = append(m.all, x)
			return x
		}
	}
}

// newSession empties the pool that requests repeat from: a new daemon
// has served none of those cells.
func (m *mixedStream) newSession() {
	m.mu.Lock()
	m.fresh = nil
	m.mu.Unlock()
}

func (m *mixedStream) cells() []*issued {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*issued(nil), m.all...)
}

// setup starts a fresh daemon, with an empty journal over the run's
// recording cache, and times it until every worker is alive.
func (s *serveMixed) setup(ctx context.Context) (time.Duration, error) {
	if s.d != nil {
		err := s.d.stop()
		s.d = nil
		if err != nil {
			return 0, err
		}
	}
	dir, err := s.e.runDir("daemon")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	d, err := startDaemon(ctx, s.e.cfg.Mdserve, dir,
		"-n", strconv.FormatInt(s.e.cfg.Scale.MixedInsts, 10),
		"-recdir", s.recdir, "-journal", filepath.Join(dir, "journal"))
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0)
	s.d, s.gen = d, newLoadGen(s.e, d)
	s.stream.newSession()
	return setup, nil
}

// measure runs MixedSessions sessions, each on a fresh daemon. A
// session first requests one fresh cell of every benchmark, untimed, so
// that the recording cache holds every program and the workers have
// opened every recording; then it runs an open loop at the reference
// rate and a closed loop that measures capacity. Each phase is a number
// of requests, about its share of the window at the nominal rates, so
// a seed always requests the same cells.
func (s *serveMixed) measure(ctx context.Context, tr *tracer, seconds float64) (map[string]Metric, error) {
	sc := s.e.cfg.Scale
	nb := len(workload.Names())
	refN := max(4, int(sc.MixedRefRPS*0.5*seconds)/sc.MixedSessions)
	capN := max(8, int(sc.MixedNominalRPS*0.45*seconds)/sc.MixedSessions)
	const grace = 5 * time.Second
	var ref openStep
	var capRates []float64
	for i := 0; i < sc.MixedSessions; i++ {
		if i > 0 {
			if _, err := s.setup(ctx); err != nil {
				return nil, err
			}
		}
		var k atomic.Int64
		s.gen.closedLoop(ctx, nil, func() *issued { return s.stream.nextOf(int(k.Add(1)-1) % nb) }, nb, 0)
		ref.add(s.gen.openLoop(ctx, tr, s.stream.next, sc.MixedRefRPS, refN, grace, true))
		s.e.calib.slice()
		t0 := time.Now()
		ss := s.gen.closedLoop(ctx, nil, s.stream.next, capN, 0)
		capRates = append(capRates, float64(len(latencies(ss, "")))/time.Since(t0).Seconds())
		if err := s.endSession(ctx); err != nil {
			return nil, err
		}
		s.e.calib.slice()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The latency metrics are the write path's: requests for fresh
	// cells. Over all requests the median falls between the cache-hit
	// and the simulated mode, so it would swing with the mix.
	fresh := latencies(ref.samples, experiments.SourceSimulated)
	all := latencies(ref.samples, "")
	if len(fresh) == 0 {
		return nil, errors.New("no fresh cell was served at the reference rate")
	}
	f := s.fleet
	return map[string]Metric{
		"fleet_busiest_share":  countMetric(float64(f.busiest)/float64(max(1, f.cells)), "ratio"),
		"fleet_steals":         countMetric(float64(f.steals), "count"),
		"fleet_restarts":       countMetric(float64(f.restarts), "count"),
		"fleet_fallback_cells": countMetric(float64(f.fallback), "count"),
		"server_errors":        countMetric(float64(f.errors), "count"),
		"cells_per_s":          medianMetric("1/s", capRates),
		"latency_p50_ms":       percentileMetric(0.5, "ms", fresh),
		"latency_p90_ms":       percentileMetric(0.9, "ms", fresh),
		"all_latency_p50_ms":   percentileMetric(0.5, "ms", all),
		"all_latency_p99_ms":   percentileMetric(0.99, "ms", all),
		"late_ms_p99":          percentileMetric(0.99, "ms", ref.late),
		"cache_hit_frac":       countMetric(1-float64(len(fresh))/float64(len(all)), "ratio"),
	}, nil
}

// endSession adds the session daemon's fleet counters and peak memory
// to the run's.
func (s *serveMixed) endSession(ctx context.Context) error {
	dm, err := s.d.metrics(ctx)
	if err != nil {
		return err
	}
	rss, err := s.d.peakRSS(ctx)
	if err != nil {
		return err
	}
	s.rss = append(s.rss, rss)
	f := &s.fleet
	var most int64
	for _, w := range dm.Fleet.Workers {
		f.cells += w.Cells
		most = max(most, w.Cells)
		f.steals += w.Steals
		f.restarts += w.Restarts
	}
	f.busiest += most
	f.fallback += dm.Fleet.FallbackCells
	f.errors += dm.Endpoints["POST /v1/runs"].Errors
	return nil
}

func (s *serveMixed) check(ctx context.Context) error {
	return localCheck(ctx, s.e, s.e.cfg.Scale.MixedInsts, s.stream.cells(), s.e.cfg.Scale.LocalChecks)
}

// peakRSS is the median over sessions of a daemon's peak memory.
func (s *serveMixed) peakRSS() (float64, error) {
	if len(s.rss) == 0 {
		return 0, errors.New("no session was measured")
	}
	return quantile(sorted(s.rss), 0.5), nil
}

func (s *serveMixed) close() error {
	if s.d == nil {
		return nil
	}
	return s.d.stop()
}

package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// recordingSlack is how far past a cell's committed budget its
// recording is captured: the window's fetch-ahead and squash refetch
// stay inside the captured prefix, so no timed run pays emulation.
const recordingSlack = 1 << 16

// cellTiming times core.New + Pipeline.Run over in-memory recordings,
// in process. Every pass runs all 18 benchmarks under all five
// timingConfigs in a seeded order, so the seed changes the order but
// never the mix, and the metric does not depend on it.
type cellTiming struct {
	e       *env
	insts   int64
	recs    map[string]*emu.Recording
	golden  map[string]string
	benches []string
	mu      sync.Mutex
	seen    map[string]string //md:guardedby mu — first digest of every cell, where golden.json has none
}

func newCellTiming(e *env) (workloadRun, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	insts := e.cfg.Scale.CellInsts
	return &cellTiming{
		e: e, insts: insts, benches: workload.Names(),
		golden: g[goldenSection("cell-timing", insts)], seen: make(map[string]string),
	}, nil
}

// setup builds the programs and captures every benchmark's recording.
func (c *cellTiming) setup(ctx context.Context) (time.Duration, error) {
	c.recs = nil
	runtime.GC() // free the previous repetition's recordings, untimed
	t0 := time.Now()
	recs, err := captureRecordings(ctx, c.benches, c.insts+recordingSlack)
	c.recs = recs
	return time.Since(t0), err
}

func captureRecordings(ctx context.Context, benches []string, n int64) (map[string]*emu.Recording, error) {
	recs := make(map[string]*emu.Recording, len(benches))
	for _, b := range benches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := workload.Build(b)
		if err != nil {
			return nil, err
		}
		rec := emu.NewRecording(emu.New(p))
		rec.Record(n)
		recs[b] = rec
	}
	return recs, nil
}

// measure runs whole passes until the window is used up. A pass hands
// the cells to one caller per CPU. A lone caller's speed swings by a
// fifth with whatever runs on the other CPU of a 2-vCPU host, while
// callers on every CPU see the same, steady contention.
func (c *cellTiming) measure(ctx context.Context, tr *tracer, seconds float64) (map[string]Metric, error) {
	cfgs := timingConfigs()
	n := len(c.benches) * len(cfgs)
	var mu sync.Mutex
	var passRates, passSpeeds, passP50, passP90 []float64
	var failure error
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		order := c.e.rng.Perm(n)
		var next int
		var passCells, passCommitted int64
		var lat []float64
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if next == n || failure != nil || ctx.Err() != nil {
						mu.Unlock()
						return
					}
					i := order[next]
					next++
					mu.Unlock()
					b, nc := c.benches[i/len(cfgs)], cfgs[i%len(cfgs)]
					run, d, err := c.cell(tr, b, nc)
					mu.Lock()
					switch {
					case err != nil:
						failure = err
					case run != nil:
						passCells++
						passCommitted += run.Committed
						lat = append(lat, float64(d.Nanoseconds())/1e6)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if failure != nil {
			return nil, failure
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		passRates = append(passRates, float64(passCells)/wall)
		passSpeeds = append(passSpeeds, float64(passCommitted)/wall)
		if lat = sorted(lat); len(lat) > 0 {
			passP50 = append(passP50, quantile(lat, 0.5))
			passP90 = append(passP90, quantile(lat, 0.9))
		}
		c.e.calib.slice()
	}
	// Every metric is a median over passes, which shrugs off a pass
	// slowed by a noisy neighbour on a shared host.
	return map[string]Metric{
		"cells_per_s":     medianMetric("1/s", passRates),
		"latency_p50_ms":  medianMetric("ms", passP50),
		"latency_p90_ms":  medianMetric("ms", passP90),
		"sim_insts_per_s": medianMetric("insts/s", passSpeeds),
	}, nil
}

// cell simulates one cell and checks its statistics. It returns the
// run and the time core.New + Run took, a nil run if the simulation
// failed (counted, not fatal), or an error if the cell could not start.
func (c *cellTiming) cell(tr *tracer, b string, nc namedConfig) (*stats.Run, time.Duration, error) {
	key := b + "|" + nc.Key
	root := tr.Begin(0, "bench.cell", key)
	defer tr.End(root)
	t0 := time.Now()
	sp := tr.Begin(root, "core.new", key)
	p, err := core.New(nc.Cfg, c.recs[b].NewReplay())
	tr.End(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", key, err)
	}
	sp = tr.Begin(root, "core.run", key)
	run, err := p.Run(c.insts)
	tr.End(sp)
	d := time.Since(t0)
	c.e.tally.attempt()
	if err != nil {
		c.e.tally.fail()
		c.e.logf("cell %s failed: %v", key, err)
		return nil, d, nil
	}
	sp = tr.Begin(root, "bench.check", key)
	c.verify(key, digest(run))
	tr.End(sp)
	return run, d, nil
}

// verify compares a cell's digest with the golden file, or, at a scale
// the golden file does not cover, with the cell's first run.
func (c *cellTiming) verify(key, d string) {
	want, ok := c.golden[key]
	if !ok {
		c.mu.Lock()
		want, ok = c.seen[key]
		if !ok {
			c.seen[key] = d
		}
		c.mu.Unlock()
		if !ok {
			return
		}
	}
	c.e.tally.compare(d == want)
	if d != want {
		c.e.tally.fail()
		c.e.logf("cell %s: digest %s, want %s", key, d[:12], want[:12])
	}
}

func (c *cellTiming) check(context.Context) error {
	if c.golden == nil {
		c.e.tally.note("no golden digests at %d insts; checked repeat runs for bit-identical stats", c.insts)
	} else {
		c.e.tally.note("cell digests compared with golden.json section %s", goldenSection("cell-timing", c.insts))
	}
	return nil
}

func (c *cellTiming) peakRSS() (float64, error) { return peakRSSMB(0) }

func (c *cellTiming) close() error { return nil }

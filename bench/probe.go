package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdspec/internal/ckpt"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/experiments"
	"mdspec/internal/fleet"
	"mdspec/internal/parsim"
	"mdspec/internal/prog"
	"mdspec/internal/server"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// probeBench is the benchmark the layer probes run: the gcc analog,
// with pointer chasing, calls and a large footprint.
const probeBench = "126.gcc"

// probePeriods is the number of sampling periods in a probe's sampled
// cell, whose timing window is therefore ProbeInsts / probePeriods and
// whose functional window is twice that, as in sweep-warm.
const probePeriods = 20

// probeSweepBenches is the probe sweep's suite: two integer and two
// floating-point analogs.
var probeSweepBenches = []string{"126.gcc", "130.li", "102.swim", "145.fpppp"}

// prober measures each layer on its own, through its public functions,
// on fixed inputs that do not depend on the workload. Its numbers are
// a traced run's per-layer metrics: the unit cost of every layer the
// workloads' end-to-end metrics are built from.
type prober struct {
	e    *env
	dir  string
	n    int64 // committed instructions per probe simulation
	prog *prog.Program
	rec  *emu.Recording
	out  map[string]Metric
	run  *stats.Run // a NAS/SYNC run, for the stats and journal probes
}

func runProbes(ctx context.Context, e *env) (map[string]Metric, error) {
	dir, err := e.runDir("probe")
	if err != nil {
		return nil, err
	}
	p := &prober{e: e, dir: dir, n: e.cfg.Scale.ProbeInsts, out: make(map[string]Metric)}
	if p.prog, err = workload.Build(probeBench); err != nil {
		return nil, err
	}
	for _, step := range []func(context.Context) error{p.emu, p.core, p.ckptParsim, p.stats, p.journal, p.sweep, p.server, p.fleet} {
		if err := step(ctx); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// timeReps runs f reps times and returns each run's duration.
func timeReps(reps int, f func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// per scales durations to one unit of work, in the given time unit.
func per(ds []time.Duration, work float64, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit) / work
	}
	return out
}

// emu: capture, decode-only replay, footprint, and opening a recording
// file.
func (p *prober) emu(context.Context) error {
	// The recording covers the warmer probe's 4n instructions and the
	// sampled cell's 3n (probePeriods timing plus functional windows).
	horizon := 5*p.n + recordingSlack
	ds, _ := timeReps(3, func() error {
		p.rec = emu.NewRecording(emu.New(p.prog))
		p.rec.Record(horizon)
		return nil
	})
	p.out["emu.capture_ns_per_inst"] = medianMetric("ns", per(ds, float64(horizon), time.Nanosecond))
	ds, _ = timeReps(5, func() error {
		rp := p.rec.NewReplay()
		for s := int64(0); s < horizon; s++ {
			rp.At(s)
		}
		return nil
	})
	p.out["emu.decode_ns_per_inst"] = medianMetric("ns", per(ds, float64(horizon), time.Nanosecond))
	p.out["emu.bytes_per_inst"] = countMetric(float64(p.rec.SizeBytes())/float64(p.rec.Len()), "B")

	path := filepath.Join(p.dir, probeBench+".mdrec")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := p.rec.WriteSealedTo(f); err != nil {
		f.Close() //md:errok the write error is the one reported
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	ds, err = timeReps(5, func() error {
		fr, err := emu.OpenRecordingFile(path, p.prog)
		if err != nil {
			return err
		}
		return fr.Close()
	})
	if err != nil {
		return fmt.Errorf("opening a recording: %w", err)
	}
	p.out["emu.open_ms"] = medianMetric("ms", per(ds, 1, time.Millisecond))
	return nil
}

// core: host time per committed instruction and per simulated cycle
// for every cell-timing configuration, the simulated counts that must
// not move under a speed-only change, and functional warming.
func (p *prober) core(context.Context) error {
	var decode float64
	if m, ok := p.out["emu.decode_ns_per_inst"]; ok {
		decode = m.Value
	}
	var nsInst []float64
	for _, nc := range timingConfigs() {
		var run *stats.Run
		var perInst, perCycle []float64
		for i := 0; i < 3; i++ {
			pl, err := core.New(nc.Cfg, p.rec.NewReplay())
			if err != nil {
				return err
			}
			t0 := time.Now()
			if run, err = pl.Run(p.n); err != nil {
				return fmt.Errorf("%s: %w", nc.Key, err)
			}
			d := float64(time.Since(t0).Nanoseconds())
			perInst = append(perInst, d/float64(run.Committed))
			perCycle = append(perCycle, d/float64(run.Cycles))
		}
		if nc.Cfg.Policy == config.Sync {
			p.run = run
		}
		ni := medianMetric("ns", perInst)
		nsInst = append(nsInst, ni.Value)
		p.out["core.ns_per_inst."+nc.Key] = ni
		p.out["core.ns_per_cycle."+nc.Key] = medianMetric("ns", perCycle)
		p.out["core.ipc."+nc.Key] = countMetric(run.IPC(), "insts/cycle")
		p.out["core.squashed_per_kinst."+nc.Key] = countMetric(1000*float64(run.SquashedInsts)/float64(run.Committed), "1/kinst")
		p.out["core.stall_mem_frac."+nc.Key] = countMetric(float64(run.StallMem)/float64(run.Cycles), "ratio")
	}
	// Decode is repeated identically by every configuration of a
	// benchmark; its share of a cell's host time decides whether
	// lockstep multi-configuration replay can pay.
	p.out["emu.decode_share"] = countMetric(decode/quantile(sorted(nsInst), 0.5), "ratio")

	adv := 4 * p.n
	ds, _ := timeReps(3, func() error {
		core.NewMachineWarmer(timingConfigs()[0].Cfg, p.rec.NewReplay()).Advance(adv)
		return nil
	})
	p.out["core.warm_ns_per_inst"] = medianMetric("ns", per(ds, float64(adv), time.Nanosecond))
	return nil
}

// ckptParsim: building, opening and restoring warm-state checkpoints,
// and one sampled cell on one worker and on every CPU.
func (p *prober) ckptParsim(ctx context.Context) error {
	cfg := config.Default128().WithPolicy(config.Sync)
	tw := p.n / probePeriods
	seqs := ckpt.Positions(p.n, tw, 2*tw, parsim.DefaultSegmentPeriods, tw)
	fp := emu.ProgramFingerprint(p.prog)
	var set *ckpt.Set
	ds, err := timeReps(3, func() (err error) {
		set, err = ckpt.Build(cfg, p.rec, fp, seqs)
		return err
	})
	if err != nil {
		return err
	}
	if len(set.Frames) == 0 {
		return errors.New("checkpoint probe captured no frames")
	}
	p.out["ckpt.build_ms"] = medianMetric("ms", per(ds, 1, time.Millisecond))
	p.out["ckpt.bytes_per_frame"] = countMetric(float64(set.SizeBytes())/float64(len(set.Frames)), "B")
	path := filepath.Join(p.dir, "probe.mdckpt")
	if err := set.WriteFile(path); err != nil {
		return err
	}
	ds, err = timeReps(5, func() error {
		_, err := ckpt.OpenFile(path, fp, ckpt.WarmConfigOf(cfg).Hash())
		return err
	})
	if err != nil {
		return err
	}
	p.out["ckpt.open_ms"] = medianMetric("ms", per(ds, 1, time.Millisecond))
	var restore []float64
	for i := 0; i < 20; i++ {
		pl, err := core.New(cfg, p.rec.NewReplay())
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := pl.RestoreWarm(set.Frames[i%len(set.Frames)].State); err != nil {
			return err
		}
		restore = append(restore, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p.out["ckpt.restore_us"] = medianMetric("us", restore)

	cell := func(workers int) ([]float64, error) {
		ds, err := timeReps(3, func() error {
			_, err := parsim.Run(ctx, cfg, p.rec, parsim.Options{
				TotalTiming: p.n, TimingInsts: tw, FunctionalInsts: 2 * tw, Workers: workers, Checkpoints: set,
			})
			return err
		})
		return per(ds, 1, time.Millisecond), err
	}
	w1, err := cell(1)
	if err != nil {
		return err
	}
	wn, err := cell(runtime.NumCPU())
	if err != nil {
		return err
	}
	m1, mn := medianMetric("ms", w1), medianMetric("ms", wn)
	p.out["parsim.cell_ms.w1"] = m1
	p.out["parsim.cell_ms.wN"] = mn
	p.out["parsim.speedup"] = countMetric(m1.Value/mn.Value, "x")
	return nil
}

// stats: merging one sampled cell's segment results.
func (p *prober) stats(context.Context) error {
	parts := make([]*stats.Run, (probePeriods+parsim.DefaultSegmentPeriods-1)/parsim.DefaultSegmentPeriods)
	for i := range parts {
		r := *p.run
		parts[i] = &r
	}
	const merges = 10_000
	ds, _ := timeReps(3, func() error {
		for i := 0; i < merges; i++ {
			stats.Merge(parts)
		}
		return nil
	})
	p.out["stats.merge_us"] = medianMetric("us", per(ds, merges, time.Microsecond))
	return nil
}

// journal: fsynced appends to a fresh segment, and replaying them.
func (p *prober) journal(context.Context) error {
	jdir := filepath.Join(p.dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	opt := experiments.Options{Insts: p.n}
	j, _, err := experiments.OpenJournalSegment(jdir, "probe", opt, 0)
	if err != nil {
		return err
	}
	appends := int(p.n / 100)
	rec := experiments.NewRunRecord(probeBench, config.Default128().WithPolicy(config.Sync), p.n, time.Second, p.run)
	var lat []float64
	for i := 0; i < appends; i++ {
		rec.ConfigHash = fmt.Sprintf("%016x", i) // distinct cells, as a sweep appends
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close() //md:errok the append error is the one reported
			return err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	p.out["experiments.journal_append_us.p50"] = percentileMetric(0.5, "us", lat)
	p.out["experiments.journal_append_us.p99"] = percentileMetric(0.99, "us", lat)
	ds, err := timeReps(3, func() error {
		recs, err := experiments.ReplayJournalDir(jdir, opt)
		if err == nil && len(recs) != appends {
			err = fmt.Errorf("replayed %d records, appended %d", len(recs), appends)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out["experiments.journal_replay_ms"] = medianMetric("ms", per(ds, 1, time.Millisecond))
	return nil
}

// sweep: a small warm Figure 2 sweep's per-cell time and how busy it
// keeps the parallelism budget.
func (p *prober) sweep(ctx context.Context) error {
	tw := p.n / probePeriods
	opt := experiments.Options{
		Insts: p.n / 2, Benchmarks: probeSweepBenches, Sampled: true,
		TimingWindow: tw, FunctionalWindow: 2 * tw,
		Parallel: runtime.NumCPU(), RecordingDir: filepath.Join(p.dir, "recdir"),
	}
	var mu sync.Mutex
	var cellMS []float64
	var busy float64
	for pass := 0; pass < 2; pass++ { // the first pass fills the cache
		o := opt
		if pass == 1 {
			o.Hooks.JobFinished = func(_, _ string, d time.Duration, _ error) {
				mu.Lock()
				cellMS = append(cellMS, float64(d.Nanoseconds())/1e6)
				mu.Unlock()
			}
		}
		r := experiments.NewRunner(o)
		t0 := time.Now()
		_, err := experiments.Figure2(ctx, r)
		wall := time.Since(t0)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		busy = r.Counters().SimSeconds / (wall.Seconds() * float64(o.Parallel))
	}
	p.out["experiments.cell_ms.p50"] = percentileMetric(0.5, "ms", cellMS)
	p.out["experiments.sim_busy_frac"] = countMetric(busy, "ratio")
	return nil
}

// serviceInsts is the budget of the cells the server and fleet probes
// request: short, so the service's own overheads stand out.
func (p *prober) serviceInsts() int64 { return p.n / probePeriods }

// server: client round trips to an in-process server for simulated,
// cached and deduplicated cells, and the handler's own time.
func (p *prober) server(ctx context.Context) error {
	opt := experiments.Options{Insts: p.serviceInsts()}
	srv := server.New(server.Config{Options: opt})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv, ErrorLog: log.New(io.Discard, "", 0)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shCtx) // nothing is in flight once the probe returns
		<-served
		srv.Close()
	}()

	c := server.NewClient(ln.Addr().String(), opt)
	rtt := map[experiments.RunSource][]float64{}
	var mu sync.Mutex
	call := func(x cell) error {
		t0 := time.Now()
		_, src, err := c.RunWithSource(ctx, x.Bench, x.Cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		rtt[src] = append(rtt[src], float64(time.Since(t0).Nanoseconds())/1e6)
		mu.Unlock()
		return nil
	}
	const fresh = 16
	for i := 0; i < fresh; i++ {
		if err := call(probeCell(i)); err != nil {
			return err
		}
	}
	for i := 0; i < 200; i++ {
		if err := call(probeCell(i % fresh)); err != nil {
			return err
		}
	}
	// Two concurrent requests for a cell nobody has asked for: one
	// simulates, the other joins it in flight.
	for i := fresh; i < fresh+64 && len(rtt[experiments.SourceDedup]) < 8; i++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for k := range errs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = call(probeCell(i))
			}(k)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	for _, src := range []experiments.RunSource{experiments.SourceSimulated, experiments.SourceCache, experiments.SourceDedup} {
		if len(rtt[src]) == 0 {
			return fmt.Errorf("server probe saw no %s replies", src)
		}
	}
	p.out["server.rtt_ms.simulated.p50"] = percentileMetric(0.5, "ms", rtt[experiments.SourceSimulated])
	p.out["server.rtt_ms.cache.p50"] = percentileMetric(0.5, "ms", rtt[experiments.SourceCache])
	p.out["server.rtt_ms.cache.p99"] = percentileMetric(0.99, "ms", rtt[experiments.SourceCache])
	p.out["server.rtt_ms.dedup.p50"] = percentileMetric(0.5, "ms", rtt[experiments.SourceDedup])

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+ln.Addr().String()+"/v1/metrics", nil)
	if err != nil {
		return err
	}
	m, err := decodeMetrics(http.DefaultClient.Do(req))
	if err != nil {
		return err
	}
	ep := m.Endpoints["POST /v1/runs"]
	p.out["server.handler_ms"] = countMetric(1e3*ep.SecondsTotal/float64(ep.Requests), "ms")
	return nil
}

// fleet: dispatching cells to worker processes over their unix
// sockets, net of the workers' own simulation time.
func (p *prober) fleet(ctx context.Context) error {
	opt := experiments.Options{Insts: p.serviceInsts()}
	meta := opt.Fingerprint()
	local := experiments.NewRunner(opt)
	defer local.Close()
	pool, err := fleet.Start(ctx, fleet.Config{
		Procs: serveWorkers, Exec: p.e.cfg.Mdserve,
		Args: func(slot int, socket string) []string {
			return []string{"-worker", "-socket", socket, "-worker-id", fleet.WorkerID(slot),
				"-n", strconv.FormatInt(opt.Insts, 10), "-quiet"}
		},
		Dir: relDir(filepath.Join(p.dir, "fleet")), Meta: &meta,
		Fallback: local.LocalSimulate, Log: log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	for deadline := time.Now().Add(30 * time.Second); pool.Report().Alive < serveWorkers; {
		if time.Now().After(deadline) {
			return errors.New("fleet probe: workers not alive after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var dispatch []float64
	for i := 0; i < 24; i++ {
		x := probeCell(1000 + i)
		t0 := time.Now()
		rec, err := pool.SimulateRecord(ctx, x.Bench, x.Cfg)
		if err != nil {
			return err
		}
		dispatch = append(dispatch, float64(time.Since(t0).Nanoseconds())/1e6-1e3*rec.WallSeconds)
	}
	rep := pool.Report()
	lo, hi, steals := int64(-1), int64(0), int64(0)
	for _, w := range rep.Workers {
		if lo < 0 || w.Cells < lo {
			lo = w.Cells
		}
		hi = max(hi, w.Cells)
		steals += w.Steals
	}
	p.out["fleet.dispatch_ms"] = percentileMetric(0.5, "ms", dispatch)
	p.out["fleet.cells_min"] = countMetric(float64(lo), "count")
	p.out["fleet.cells_max"] = countMetric(float64(hi), "count")
	p.out["fleet.steals"] = countMetric(float64(steals), "count")
	return nil
}

// relDir returns path relative to the working directory when it lies
// below it. Unix socket paths are limited to about 100 bytes, and the
// fleet probe's sockets live under the run's work directory.
func relDir(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

// probeCell is a fixed cell of the serve cell space, spread across it.
func probeCell(i int) cell {
	return cellAt(i * 7919 % cellSpaceSize())
}

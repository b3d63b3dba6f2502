package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mdspec/internal/experiments"
	"mdspec/internal/server"
	"mdspec/internal/stats"
)

// serveWorkers is the fleet size of every serve workload's daemon.
const serveWorkers = 2

// loadConns is the number of HTTP connections the load generator
// uses: two, and never more than the CPUs.
func loadConns() int { return min(2, runtime.NumCPU()) }

// daemon is one mdserve process tree: the supervisor and its workers.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	hc      *http.Client
	exited  chan struct{}
	waitErr error // set before exited closes
}

// startDaemon starts mdserve with a fleet of serveWorkers in dir and
// returns once every worker is alive. The daemon's temporary directory
// is dir itself, given relatively, so its worker sockets have short
// paths.
func startDaemon(ctx context.Context, bin, dir string, args ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "mdserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	argv := append([]string{"-addr", addr, "-quiet", "-workers", strconv.Itoa(serveWorkers)}, args...)
	cmd := exec.Command(bin, argv...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR=.")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = daemonProcAttr()
	err = cmd.Start()
	logf.Close() //md:errok the child holds its own descriptor; nothing was written through this one
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, hc: &http.Client{}, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(ctx); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// waitReady polls /v1/metrics until the fleet reports every worker
// alive.
func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if m, err := d.metrics(ctx); err == nil && m.Fleet != nil && m.Fleet.Alive == serveWorkers {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("mdserve exited before ready (%v); log: %s", d.waitErr, d.log())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mdserve not ready after 60s; log: %s", d.log())
		}
	}
}

func (d *daemon) metrics(ctx context.Context) (*server.MetricsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	return decodeMetrics(d.hc.Do(req))
}

// decodeMetrics reads a /v1/metrics reply.
func decodeMetrics(resp *http.Response, err error) (*server.MetricsResponse, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics: HTTP %d", resp.StatusCode)
	}
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/v1/metrics: %w", err)
	}
	return &m, nil
}

// log returns the daemon's stderr so far.
func (d *daemon) log() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	return string(data)
}

// peakRSS sums the peak resident memory of the supervisor and its
// workers; call it before stop.
func (d *daemon) peakRSS(ctx context.Context) (float64, error) {
	m, err := d.metrics(ctx)
	if err != nil {
		return 0, err
	}
	total, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return 0, err
	}
	for _, w := range m.Fleet.Workers {
		mb, err := peakRSSMB(w.PID)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop drains the daemon with SIGTERM (it stops its own workers) and
// waits for it to exit, killing it if the drain takes over a minute.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill() // the wait below reports how it ended
		<-d.exited
	}
	if d.waitErr != nil {
		return fmt.Errorf("mdserve: %v; log: %s", d.waitErr, d.log())
	}
	return nil
}

// issued is a cell the load generator has requested at least once,
// with its encoded request and the first statistics served for it.
type issued struct {
	cell
	body  []byte
	mu    sync.Mutex
	first *stats.Run //md:guardedby mu
}

func newIssued(c cell, meta *experiments.Fingerprint) *issued {
	body, err := json.Marshal(server.RunRequest{Bench: c.Bench, Config: c.Cfg, Meta: meta})
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a run request: %v", err)) // a struct of numbers and strings always marshals
	}
	return &issued{cell: c, body: body}
}

// served records the statistics of one response for the cell; every
// later response must be identical to the first.
func (x *issued) served(t *tally, r *stats.Run) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.first == nil {
		x.first = r
		return
	}
	same := reflect.DeepEqual(x.first, r)
	t.compare(same)
	if !same {
		t.fail()
	}
}

// sample is one request as the load generator saw it.
type sample struct {
	due, sent, done time.Time
	src             experiments.RunSource
	err             error
}

// loadGen sends cell requests to a daemon over at most loadConns
// connections and accounts every request in the run's tally.
type loadGen struct {
	e        *env
	base     string
	hc       *http.Client
	arrivals *rand.Rand // open-loop inter-arrival times, seeded from the run's seed
}

func newLoadGen(e *env, d *daemon) *loadGen {
	conns := loadConns()
	return &loadGen{e: e, base: d.base,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		arrivals: rand.New(rand.NewPCG(e.rng.Uint64(), e.rng.Uint64())),
	}
}

// send requests one cell and records the reply.
func (g *loadGen) send(ctx context.Context, x *issued, s *sample, counted bool) {
	s.sent = time.Now()
	s.src, s.err = g.post(ctx, x)
	s.done = time.Now()
	if counted {
		g.e.tally.attempt()
		if s.err != nil {
			g.e.tally.fail()
		}
	}
}

func (g *loadGen) post(ctx context.Context, x *issued) (experiments.RunSource, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/runs", bytes.NewReader(x.body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return "", fmt.Errorf("%s: HTTP %d: %s", x.Key, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rr server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return "", fmt.Errorf("%s: decoding reply: %w", x.Key, err)
	}
	if rr.Record.Stats == nil {
		return "", fmt.Errorf("%s: reply carries no stats", x.Key)
	}
	x.served(&g.e.tally, rr.Record.Stats)
	return rr.Source, nil
}

// closedLoop keeps loadConns requests in flight, each connection
// sending its next request when the previous one returns, until n
// requests have been sent (n > 0) or d has passed (d > 0).
func (g *loadGen) closedLoop(ctx context.Context, tr *tracer, next func() *issued, n int, d time.Duration) []sample {
	end := time.Now().Add(d)
	var mu sync.Mutex
	var out []sample
	sent := 0
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if (n > 0 && sent >= n) || (d > 0 && !time.Now().Before(end)) || ctx.Err() != nil {
			return false
		}
		sent++
		return true
	}
	var wg sync.WaitGroup
	for i := 0; i < loadConns(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				x := next()
				s := sample{due: time.Now()}
				g.send(ctx, x, &s, true)
				traceRequest(tr, x, &s)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// openStep is one open-loop rate step's outcome.
type openStep struct {
	samples []sample
	late    []float64 // generator lateness per request, ms
}

// add merges another step at the same rate into st.
func (st *openStep) add(o openStep) {
	st.samples = append(st.samples, o.samples...)
	st.late = append(st.late, o.late...)
}

// openLoop sends n requests at seeded exponential inter-arrival times
// with mean 1/rate, whatever the replies do, over at most loadConns
// connections. Each request is timed from when it was due, so a stall
// counts against every request it delays. Requests still unanswered
// grace after the last arrival are cancelled and fail.
func (g *loadGen) openLoop(ctx context.Context, tr *tracer, next func() *issued, rate float64, n int, grace time.Duration, counted bool) openStep {
	type job struct {
		x *issued
		s sample
	}
	var step openStep
	// One slot per arrival, so the generator never blocks on busy
	// connections and its lateness measures only itself.
	due := make(chan job, n)
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < loadConns(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range due {
				g.send(reqCtx, j.x, &j.s, counted)
				traceRequest(tr, j.x, &j.s)
				mu.Lock()
				step.samples = append(step.samples, j.s)
				mu.Unlock()
			}
		}()
	}
	t := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		t = t.Add(time.Duration(g.arrivals.ExpFloat64() / rate * 1e9))
		time.Sleep(time.Until(t))
		x := next()
		step.late = append(step.late, float64(time.Since(t).Nanoseconds())/1e6)
		due <- job{x: x, s: sample{due: t}}
	}
	close(due)
	stop := time.AfterFunc(grace, cancel)
	defer stop.Stop()
	wg.Wait()
	return step
}

// traceRequest records a request's spans: the whole request from when
// it was due, split into the generator's wait for a free connection
// and the round trip through the server.
func traceRequest(tr *tracer, x *issued, s *sample) {
	if tr == nil {
		return
	}
	root := tr.Add(0, "load.request", x.Key, s.due, s.done)
	if s.sent.After(s.due) {
		tr.Add(root, "load.wait", x.Key, s.due, s.sent)
	}
	tr.Add(root, "server.rtt", x.Key, s.sent, s.done)
}

// latencies returns the successful requests' latencies from when they
// were due, in ms: of every request, or of those answered from src.
func latencies(ss []sample, src experiments.RunSource) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.err == nil && (src == "" || s.src == src) {
			out = append(out, float64(s.done.Sub(s.due).Nanoseconds())/1e6)
		}
	}
	return out
}

// localCheck re-simulates up to k served cells, chosen by the seed, on
// a local runner and compares statistics with what the daemon served.
func localCheck(ctx context.Context, e *env, insts int64, cells []*issued, k int) error {
	var served []*issued
	for _, x := range cells {
		x.mu.Lock()
		if x.first != nil {
			served = append(served, x)
		}
		x.mu.Unlock()
	}
	e.rng.Shuffle(len(served), func(i, j int) { served[i], served[j] = served[j], served[i] })
	served = served[:min(k, len(served))]
	r := experiments.NewRunner(experiments.Options{Insts: insts, Parallel: 1})
	defer r.Close()
	for _, x := range served {
		local, err := r.LocalSimulate(ctx, x.Bench, x.Cfg)
		if err != nil {
			return fmt.Errorf("local %s: %w", x.Key, err)
		}
		x.mu.Lock()
		same := reflect.DeepEqual(local, x.first)
		x.mu.Unlock()
		e.tally.compare(same)
		if !same {
			e.tally.fail()
			e.logf("cell %s: served statistics differ from a local simulation", x.Key)
		}
	}
	e.tally.note("%d served cells equal a local Runner.LocalSimulate", len(served))
	return nil
}

// seededCells draws n distinct cells from the cell space.
func seededCells(rng *rand.Rand, n int, meta *experiments.Fingerprint) []*issued {
	used := make(map[int]bool, n)
	out := make([]*issued, 0, n)
	for len(out) < n {
		i := rng.IntN(cellSpaceSize())
		if !used[i] {
			used[i] = true
			out = append(out, newIssued(cellAt(i), meta))
		}
	}
	return out
}

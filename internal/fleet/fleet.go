// Package fleet shards mdserve simulation cells across a supervised
// fleet of worker processes. The supervisor (Pool) forks N `mdserve
// -worker` children over the same recording directory, assigns sweep
// cells to them over HTTP-on-unix-socket control channels, and
// survives every worker failure mode the in-process robustness layer
// cannot contain: a panic that escapes recovery, a wedged cell
// exceeding its wall-clock budget, an OOM SIGKILL, a deadlocked
// scheduler. The containment argument is the paper's own
// (§4.2): pay only for the misspeculated slice — here, the one dead
// worker's in-flight cells — never the whole window.
//
// Workers are stateless: they journal nothing. The Pool is mounted
// behind the supervisor's experiments.Runner, which, when the daemon
// journals, appends every cell a worker answers to the directory's one
// journal file, runs.0.journal, before replying. Older daemons' worker
// files (runs.w<N>.journal) are only read, on restart. Each cell then
// has one durable copy, and a respawned worker has nothing to open or
// replay: it is ready as soon as it listens. A cell a worker finished
// after the supervisor died was never answered, and the restarted
// daemon simulates it again.
//
// The control channel is the daemon's own API: each worker is a full
// mdserve server on a private unix socket, driven through a
// server.Client (NewSocketClient) over /v1/runs and /v1/healthz.
//
// Dispatch is one central FIFO, the paper's centralized window issuing
// from one pool: every live worker's delivery runners pull from it, so
// an idle worker takes the next cell and a slow one simply takes fewer.
// A failed delivery puts its cell back at the front. Cross-process
// dedup rides on the shared content-addressed recording cache plus the
// caller-side singleflight (the Pool is mounted behind
// experiments.Runner.UseBackend, which collapses identical concurrent
// cells before they reach dispatch).
//
// Degradation is graceful and total-loss-proof: while any worker
// lives, the queue feeds it; when the whole fleet is down longer than
// Config.DegradeAfter, the Pool flips to degraded and runs cells
// through Config.Fallback (the in-process simulation path), bounded by
// a semaphore so a dead fleet cannot oversubscribe the host. Liveness, failover, restart, and heartbeat-miss counters per
// worker are exported via Report for /v1/metrics; /v1/healthz reports
// `degraded: true` off the same state.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/faultinject"
	"mdspec/internal/parsim"
	"mdspec/internal/retry"
	"mdspec/internal/server"
	"mdspec/internal/stats"
)

// ErrPoolClosed is returned for cells submitted to (or still queued
// in) a Pool that has been closed.
var ErrPoolClosed = errors.New("fleet: pool closed")

// Config describes a worker fleet.
type Config struct {
	// Procs is the number of worker processes to supervise.
	Procs int
	// Exec is the worker binary (normally os.Executable() — mdserve
	// re-executes itself with -worker).
	Exec string
	// Args builds the argv (minus argv[0]) for one worker slot; it must
	// include whatever flags put the child in worker mode listening on
	// the given unix socket, named WorkerID(slot).
	Args func(slot int, socket string) []string
	// Dir is where per-worker control sockets are created.
	Dir string
	// Meta is the provenance fingerprint stamped on every dispatched
	// cell; a worker whose tuple diverged refuses it with 409.
	Meta *experiments.Fingerprint
	// PerWorker is the delivery concurrency per worker process (how
	// many cells one worker holds in flight). Default 2.
	PerWorker int
	// CellBudget bounds one cell's wall-clock on a worker; on expiry
	// the worker is presumed wedged, killed, and the cell re-queued.
	// Zero disables the budget.
	CellBudget time.Duration
	// SpawnTimeout bounds how long a freshly forked worker may take to
	// answer /v1/healthz before it is killed and counted as a failed
	// spawn. Default 10s.
	SpawnTimeout time.Duration
	// HeartbeatEvery is the supervisor's liveness probe period
	// (default 1s); HeartbeatMisses consecutive failed probes get the
	// worker SIGKILLed and respawned (default 3).
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// DegradeAfter is how long the Pool tolerates zero live workers
	// before flipping to degraded in-process execution. Default 5s.
	DegradeAfter time.Duration
	// Restart is the capped-backoff policy between respawns of one
	// slot. Only the delay schedule is used: a supervisor never gives
	// up on its slot (the delay saturates at Restart.MaxDelay), because
	// permanent abandonment would silently shrink the fleet.
	Restart retry.Policy
	// DispatchAttempts is how many worker deliveries one cell may
	// consume (crashed worker, transport error, budget kill) before
	// the Pool stops re-queueing it and completes it through Fallback
	// instead — a cell that kills every worker it touches must not
	// orbit forever. Default 5.
	DispatchAttempts int
	// Fallback executes a cell in-process when the fleet cannot
	// (degraded mode, or a cell out of dispatch attempts). Required.
	Fallback experiments.SimulateFunc
	// FallbackPar bounds concurrent Fallback executions. Default 2.
	FallbackPar int
	// Log receives supervision events; nil means log.Default().
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Procs < 1 {
		c.Procs = 1
	}
	if c.PerWorker < 1 {
		c.PerWorker = 2
	}
	if c.SpawnTimeout <= 0 {
		c.SpawnTimeout = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.HeartbeatMisses < 1 {
		c.HeartbeatMisses = 3
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 5 * time.Second
	}
	c.Restart = c.Restart.WithDefaults()
	if c.DispatchAttempts < 1 {
		c.DispatchAttempts = 5
	}
	if c.FallbackPar < 1 {
		c.FallbackPar = 2
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// WorkerID names a worker slot ("w0", "w1", ...) in the supervisor's
// log and /v1/metrics; cmd/mdserve passes it to the child as
// -worker-id, which the child uses as its log prefix.
func WorkerID(slot int) string { return fmt.Sprintf("w%d", slot) }

// worker is one supervised slot. Everything here is immutable after
// Start except the atomics, which are the per-worker counters Report
// exports; liveness and the in-flight count live in Pool-level slices
// guarded by Pool.mu.
type worker struct {
	slot    int
	id      string
	socket  string
	client  *server.Client
	killReq chan struct{} // cap 1: asks the supervisor to SIGKILL the child

	pid      atomic.Int64
	restarts atomic.Int64
	steals   atomic.Int64
	cells    atomic.Int64
	hbMisses atomic.Int64
}

// cell is one dispatched (bench, config) simulation. A cell has
// exactly one owner at a time — the enqueuer until it lands in the
// queue, then whichever delivery runner popped it — so attempts and
// failedOn need no lock; requeues hand ownership back through Pool.mu.
type cell struct {
	bench    string
	cfg      config.Machine
	ctx      context.Context
	done     chan cellResult // cap 1, single send via finish
	attempts int
	failedOn *worker // where the last delivery failed; nil before any
}

type cellResult struct {
	rec *experiments.RunRecord
	err error
}

func (c *cell) finish(rec *experiments.RunRecord, err error) {
	select {
	case c.done <- cellResult{rec, err}:
	default:
	}
}

// Pool is the fleet supervisor: process lifecycle, single-queue
// dispatch, and degraded fallback behind one Simulate entry point.
type Pool struct {
	cfg     Config
	workers []*worker // immutable after Start
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	fbSem         parsim.Sem
	fallbackCells atomic.Int64

	mu         sync.Mutex
	ready      *sync.Cond // on mu: the queue, liveness, or closed changed
	queue      []*cell    //md:guardedby mu — FIFO every live worker's runners pull from
	alive      []bool     //md:guardedby mu
	inflight   []int      //md:guardedby mu — cells a slot's runners hold in flight
	aliveCount int        //md:guardedby mu
	downSince  time.Time  //md:guardedby mu — when aliveCount last hit zero
	degraded   bool       //md:guardedby mu
	closed     bool       //md:guardedby mu
}

// Start forks and supervises the fleet. The returned Pool is live
// immediately: cells submitted before the first worker is ready wait
// in the queue (or degrade to Fallback if no worker arrives within
// DegradeAfter). Close releases everything.
func Start(ctx context.Context, cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Exec == "" || cfg.Args == nil {
		return nil, errors.New("fleet: Config.Exec and Config.Args are required")
	}
	if cfg.Fallback == nil {
		return nil, errors.New("fleet: Config.Fallback is required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("fleet: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: socket dir: %w", err)
	}
	pctx, cancel := context.WithCancel(ctx)
	p := &Pool{
		cfg:       cfg,
		ctx:       pctx,
		cancel:    cancel,
		fbSem:     parsim.NewSem(cfg.FallbackPar),
		alive:     make([]bool, cfg.Procs),
		inflight:  make([]int, cfg.Procs),
		downSince: time.Now(), // nobody alive yet: the degrade clock starts now
	}
	p.ready = sync.NewCond(&p.mu)
	// Runners waiting on the queue must see the pool's ctx die even when
	// Close is never called.
	context.AfterFunc(pctx, p.broadcast)
	for slot := 0; slot < cfg.Procs; slot++ {
		socket := filepath.Join(cfg.Dir, fmt.Sprintf("worker%d.sock", slot))
		p.workers = append(p.workers, &worker{
			slot:    slot,
			id:      WorkerID(slot),
			socket:  socket,
			client:  server.NewSocketClient(socket, cfg.Meta),
			killReq: make(chan struct{}, 1),
		})
	}
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.supervise(pctx, w)
		for i := 0; i < cfg.PerWorker; i++ {
			p.wg.Add(1)
			go p.runLoop(w)
		}
	}
	p.wg.Add(1)
	go p.degradeWatch(pctx)
	return p, nil
}

// Simulate runs one cell through the fleet and is the
// experiments.SimulateFunc mounted behind Runner.UseBackend. It blocks
// until a worker (or the degraded fallback) answers, the caller's ctx
// dies, or the pool closes.
func (p *Pool) Simulate(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	rec, err := p.SimulateRecord(ctx, bench, cfg)
	if err != nil {
		return nil, err
	}
	return rec.Stats, nil
}

// SimulateRecord is Simulate keeping the worker's full
// provenance-carrying record.
func (p *Pool) SimulateRecord(ctx context.Context, bench string, cfg config.Machine) (*experiments.RunRecord, error) {
	c := &cell{bench: bench, cfg: cfg, ctx: ctx, done: make(chan cellResult, 1)}
	if err := p.enqueue(c, false); err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case r := <-c.done:
		return r.rec, r.err
	}
}

// enqueue hands a cell to the pool: onto the queue (its front when the
// cell is a re-dispatch, so it does not wait behind newer work), or to
// the fallback when the fleet is degraded. While the fleet is merely
// down, the cell waits in the queue for a worker or for degradeWatch.
func (p *Pool) enqueue(c *cell, front bool) error {
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		return ErrPoolClosed
	case p.aliveCount == 0 && p.degraded:
		p.wg.Add(1) // under mu, so Close cannot already be waiting
		p.mu.Unlock()
		go p.runFallback(c)
		return nil
	case front:
		p.queue = append([]*cell{c}, p.queue...)
	default:
		p.queue = append(p.queue, c)
	}
	p.ready.Broadcast()
	p.mu.Unlock()
	return nil
}

// broadcast wakes every delivery runner to re-check the queue.
func (p *Pool) broadcast() {
	p.mu.Lock()
	p.ready.Broadcast()
	p.mu.Unlock()
}

// next blocks until slot w is live and the queue holds a cell, then
// pops it; nil means the pool is closing.
func (p *Pool) next(w *worker) *cell {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && p.ctx.Err() == nil {
		if p.alive[w.slot] && len(p.queue) > 0 {
			c := p.queue[0]
			p.queue = p.queue[1:]
			p.inflight[w.slot]++
			return c
		}
		p.ready.Wait()
	}
	return nil
}

// runLoop is one delivery runner for one worker slot: pop a cell,
// deliver it over the control socket, repeat.
func (p *Pool) runLoop(w *worker) {
	defer p.wg.Done()
	for c := p.next(w); c != nil; c = p.next(w) {
		p.deliver(w, c)
		p.mu.Lock()
		p.inflight[w.slot]--
		p.mu.Unlock()
	}
}

// deliver runs one cell on worker w and routes the outcome: success
// and permanent (4xx) refusals finish the cell; transport failures,
// 5xx answers, and budget kills re-queue it until DispatchAttempts is
// spent, after which the fallback completes it.
func (p *Pool) deliver(w *worker, c *cell) {
	if c.ctx.Err() != nil {
		c.finish(nil, c.ctx.Err())
		return
	}
	dctx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	// The pool closing must abort an in-flight delivery even though the
	// delivery runs on the caller's ctx.
	stop := context.AfterFunc(p.ctx, cancel)
	defer stop()
	if p.cfg.CellBudget > 0 {
		var bcancel context.CancelFunc
		dctx, bcancel = context.WithTimeout(dctx, p.cfg.CellBudget)
		defer bcancel()
	}
	rec, _, err := w.client.RunRecord(dctx, c.bench, c.cfg)
	if err == nil {
		w.cells.Add(1)
		if c.failedOn != nil && c.failedOn != w {
			w.steals.Add(1)
		}
		c.finish(rec, nil)
		return
	}
	var se *server.StatusError
	if errors.As(err, &se) && se.Permanent() {
		c.finish(nil, err)
		return
	}
	if c.ctx.Err() != nil {
		c.finish(nil, c.ctx.Err())
		return
	}
	if p.ctx.Err() != nil {
		c.finish(nil, ErrPoolClosed)
		return
	}
	if errors.Is(dctx.Err(), context.DeadlineExceeded) {
		// The worker sat on this cell past its wall-clock budget: presume
		// it wedged (deadlock, livelock) and recycle the process.
		// Everything it answered before wedging is already in the
		// supervisor's journal and memo. Marking the slot dead here
		// (rather than waiting for the supervisor's waitpid) stops
		// dispatch to the doomed process immediately.
		p.cfg.Log.Printf("fleet: %s exceeded %v on %s/%s; recycling worker",
			w.id, p.cfg.CellBudget, c.bench, c.cfg.Name())
		select {
		case w.killReq <- struct{}{}:
		default:
		}
		p.markDead(w)
	}
	c.failedOn = w
	c.attempts++
	if c.attempts >= p.cfg.DispatchAttempts {
		p.cfg.Log.Printf("fleet: cell %s/%s out of dispatch attempts (%d), completing in-process: %v",
			c.bench, c.cfg.Name(), c.attempts, err)
		p.wg.Add(1)
		go p.runFallback(c)
		return
	}
	// Pace the re-dispatch: a dying worker fails deliveries with
	// connection errors faster than the supervisor can observe the
	// death, and an unpaced retry loop would burn every dispatch
	// attempt in microseconds.
	if !p.pause(c.ctx, p.cfg.Restart.Backoff(c.attempts)) {
		c.finish(nil, c.ctx.Err())
		return
	}
	if err := p.enqueue(c, true); err != nil {
		c.finish(nil, err)
	}
}

// pause waits d out; false means the cell's own ctx died. Pool
// shutdown cuts the wait short so enqueue can observe closed.
func (p *Pool) pause(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-p.ctx.Done():
		return true
	case <-t.C:
		return true
	}
}

// runFallback executes one cell via Config.Fallback, bounded by the
// fallback semaphore. It runs on its own goroutine, counted in p.wg by
// the caller.
func (p *Pool) runFallback(c *cell) {
	defer p.wg.Done()
	if err := p.fbSem.Acquire(c.ctx); err != nil {
		c.finish(nil, err)
		return
	}
	defer p.fbSem.Release()
	p.fallbackCells.Add(1)
	start := time.Now()
	st, err := p.cfg.Fallback(c.ctx, c.bench, c.cfg)
	if err != nil {
		c.finish(nil, err)
		return
	}
	rec := experiments.NewRunRecord(c.bench, c.cfg, instsOf(p.cfg.Meta), time.Since(start), st)
	c.finish(&rec, nil)
}

func instsOf(fp *experiments.Fingerprint) int64 {
	if fp == nil {
		return 0
	}
	return fp.Insts
}

// degradeWatch flips the pool into degraded mode once the whole fleet
// has been down for DegradeAfter, draining the queue through the
// fallback. Recovery (markAlive) clears the flag.
func (p *Pool) degradeWatch(ctx context.Context) {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.DegradeAfter / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		p.mu.Lock()
		if p.closed || p.aliveCount > 0 || p.degraded ||
			time.Since(p.downSince) < p.cfg.DegradeAfter {
			p.mu.Unlock()
			continue
		}
		p.degraded = true
		drain := p.queue
		p.queue = nil
		p.mu.Unlock()
		p.cfg.Log.Printf("fleet: no live workers for %v; degrading to in-process execution (%d queued cells)",
			p.cfg.DegradeAfter, len(drain))
		p.wg.Add(len(drain))
		for _, c := range drain {
			go p.runFallback(c)
		}
	}
}

// markAlive records a worker as ready: its runners start pulling from
// the queue and the degraded flag clears.
func (p *Pool) markAlive(w *worker) {
	p.mu.Lock()
	wasDegraded := p.degraded
	p.alive[w.slot] = true
	p.aliveCount++
	p.degraded = false
	p.downSince = time.Time{}
	p.ready.Broadcast()
	p.mu.Unlock()
	if wasDegraded {
		p.cfg.Log.Printf("fleet: %s ready; leaving degraded mode", w.id)
	}
}

// markDead stops a worker's runners from pulling more cells. Its
// in-flight cells need no action here: their delivery runners observe
// the transport failure and re-queue them.
func (p *Pool) markDead(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.alive[w.slot] {
		return
	}
	p.alive[w.slot] = false
	p.aliveCount--
	if p.aliveCount == 0 {
		p.downSince = time.Now()
	}
}

// Close tears the fleet down: workers get SIGTERM then SIGKILL (via
// supervisor ctx cancellation), queued cells fail with ErrPoolClosed,
// and Close blocks until every goroutine is gone.
func (p *Pool) Close() error {
	p.cancel()
	p.mu.Lock()
	p.closed = true
	orphans := p.queue
	p.queue = nil
	p.ready.Broadcast()
	p.mu.Unlock()
	for _, c := range orphans {
		c.finish(nil, ErrPoolClosed)
	}
	p.wg.Wait()
	return nil
}

// Report snapshots the fleet for /v1/metrics.
func (p *Pool) Report() server.FleetReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := server.FleetReport{
		Procs:         p.cfg.Procs,
		Alive:         p.aliveCount,
		Degraded:      p.degraded,
		Pending:       len(p.queue),
		FallbackCells: p.fallbackCells.Load(),
	}
	for _, w := range p.workers {
		r.Workers = append(r.Workers, server.WorkerStatus{
			ID:              w.id,
			PID:             int(w.pid.Load()),
			Alive:           p.alive[w.slot],
			Inflight:        p.inflight[w.slot],
			Cells:           w.cells.Load(),
			Steals:          w.steals.Load(),
			Restarts:        w.restarts.Load(),
			HeartbeatMisses: w.hbMisses.Load(),
		})
	}
	return r
}

// Degraded reports whether the pool is currently executing in-process.
func (p *Pool) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded
}

// ---- worker process supervision ----

// supervise owns one slot's process lifecycle: spawn, wait for
// readiness, monitor heartbeats until death, back off, respawn. It
// never abandons the slot — the backoff saturates at Restart.MaxDelay
// — so a long outage degrades the pool (degradeWatch) instead of
// silently shrinking it.
func (p *Pool) supervise(ctx context.Context, w *worker) {
	defer p.wg.Done()
	attempt := 0
	everReady := false
	for ctx.Err() == nil {
		cmd, err := p.spawn(w)
		if err != nil {
			p.cfg.Log.Printf("fleet: spawning %s: %v", w.id, err)
			attempt++
			if !p.backoff(ctx, attempt) {
				return
			}
			continue
		}
		exited := make(chan error, 1)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			exited <- cmd.Wait() //md:ctxok cap-1 channel, single send
		}()
		ready, exitedEarly := p.waitReady(ctx, w, exited)
		if !ready {
			if !exitedEarly {
				p.cfg.Log.Printf("fleet: %s (pid %d) not ready within %v", w.id, cmd.Process.Pid, p.cfg.SpawnTimeout)
				_ = cmd.Process.Kill()
				<-exited //md:ctxok child was just SIGKILLed; Wait returns promptly
			}
			if ctx.Err() != nil {
				return
			}
			attempt++
			if !p.backoff(ctx, attempt) {
				return
			}
			continue
		}
		attempt = 0
		if everReady {
			w.restarts.Add(1)
		}
		everReady = true
		p.markAlive(w)
		p.monitor(ctx, w, cmd, exited)
		p.markDead(w)
		if ctx.Err() != nil {
			return
		}
		attempt++
		if !p.backoff(ctx, attempt) {
			return
		}
	}
}

// backoff waits out the restart delay; false means ctx died.
func (p *Pool) backoff(ctx context.Context, attempt int) bool {
	if attempt > p.cfg.Restart.MaxAttempts {
		attempt = p.cfg.Restart.MaxAttempts // saturate the delay, never give up
	}
	t := time.NewTimer(p.cfg.Restart.Backoff(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// spawn forks one worker process.
func (p *Pool) spawn(w *worker) (*exec.Cmd, error) {
	if err := faultinject.PointErr(faultinject.SiteWorkerSpawn); err != nil {
		return nil, err
	}
	// A leftover socket from the previous incarnation would make the new
	// listener fail with EADDRINUSE.
	_ = os.Remove(w.socket)
	cmd := exec.Command(p.cfg.Exec, p.cfg.Args(w.slot, w.socket)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = sysProcAttr() // Pdeathsig on linux: no orphans if the supervisor dies
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w.pid.Store(int64(cmd.Process.Pid))
	p.cfg.Log.Printf("fleet: spawned %s (pid %d)", w.id, cmd.Process.Pid)
	return cmd, nil
}

// maxReadyPoll caps the wait between a spawned worker's readiness
// probes.
const maxReadyPoll = 25 * time.Millisecond

// waitReady polls the worker's healthz until it answers, exits, or
// SpawnTimeout expires: at once, then after 1, 2, 4, ... ms, capped at
// maxReadyPoll, since a worker is ready as soon as it listens.
// exitedEarly reports that the exited channel was consumed (the caller
// must not wait on it again).
func (p *Pool) waitReady(ctx context.Context, w *worker, exited <-chan error) (ready, exitedEarly bool) {
	deadline := time.NewTimer(p.cfg.SpawnTimeout)
	defer deadline.Stop()
	var wait time.Duration
	probe := time.NewTimer(0)
	defer probe.Stop()
	for {
		select {
		case <-ctx.Done():
			return false, false
		case err := <-exited:
			p.cfg.Log.Printf("fleet: %s exited before ready: %v", w.id, err)
			return false, true
		case <-deadline.C:
			return false, false
		case <-probe.C:
			pctx, cancel := context.WithTimeout(ctx, time.Second)
			err := w.client.Healthz(pctx)
			cancel()
			if err == nil {
				return true, false
			}
			wait = min(max(2*wait, time.Millisecond), maxReadyPoll)
			probe.Reset(wait)
		}
	}
}

// monitor watches a ready worker until it dies: waitpid, the
// supervisor's heartbeat probes, kill requests from delivery runners
// (budget kills), and pool shutdown all converge here.
func (p *Pool) monitor(ctx context.Context, w *worker, cmd *exec.Cmd, exited <-chan error) {
	hb := time.NewTicker(p.cfg.HeartbeatEvery)
	defer hb.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			// Graceful drain: SIGTERM, a bounded grace period, then SIGKILL.
			_ = cmd.Process.Signal(termSignal())
			grace := time.NewTimer(p.cfg.SpawnTimeout)
			defer grace.Stop()
			select {
			case <-exited: //md:ctxok the pool is already shutting down; this IS the ctx.Done path
			case <-grace.C: //md:ctxok bounded by the grace timer itself
				_ = cmd.Process.Kill()
				<-exited //md:ctxok child was just SIGKILLed; Wait returns promptly
			}
			return
		case err := <-exited:
			p.cfg.Log.Printf("fleet: %s (pid %d) exited: %v", w.id, cmd.Process.Pid, err)
			return
		case <-w.killReq:
			_ = cmd.Process.Kill()
		case <-hb.C:
			if err := p.heartbeat(ctx, w); err != nil {
				misses++
				w.hbMisses.Add(1)
				if misses >= p.cfg.HeartbeatMisses {
					p.cfg.Log.Printf("fleet: %s missed %d heartbeats (%v); killing", w.id, misses, err)
					_ = cmd.Process.Kill()
				}
			} else {
				misses = 0
			}
		}
	}
}

// heartbeat is one supervisor liveness probe.
func (p *Pool) heartbeat(ctx context.Context, w *worker) error {
	if err := faultinject.PointErr(faultinject.SiteWorkerHeartbeat); err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, p.cfg.HeartbeatEvery)
	defer cancel()
	return w.client.Healthz(pctx)
}

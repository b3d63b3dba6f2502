package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
)

// ErrQueueFull reports a request refused because the bounded work
// queue is at capacity (mapped to 503 by the HTTP layer).
var ErrQueueFull = errors.New("server: work queue full")

// ErrShuttingDown reports a request refused because the scheduler has
// been closed (the daemon is draining).
var ErrShuttingDown = errors.New("server: shutting down")

// task is one queued cell request. done must be buffered by the
// submitter with room for one result per task sharing it, so workers
// never block on a slow or departed client.
type task struct {
	bench string
	cfg   config.Machine
	ctx   context.Context
	// started, when non-nil, is invoked once when a worker picks the
	// task up; it must not block.
	started func(t *task)
	done    chan<- taskResult
}

// taskResult is one completed (or refused) task; the runner holds the
// record of a completed one.
type taskResult struct {
	t   *task
	src experiments.RunSource
	err error
}

// scheduler is the bounded work queue between the HTTP handlers and
// the Runner for cells that need a simulation (POST /v1/runs answers
// the others without it; a sweep queues every cell): a fixed pool of
// workers drains the queue through Runner.RunGuarded, whose semaphore
// is the same budget the interval-parallel segment engine borrows from
// — so queue depth bounds memory, the pool bounds goroutines, and the
// semaphore bounds actual simulation parallelism, no matter how many
// clients connect.
type scheduler struct {
	runner *experiments.Runner
	tasks  chan *task

	// closing serializes submission against close: submitters hold the
	// read side while enqueueing so close cannot pull the channel out
	// from under a send in flight.
	closing sync.RWMutex
	closed  bool //md:guardedby closing
	wg      sync.WaitGroup

	// infMu guards the in-flight set: which cells workers are executing
	// right now and since when. closeTimeout snapshots it to name the
	// stuck cells when a bounded drain expires.
	infMu    sync.Mutex
	inflight map[*task]time.Time //md:guardedby infMu
}

func newScheduler(r *experiments.Runner, workers, depth int) *scheduler {
	s := &scheduler{runner: r, tasks: make(chan *task, depth), inflight: make(map[*task]time.Time)}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		if err := t.ctx.Err(); err != nil {
			// The client gave up while the task sat in the queue; do not
			// spend the simulation budget on it.
			t.done <- taskResult{t: t, err: err} //md:ctxok task.done is buffered by the submitter with room for every result (task contract above)
			continue
		}
		if t.started != nil {
			t.started(t)
		}
		s.infMu.Lock()
		s.inflight[t] = time.Now()
		s.infMu.Unlock()
		_, src, err := s.runner.RunGuarded(t.ctx, t.bench, t.cfg)
		s.infMu.Lock()
		delete(s.inflight, t)
		s.infMu.Unlock()
		t.done <- taskResult{t: t, src: src, err: err} //md:ctxok task.done is buffered by the submitter with room for every result (task contract above)
	}
}

// trySubmit enqueues t without blocking; a full queue returns
// ErrQueueFull (the single-cell endpoint's backpressure signal).
func (s *scheduler) trySubmit(t *task) error {
	s.closing.RLock()
	defer s.closing.RUnlock()
	if s.closed {
		return ErrShuttingDown
	}
	select {
	case s.tasks <- t:
		return nil
	default:
		return ErrQueueFull
	}
}

// submit blocks until t is queued or ctx is done (sweep submission:
// the stream is already open, so the queue exerts backpressure on the
// submitting goroutine instead of refusing).
func (s *scheduler) submit(ctx context.Context, t *task) error {
	s.closing.RLock()
	defer s.closing.RUnlock()
	if s.closed {
		return ErrShuttingDown
	}
	select {
	case s.tasks <- t:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queue reports the work queue's occupancy and capacity.
func (s *scheduler) queue() QueueMetrics {
	return QueueMetrics{Depth: len(s.tasks), Capacity: cap(s.tasks)}
}

// close drains the scheduler: new submissions are refused, queued
// tasks run to completion, and workers exit. The HTTP server must be
// shut down (all handlers returned) before the final close so no
// submitter is left racing the channel close; the closed flag guards
// stragglers either way.
func (s *scheduler) close() {
	s.closeTimeout(0)
}

// StuckCell names one in-flight cell that outlived the drain timeout:
// the daemon's exit-1 snapshot of exactly what was abandoned.
type StuckCell struct {
	Bench          string  `json:"bench"`
	Config         string  `json:"config"`
	RunningSeconds float64 `json:"running_seconds"`
}

// closeTimeout is close bounded by d (d <= 0 waits forever): if the
// drain outlives d, it returns a snapshot of the cells still running
// instead of blocking on them. Everything that finished before the
// timeout has already reached the journal; the stuck cells are the
// wedge the bounded drain exists to escape.
func (s *scheduler) closeTimeout(d time.Duration) []StuckCell {
	s.closing.Lock()
	if s.closed {
		s.closing.Unlock()
		return nil
	}
	s.closed = true
	s.closing.Unlock()
	close(s.tasks)
	if d <= 0 {
		s.wg.Wait()
		return nil
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	select {
	case <-drained: //md:ctxok drain completion is the event being awaited; the timer below bounds it
		return nil
	case <-deadline.C: //md:ctxok the deadline is the bound on this wait
	}
	s.infMu.Lock()
	defer s.infMu.Unlock()
	stuck := make([]StuckCell, 0, len(s.inflight))
	for t, since := range s.inflight { //md:orderindependent snapshot of a set
		stuck = append(stuck, StuckCell{
			Bench:          t.bench,
			Config:         t.cfg.Name(),
			RunningSeconds: time.Since(since).Seconds(),
		})
	}
	return stuck
}

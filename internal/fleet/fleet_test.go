package fleet

// The fleet tests exercise real process supervision: TestMain detects
// the -fleet-stub-socket flag and turns the re-executed test binary
// into a stub worker — an HTTP server on the given unix socket that
// answers /v1/healthz and /v1/runs with deterministic fake stats.
// Failure modes (crash after N cells, hang on a cell, refuse to start)
// are selected through FLEET_STUB_* environment variables inherited
// from the test process, so each test picks its chaos before spawning.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/retry"
	"mdspec/internal/server"
	"mdspec/internal/stats"
)

func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == "-fleet-stub-socket" && i+1 < len(os.Args) {
			runStubWorker(os.Args[i+1], stubSlot())
			return
		}
	}
	os.Exit(m.Run())
}

func stubSlot() int {
	for i, a := range os.Args {
		if a == "-fleet-stub-slot" && i+1 < len(os.Args) {
			n, _ := strconv.Atoi(os.Args[i+1])
			return n
		}
	}
	return 0
}

// fakeStats must be deterministic and cell-distinguishable: the stub
// computes it in the worker process, the tests recompute it locally.
func fakeStats(bench string, cfg config.Machine) *stats.Run {
	return &stats.Run{
		Config: cfg.Name(), Workload: bench,
		Cycles: 1000 + int64(len(bench)), Committed: 2500,
		CommittedLoads: 500, Misspeculations: 7,
	}
}

// runStubWorker is the re-executed test binary acting as one worker.
func runStubWorker(socket string, slot int) {
	if os.Getenv("FLEET_STUB_FAIL_ALL") != "" {
		os.Exit(3)
	}
	if p := os.Getenv("FLEET_STUB_FAIL_WHILE_FILE"); p != "" {
		if _, err := os.Stat(p); err == nil {
			os.Exit(3)
		}
	}
	crashAfter := -1
	if v := os.Getenv("FLEET_STUB_CRASH_AFTER"); v != "" {
		crashAfter, _ = strconv.Atoi(v)
	}
	var slowDelay time.Duration
	if v := os.Getenv("FLEET_STUB_SLOW_MS"); v != "" {
		if s := os.Getenv("FLEET_STUB_SLOW_SLOT"); s == "" || s == strconv.Itoa(slot) {
			ms, _ := strconv.Atoi(v)
			slowDelay = time.Duration(ms) * time.Millisecond
		}
	}
	hangOnceFile := os.Getenv("FLEET_STUB_HANG_ONCE_FILE")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	go func() {
		<-sig
		os.Exit(0)
	}()

	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if crashAfter >= 0 && served.Load() >= int64(crashAfter) {
			os.Exit(2) // crash instead of answering: the cell is in flight
		}
		if hangOnceFile != "" {
			if _, err := os.Stat(hangOnceFile); err != nil {
				os.WriteFile(hangOnceFile, []byte("hung"), 0o644)
				select {} // wedge forever; the supervisor's budget kill frees us
			}
		}
		var req server.RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if slowDelay > 0 {
			time.Sleep(slowDelay)
		}
		st := fakeStats(req.Bench, req.Config)
		rec := experiments.NewRunRecord(req.Bench, req.Config, 0, time.Millisecond, st)
		served.Add(1)
		json.NewEncoder(w).Encode(server.RunResponse{Record: rec, Source: experiments.SourceSimulated})
	})
	ln, err := net.Listen("unix", socket)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stub:", err)
		os.Exit(1)
	}
	if err := http.Serve(ln, mux); err != nil {
		fmt.Fprintln(os.Stderr, "stub:", err)
		os.Exit(1)
	}
}

// testConfig builds a fleet Config that re-executes this test binary
// as the worker. Fallback runs fakeStats in-process and counts calls.
func testConfig(t *testing.T, procs int, fallbackCalls *atomic.Int64) Config {
	t.Helper()
	return Config{
		Procs: procs,
		Exec:  os.Args[0],
		Args: func(slot int, socket string) []string {
			return []string{"-fleet-stub-socket", socket, "-fleet-stub-slot", strconv.Itoa(slot)}
		},
		Dir:             t.TempDir(),
		SpawnTimeout:    5 * time.Second,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 3,
		DegradeAfter:    2 * time.Second,
		Restart:         retry.Policy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		Fallback: func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
			if fallbackCalls != nil {
				fallbackCalls.Add(1)
			}
			return fakeStats(bench, cfg), nil
		},
	}
}

func startPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := Start(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// sweep pushes n distinct cells through the pool concurrently and
// verifies every result against fakeStats.
func sweep(t *testing.T, p *Pool, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bench := fmt.Sprintf("bench%02d", i)
			cfg := config.Default128()
			st, err := p.Simulate(ctx, bench, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			if want := fakeStats(bench, cfg); !reflect.DeepEqual(st, want) {
				errs[i] = fmt.Errorf("cell %d: got %+v want %+v", i, st, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
	}
}

// A healthy two-worker fleet must complete a sweep with every cell
// answered by a worker process, and report both workers alive.
func TestFleetDispatchAndReport(t *testing.T) {
	p := startPool(t, testConfig(t, 2, nil))
	waitAlive(t, p, 2)
	sweep(t, p, 8)
	r := p.Report()
	if r.Alive != 2 {
		t.Errorf("alive = %d, want 2", r.Alive)
	}
	if r.Degraded {
		t.Error("pool degraded with both workers alive")
	}
	var cells int64
	for _, w := range r.Workers {
		cells += w.Cells
	}
	if cells != 8 {
		t.Errorf("worker cells = %d, want 8", cells)
	}
	if r.FallbackCells != 0 {
		t.Errorf("fallback cells = %d, want 0", r.FallbackCells)
	}
}

// Workers that crash mid-sweep (each stub dies when asked for its 3rd
// cell) must be restarted, their in-flight cells re-queued, and the
// sweep must still complete with correct results and restarts > 0.
func TestFleetCrashRestartRequeue(t *testing.T) {
	t.Setenv("FLEET_STUB_CRASH_AFTER", "2")
	p := startPool(t, testConfig(t, 2, nil))
	sweep(t, p, 12)
	r := p.Report()
	var restarts int64
	for _, w := range r.Workers {
		restarts += w.Restarts
	}
	if restarts == 0 {
		t.Error("no worker restarts despite crash-after-2 stubs")
	}
}

// With one deliberately slow worker, the shared queue must balance by
// speed: the fast worker pulls the next cell whenever it is idle, so it
// completes more cells than the slow one.
func TestFleetSlowWorkerBalance(t *testing.T) {
	t.Setenv("FLEET_STUB_SLOW_SLOT", "0")
	t.Setenv("FLEET_STUB_SLOW_MS", "150")
	cfg := testConfig(t, 2, nil)
	cfg.PerWorker = 1
	p := startPool(t, cfg)
	waitAlive(t, p, 2)
	sweep(t, p, 10)
	r := p.Report()
	slow, fast := r.Workers[0].Cells, r.Workers[1].Cells
	if fast <= slow {
		t.Errorf("fast worker completed %d cells, slow worker %d; want fast > slow", fast, slow)
	}
}

// A fleet that never comes up must degrade to in-process execution:
// cells complete through Fallback and healthz state reports degraded.
func TestFleetDegradedFallback(t *testing.T) {
	t.Setenv("FLEET_STUB_FAIL_ALL", "1")
	var fallbackCalls atomic.Int64
	cfg := testConfig(t, 2, &fallbackCalls)
	cfg.DegradeAfter = 200 * time.Millisecond
	p := startPool(t, cfg)
	sweep(t, p, 4)
	if !p.Degraded() {
		t.Error("pool not degraded with zero live workers")
	}
	if fallbackCalls.Load() != 4 {
		t.Errorf("fallback calls = %d, want 4", fallbackCalls.Load())
	}
	if r := p.Report(); r.FallbackCells != 4 {
		t.Errorf("report fallback cells = %d, want 4", r.FallbackCells)
	}
}

// A degraded pool must recover when workers come back: the fail-gate
// file is removed mid-test, the next respawn succeeds, and the
// degraded flag clears.
func TestFleetRecoversFromDegraded(t *testing.T) {
	gate := filepath.Join(t.TempDir(), "down")
	if err := os.WriteFile(gate, []byte("down"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("FLEET_STUB_FAIL_WHILE_FILE", gate)
	var fallbackCalls atomic.Int64
	cfg := testConfig(t, 1, &fallbackCalls)
	cfg.DegradeAfter = 150 * time.Millisecond
	p := startPool(t, cfg)

	if !eventually(5*time.Second, p.Degraded) {
		t.Fatal("pool never degraded while workers were gated down")
	}
	sweep(t, p, 2) // degraded cells flow through the fallback
	if fallbackCalls.Load() == 0 {
		t.Error("no fallback executions while degraded")
	}

	if err := os.Remove(gate); err != nil {
		t.Fatal(err)
	}
	if !eventually(10*time.Second, func() bool { return !p.Degraded() && p.Report().Alive == 1 }) {
		t.Fatal("pool never recovered after the gate file was removed")
	}
	sweep(t, p, 2) // recovered cells flow through the worker again
	r := p.Report()
	if r.Workers[0].Cells == 0 {
		t.Error("no worker-served cells after recovery")
	}
}

// A worker wedged on one cell past the wall-clock budget must be
// killed and restarted, and the cell re-dispatched to completion.
func TestFleetCellBudgetKillsWedgedWorker(t *testing.T) {
	t.Setenv("FLEET_STUB_HANG_ONCE_FILE", filepath.Join(t.TempDir(), "hung"))
	cfg := testConfig(t, 1, nil)
	cfg.CellBudget = 200 * time.Millisecond
	cfg.PerWorker = 1
	p := startPool(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bench, mc := "hangcell", config.Default128()
	st, err := p.Simulate(ctx, bench, mc)
	if err != nil {
		t.Fatalf("cell never completed after budget kill: %v", err)
	}
	if want := fakeStats(bench, mc); !reflect.DeepEqual(st, want) {
		t.Errorf("got %+v want %+v", st, want)
	}
	if r := p.Report(); r.Workers[0].Restarts == 0 {
		t.Error("wedged worker was not restarted")
	}
}

// Simulate on a closed pool (and cells still queued at Close) must
// fail with ErrPoolClosed, not hang.
func TestFleetClosedPool(t *testing.T) {
	t.Setenv("FLEET_STUB_FAIL_ALL", "1") // nothing ever comes up: cells sit pending
	p := startPool(t, testConfig(t, 1, nil))
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		_, err := p.Simulate(ctx, "pending", config.Default128())
		done <- err
	}()
	// Let the cell land in the pending list, then close underneath it.
	time.Sleep(100 * time.Millisecond)
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolClosed) {
			t.Errorf("queued cell got %v, want ErrPoolClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued cell still blocked after Close")
	}
	if _, err := p.Simulate(ctx, "late", config.Default128()); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Simulate on closed pool = %v, want ErrPoolClosed", err)
	}
}

// waitAlive blocks until n workers are alive, so a sweep's dispatch
// does not depend on how fast the stubs start.
func waitAlive(t *testing.T, p *Pool, n int) {
	t.Helper()
	if !eventually(10*time.Second, func() bool { return p.Report().Alive == n }) {
		t.Fatalf("%d workers alive after 10s, want %d", p.Report().Alive, n)
	}
}

func eventually(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return cond()
}

package server

// Tests for the fleet-facing server surface: the client's 503
// Retry-After discipline, the degraded healthz report, fleet metrics
// embedding, and the bounded drain's stuck-cell snapshot.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/stats"
)

// saturate fills a Workers=1/QueueDepth=1 server: one cell occupies
// the worker (blocked on release), one occupies the queue slot. Any
// further single-cell request is refused with 503.
// firePost submits a cell from a goroutine (raw http.Post: t.Fatal is
// off-limits off the test goroutine; errors surface as test timeouts).
func firePost(ts string, req RunRequest) {
	body, _ := json.Marshal(req)
	go func() {
		resp, err := http.Post(ts+"/v1/runs", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
}

func saturate(t *testing.T, ts string, s *Server, release chan struct{}, entered chan struct{}) {
	t.Helper()
	firePost(ts, RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync)})
	<-entered // worker occupied
	firePost(ts, RunRequest{Bench: "126.gcc", Config: cfgWith(config.Naive)})
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.queue().Depth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// A client cell refused with 503 must wait out the Retry-After hint
// (floored by the deterministic backoff) and resubmit instead of
// failing the sweep.
func TestClientRetriesOn503(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	entered := make(chan struct{}, 8)
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		entered <- struct{}{}
		<-release
		return fakeStats(bench, cfg), nil
	}
	defer unblock()
	opt := experiments.Options{Insts: 5000}
	s, ts := newTestServer(t, Config{Options: opt, Workers: 1, QueueDepth: 1}, sim)
	saturate(t, ts.URL, s, release, entered)

	c := NewClient(ts.URL, opt)
	var mu sync.Mutex
	var waits []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
		// The saturated scheduler frees up while the client waits —
		// exactly the transient overload the retry exists for.
		unblock()
		return nil
	}
	res, err := c.Run(context.Background(), "126.gcc", cfgWith(config.Oracle))
	if err != nil {
		t.Fatalf("Run after overload retry: %v", err)
	}
	if res == nil || res.Workload != "126.gcc" {
		t.Errorf("unexpected result %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) == 0 {
		t.Fatal("client never slept: 503 was not retried")
	}
	// The server hints Retry-After: 1; the wait must honor it (the
	// deterministic backoff's first delay is shorter).
	if waits[0] < time.Second {
		t.Errorf("first retry wait = %v, want >= 1s (Retry-After floor)", waits[0])
	}
}

// A permanently saturated daemon must exhaust the attempt budget and
// surface the overload error, not spin forever.
func TestClientRetryBudgetExhausted(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		entered <- struct{}{}
		<-release
		return fakeStats(bench, cfg), nil
	}
	defer close(release)
	opt := experiments.Options{Insts: 5000}
	s, ts := newTestServer(t, Config{Options: opt, Workers: 1, QueueDepth: 1}, sim)
	saturate(t, ts.URL, s, release, entered)

	c := NewClient(ts.URL, opt)
	sleeps := 0
	c.sleep = func(ctx context.Context, d time.Duration) error { sleeps++; return nil }
	_, err := c.Run(context.Background(), "126.gcc", cfgWith(config.Oracle))
	if err == nil {
		t.Fatal("Run succeeded against a permanently saturated daemon")
	}
	if want := c.retry.MaxAttempts - 1; sleeps != want {
		t.Errorf("retry sleeps = %d, want %d (MaxAttempts-1)", sleeps, want)
	}
}

// fakeFleet satisfies the Fleet surface without forking processes.
type fakeFleet struct{ degraded bool }

func (f *fakeFleet) Degraded() bool { return f.degraded }
func (f *fakeFleet) Report() FleetReport {
	return FleetReport{
		Procs: 2, Alive: 1, Degraded: f.degraded, FallbackCells: 3,
		Workers: []WorkerStatus{
			{ID: "w0", Alive: true, Cells: 5, Steals: 2, Restarts: 1},
			{ID: "w1", Alive: false, Restarts: 4, HeartbeatMisses: 6},
		},
	}
}

// With a fleet attached, /v1/healthz must carry the degraded flag and
// /v1/metrics the per-worker counters; without one, neither changes.
func TestHealthzAndMetricsReportFleet(t *testing.T) {
	s, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}}, nil)

	var plain struct {
		Status   string `json:"status"`
		Degraded *bool  `json:"degraded"`
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&plain)
	resp.Body.Close()
	if plain.Status != "ok" || plain.Degraded != nil {
		t.Errorf("single-process healthz = %+v, want status ok with no degraded field", plain)
	}
	if m := getMetrics(t, ts.URL); m.Fleet != nil {
		t.Error("single-process metrics carries a fleet report")
	}

	ff := &fakeFleet{}
	s.AttachFleet(ff)
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&plain)
	resp.Body.Close()
	if plain.Status != "ok" || plain.Degraded == nil || *plain.Degraded {
		t.Errorf("healthy fleet healthz = %+v, want status ok, degraded=false", plain)
	}

	ff.degraded = true
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&plain)
	resp.Body.Close()
	if plain.Status != "degraded" || plain.Degraded == nil || !*plain.Degraded {
		t.Errorf("degraded fleet healthz = %+v, want status degraded, degraded=true", plain)
	}

	m := getMetrics(t, ts.URL)
	if m.Fleet == nil {
		t.Fatal("metrics missing fleet report")
	}
	if m.Fleet.Procs != 2 || len(m.Fleet.Workers) != 2 || m.Fleet.Workers[1].Restarts != 4 {
		t.Errorf("fleet metrics = %+v, want the fake fleet's counters", m.Fleet)
	}
}

// A wedged in-flight cell must not stall CloseTimeout forever: the
// bounded drain expires and names exactly the stuck cell.
func TestCloseTimeoutSnapshotsStuckCells(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		entered <- struct{}{}
		<-release // wedged until the test ends
		return fakeStats(bench, cfg), nil
	}
	defer close(release)
	s, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}, Workers: 1}, sim)

	firePost(ts.URL, RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync)})
	<-entered

	start := time.Now()
	stuck := s.CloseTimeout(100 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("CloseTimeout blocked %v despite 100ms bound", elapsed)
	}
	if len(stuck) != 1 {
		t.Fatalf("stuck cells = %+v, want exactly the wedged cell", stuck)
	}
	if stuck[0].Bench != "126.gcc" || stuck[0].Config != cfgWith(config.Sync).Name() {
		t.Errorf("stuck cell = %+v, want 126.gcc under %s", stuck[0], cfgWith(config.Sync).Name())
	}
	if stuck[0].RunningSeconds <= 0 {
		t.Errorf("stuck cell running seconds = %v, want > 0", stuck[0].RunningSeconds)
	}
}

// A clean drain within the bound returns no stuck cells.
func TestCloseTimeoutCleanDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}}, func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	})
	if stuck := s.CloseTimeout(5 * time.Second); len(stuck) != 0 {
		t.Errorf("clean drain reported stuck cells: %+v", stuck)
	}
}

// A socket client reaches a daemon over its unix socket, and a refusal
// comes back as a typed *StatusError a fleet can route on: a 4xx judges
// the request, so it is permanent and is not re-dispatched.
func TestSocketClientHealthzRunAndStatusError(t *testing.T) {
	opt := experiments.Options{Insts: 5000}
	s := New(Config{Options: opt})
	s.Runner().UseBackend(func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	})
	sock := filepath.Join(t.TempDir(), "w.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	ctx := context.Background()

	fp := opt.Fingerprint()
	c := NewSocketClient(sock, &fp)
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	cfg := cfgWith(config.Sync)
	rec, src, err := c.RunRecord(ctx, "126.gcc", cfg)
	if err != nil {
		t.Fatalf("RunRecord: %v", err)
	}
	if src != experiments.SourceSimulated || rec.Bench != "126.gcc" {
		t.Errorf("record = %+v from %q, want 126.gcc simulated", rec, src)
	}

	other := experiments.Options{Insts: 7777}.Fingerprint()
	_, _, err = NewSocketClient(sock, &other).RunRecord(ctx, "126.gcc", cfg)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || !se.Permanent() || se.Server == nil {
		t.Errorf("mismatched cell = %v, want a permanent 409 *StatusError naming the daemon's fingerprint", err)
	}
}

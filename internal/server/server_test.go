package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/stats"
)

func cfgWith(p config.Policy) config.Machine {
	c := config.Default128()
	c.Policy = p
	return c
}

// fakeStats returns a deterministic, distinguishable result per cell.
func fakeStats(bench string, cfg config.Machine) *stats.Run {
	return &stats.Run{
		Config: cfg.Name(), Workload: bench,
		Cycles: 1000 + int64(len(bench)), Committed: 2500,
		CommittedLoads: 500, Misspeculations: 7,
	}
}

// newTestServer builds a server whose runner simulates via sim.
func newTestServer(t *testing.T, cfg Config, sim experiments.SimulateFunc) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if sim != nil {
		s.Runner().UseBackend(sim)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postRun(t *testing.T, url string, req RunRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getMetrics(t *testing.T, url string) MetricsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// Two concurrent identical cell requests must cost one simulation;
// the second is answered by singleflight dedup (or the cache, if the
// first already finished), and a later repeat is a pure cache hit.
func TestRunDedupAcrossConcurrentClients(t *testing.T) {
	var invocations atomic.Int64
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		invocations.Add(1)
		entered <- struct{}{}
		<-release
		return fakeStats(bench, cfg), nil
	}
	_, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000, Parallel: 4}}, sim)

	req := RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync)}
	type result struct {
		status int
		rr     RunResponse
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts.URL, req)
			var rr RunResponse
			json.Unmarshal(body, &rr)
			results <- result{resp.StatusCode, rr}
		}()
	}
	<-entered // one simulation is in flight
	close(release)
	wg.Wait()
	close(results)

	var sources []string
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("status = %d", r.status)
		}
		if r.rr.Record.Stats == nil || r.rr.Record.Bench != "126.gcc" {
			t.Fatalf("bad record: %+v", r.rr.Record)
		}
		sources = append(sources, string(r.rr.Source))
	}
	if n := invocations.Load(); n != 1 {
		t.Errorf("identical concurrent requests ran %d simulations, want 1", n)
	}
	simulated := 0
	for _, s := range sources {
		switch s {
		case "simulated":
			simulated++
		case "dedup", "cache":
		default:
			t.Errorf("unexpected source %q", s)
		}
	}
	if simulated != 1 {
		t.Errorf("sources = %v, want exactly one \"simulated\"", sources)
	}

	// A repeat after completion is a cache hit and runs nothing.
	resp, body := postRun(t, ts.URL, req)
	var rr RunResponse
	json.Unmarshal(body, &rr)
	if resp.StatusCode != http.StatusOK || rr.Source != experiments.SourceCache {
		t.Errorf("repeat request: status %d source %q, want 200 cache", resp.StatusCode, rr.Source)
	}
	if n := invocations.Load(); n != 1 {
		t.Errorf("cache hit re-simulated: %d invocations", n)
	}

	m := getMetrics(t, ts.URL)
	if m.Counters.JobsStarted != 1 || m.Counters.CacheHits != 2 {
		t.Errorf("metrics: jobs_started=%d cache_hits=%d, want 1 and 2",
			m.Counters.JobsStarted, m.Counters.CacheHits)
	}
	ep := m.Endpoints["POST /v1/runs"]
	if ep.Requests != 3 || ep.Errors != 0 {
		t.Errorf("endpoint metrics: %+v, want 3 requests 0 errors", ep)
	}
}

// A provenance-fingerprint mismatch is refused with 409 and the
// server's tuple, before any queueing.
func TestRunMetaMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}}, func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		t.Error("mismatched request must not reach the backend")
		return fakeStats(bench, cfg), nil
	})
	foreign := experiments.Options{Insts: 999_999}.Fingerprint()
	resp, body := postRun(t, ts.URL, RunRequest{
		Bench: "126.gcc", Config: cfgWith(config.Sync), Meta: &foreign,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409; body: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Server == nil {
		t.Fatalf("409 body must carry the server fingerprint: %s", body)
	}
	if er.Server.Insts != 5000 {
		t.Errorf("server fingerprint insts = %d, want 5000", er.Server.Insts)
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}}, nil)
	zeroIssue := cfgWith(config.Naive)
	zeroIssue.IssueWidth = 0
	zeroWays := cfgWith(config.Sync)
	zeroWays.PredictorTable.Assoc = 0
	for name, req := range map[string]RunRequest{
		"unknown bench":   {Bench: "127.notabench", Config: cfgWith(config.Sync)},
		"padded bench":    {Bench: " 126.gcc", Config: cfgWith(config.Sync)},
		"bench list":      {Bench: "126.gcc,102.swim", Config: cfgWith(config.Sync)},
		"empty config":    {Bench: "126.gcc"},
		"zero issue":      {Bench: "126.gcc", Config: zeroIssue},
		"zero table ways": {Bench: "126.gcc", Config: zeroWays},
	} {
		resp, body := postRun(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body: %s", name, resp.StatusCode, body)
		}
	}
	// A body is exactly one request: trailing data and fields the
	// request types lack are refused, not dropped, so the server never
	// answers for a cell or a provenance tuple the client did not name.
	fp := experiments.Options{Insts: 5000}.Fingerprint()
	good, _ := json.Marshal(RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync), Meta: &fp})
	oneCell, _ := json.Marshal(SweepRequest{Benches: []string{"126.gcc"}, Configs: []config.Machine{cfgWith(config.Sync)}})
	edit := func(body []byte, old, new string) string {
		if !bytes.Contains(body, []byte(old)) {
			t.Fatalf("%s is not in %s", old, body)
		}
		return strings.Replace(string(body), old, new, 1)
	}
	for name, c := range map[string]struct{ path, body string }{
		"two requests":         {"/v1/runs", string(good) + string(good)},
		"trailing garbage":     {"/v1/runs", string(good) + "garbage"},
		"unknown field":        {"/v1/runs", edit(good, `{"bench"`, `{"priority":1,"bench"`)},
		"unknown config field": {"/v1/runs", edit(good, `"config":{`, `"config":{"Turbo":true,`)},
		"unknown meta field":   {"/v1/runs", edit(good, `"meta":{`, `"meta":{"insts_typo":1,`)},
		"sweep trailing data":  {"/v1/sweeps", string(oneCell) + "{}"},
		"sweep unknown field":  {"/v1/sweeps", edit(oneCell, `{"benches"`, `{"priority":1,"benches"`)},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body: %s", name, resp.StatusCode, buf.String())
		}
	}
	// Sweeps validate every configuration before queueing any cell.
	sweep, _ := json.Marshal(SweepRequest{
		Benches: []string{"126.gcc"}, Configs: []config.Machine{cfgWith(config.Naive), zeroWays},
	})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep with an invalid config: status = %d, want 400", resp.StatusCode)
	}
	// A body past the size cap is refused before it is decoded.
	huge := `{"bench":"126.gcc","pad":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
}

// A sweep naming a bench twice is refused before any cell is queued:
// otherwise a small body could ask for cells without bound.
func TestSweepRejectsRepeatedBench(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}}, nil)
	body, _ := json.Marshal(SweepRequest{
		Benches: []string{"126.gcc", "102.swim", "126.gcc"}, Configs: []config.Machine{cfgWith(config.Sync)},
	})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "repeated") {
		t.Errorf("sweep with a repeated bench: status = %d, body %s; want 400 naming the repeat", resp.StatusCode, buf.String())
	}
}

// The bounded queue refuses overload with 503 instead of queueing
// without limit, but only for cells that need a simulation: a cached
// cell is answered while the queue is full.
func TestRunQueueFull(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		entered <- struct{}{}
		<-release
		return fakeStats(bench, cfg), nil
	}
	defer close(release)
	s, ts := newTestServer(t, Config{
		Options: experiments.Options{Insts: 5000, Parallel: 1}, QueueDepth: 1,
	}, sim)

	fire := func(p config.Policy, ch chan<- int) {
		go func() {
			resp, _ := postRun(t, ts.URL, RunRequest{Bench: "126.gcc", Config: cfgWith(p)})
			ch <- resp.StatusCode
		}()
	}
	memoized := make(chan int, 1)
	fire(config.StoreSets, memoized)
	<-entered
	release <- struct{}{}
	if st := <-memoized; st != http.StatusOK {
		t.Fatalf("memoizing request status = %d", st)
	}
	first, second := make(chan int, 1), make(chan int, 1)
	fire(config.Sync, first)
	<-entered // the only worker is now occupied
	fire(config.Naive, second)
	// Wait for the second request to occupy the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.queue().Depth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postRun(t, ts.URL, RunRequest{Bench: "126.gcc", Config: cfgWith(config.Oracle)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status = %d, want 503; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 must carry Retry-After")
	}
	resp, body = postRun(t, ts.URL, RunRequest{Bench: "126.gcc", Config: cfgWith(config.StoreSets)})
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"source":"cache"`)) {
		t.Errorf("cached cell under a full queue: status %d, body %s; want 200 from the cache", resp.StatusCode, body)
	}
	release <- struct{}{}
	release <- struct{}{}
	if st := <-first; st != http.StatusOK {
		t.Errorf("first request status = %d", st)
	}
	if st := <-second; st != http.StatusOK {
		t.Errorf("queued request status = %d", st)
	}
}

// A sweep streams NDJSON lifecycle events and one record per cell.
func TestSweepStreamsNDJSON(t *testing.T) {
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	}
	_, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000, Parallel: 2}}, sim)

	body, _ := json.Marshal(SweepRequest{
		Benches: []string{"126.gcc", "102.swim"},
		Configs: []config.Machine{cfgWith(config.Sync), cfgWith(config.Naive)},
	})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []Event
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("too few events: %+v", events)
	}
	if first := events[0]; first.Event != "queued" || first.Cells != 4 {
		t.Errorf("first event = %+v, want queued with 4 cells", first)
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.Cells != 4 || last.Failed != 0 {
		t.Errorf("last event = %+v, want done 4/0", last)
	}
	finished := 0
	for _, ev := range events {
		if ev.Event == "finished" {
			finished++
			if ev.Record == nil || ev.Record.Stats == nil {
				t.Errorf("finished event without record: %+v", ev)
			}
		}
	}
	if finished != 4 {
		t.Errorf("finished events = %d, want 4", finished)
	}
}

// With Accept: text/event-stream the same events arrive as SSE frames.
func TestSweepStreamsSSE(t *testing.T) {
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	}
	_, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}}, sim)

	body, _ := json.Marshal(SweepRequest{
		Benches: []string{"126.gcc"}, Configs: []config.Machine{cfgWith(config.Sync)},
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", bytes.NewReader(body))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(out, "event: done\ndata: ") {
		t.Errorf("missing SSE done frame:\n%s", out)
	}
}

// A restarted server over the same journal directory serves completed
// cells from the re-primed cache without re-simulating, bit-identical.
func TestJournalRestartReprimesCache(t *testing.T) {
	dir := t.TempDir()
	opt := experiments.Options{Insts: 2000, Parallel: 2}
	req := RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync)}

	// First server lifetime: simulate one real cell, journal it.
	j, recs, err := experiments.OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt1 := opt
	opt1.Journal = j
	s1 := New(Config{Options: opt1})
	s1.Runner().Prime(recs)
	ts1 := httptest.NewServer(s1)
	resp, body := postRun(t, ts1.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, body)
	}
	var first RunResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Source != experiments.SourceSimulated {
		t.Fatalf("first run source = %q, want simulated", first.Source)
	}
	ts1.Close()
	s1.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second lifetime over the same directory: the cell must replay.
	j2, recs2, err := experiments.OpenJournal(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opt2 := opt
	opt2.Journal = j2
	s2 := New(Config{Options: opt2})
	if n := s2.Runner().Prime(recs2); n != 1 {
		t.Fatalf("primed %d cells from journal, want 1", n)
	}
	ts2 := httptest.NewServer(s2)
	defer func() { ts2.Close(); s2.Close() }()
	resp2, body2 := postRun(t, ts2.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed run: status %d: %s", resp2.StatusCode, body2)
	}
	var second RunResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if second.Source != experiments.SourceJournal {
		t.Errorf("restart source = %q, want journal", second.Source)
	}
	if !reflect.DeepEqual(first.Record.Stats, second.Record.Stats) {
		t.Errorf("replayed stats differ from simulated:\nfirst:  %+v\nsecond: %+v",
			first.Record.Stats, second.Record.Stats)
	}
	// The promoted cell is a memo hit from now on; both answers carry
	// the runner's record of it.
	resp3, body3 := postRun(t, ts2.URL, req)
	var third RunResponse
	if err := json.Unmarshal(body3, &third); err != nil || resp3.StatusCode != http.StatusOK {
		t.Fatalf("repeat after restart: status %d, %v: %s", resp3.StatusCode, err, body3)
	}
	if third.Source != experiments.SourceCache {
		t.Errorf("repeat after restart: source = %q, want cache", third.Source)
	}
	want, ok := s2.Runner().Record(req.Bench, req.Config)
	if !ok {
		t.Fatal("no record for the replayed cell")
	}
	for _, got := range []RunResponse{second, third} {
		if !reflect.DeepEqual(got.Record, want) {
			t.Errorf("%s answer's record differs from Runner.Record:\ngot:  %+v\nwant: %+v", got.Source, got.Record, want)
		}
	}
	m := getMetrics(t, ts2.URL)
	if c := m.Counters; c.JobsStarted != 0 || c.Replayed != 1 || c.CacheHits != 1 {
		t.Errorf("restart metrics: jobs_started=%d replayed=%d cache_hits=%d, want 0, 1 and 1",
			c.JobsStarted, c.Replayed, c.CacheHits)
	}
	// The first memo hit filed its body's digest, so the same body again
	// is answered from the digest index with the same bytes.
	if !hasDigest(s2, req) {
		t.Fatal("the first memo hit filed no digest for its body")
	}
	resp4, body4 := postRun(t, ts2.URL, req)
	if resp4.StatusCode != http.StatusOK || !bytes.Equal(body4, body3) {
		t.Errorf("digest answer: status %d, body differs from the memo hit's:\n%s\nvs\n%s", resp4.StatusCode, body4, body3)
	}
	if c := getMetrics(t, ts2.URL).Counters; c.JobsStarted != 0 || c.Replayed != 1 || c.CacheHits != 2 {
		t.Errorf("after the digest answer: jobs_started=%d replayed=%d cache_hits=%d, want 0, 1 and 2",
			c.JobsStarted, c.Replayed, c.CacheHits)
	}
}

// hasDigest reports whether s answers req's encoding from its digest
// index.
func hasDigest(s *Server, req RunRequest) bool {
	body, _ := json.Marshal(req)
	s.bodyMu.Lock()
	defer s.bodyMu.Unlock()
	return s.digests[sha256.Sum256(body)] != nil
}

// Concurrent hits on one memoized cell all get the same bytes, and the
// server keeps one encoding of them. Run it under -race.
func TestConcurrentCacheHitsShareOneEncoding(t *testing.T) {
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	}
	s, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000, Parallel: 2}}, sim)
	req := RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync)}
	if resp, body := postRun(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp.StatusCode, body)
	}

	const hits = 16
	bodies := make([][]byte, hits)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("hit %d: status %d: %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("hit %d body differs:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}
	var rr RunResponse
	if err := json.Unmarshal(bodies[0], &rr); err != nil || rr.Source != experiments.SourceCache {
		t.Fatalf("hit body: source %q, %v", rr.Source, err)
	}
	if n := bytes.Count(bodies[0], []byte("\n")); n != 1 || bodies[0][len(bodies[0])-1] != '\n' {
		t.Errorf("response is not one line of compact JSON: %s", bodies[0])
	}
	s.bodyMu.Lock()
	n := len(s.bodies)
	s.bodyMu.Unlock()
	if n != 1 {
		t.Errorf("byte cache holds %d encodings, want 1", n)
	}
	if c := getMetrics(t, ts.URL).Counters; c.JobsStarted != 1 || c.CacheHits != hits {
		t.Errorf("metrics: jobs_started=%d cache_hits=%d, want 1 and %d", c.JobsStarted, c.CacheHits, hits)
	}

	// A second round of the same body is answered from the digest index
	// the first round filed: the same bytes, one digest, one encoding.
	if !hasDigest(s, req) {
		t.Fatal("the memo hits filed no digest for their body")
	}
	again := make([][]byte, hits)
	for i := range again {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postRun(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("digest hit %d: status %d: %s", i, resp.StatusCode, body)
			}
			again[i] = body
		}()
	}
	wg.Wait()
	for i, b := range again {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("digest hit %d body differs:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}
	s.bodyMu.Lock()
	n, d := len(s.bodies), len(s.digests)
	s.bodyMu.Unlock()
	if n != 1 || d != 1 {
		t.Errorf("after the digest round: %d encodings and %d digests, want 1 and 1", n, d)
	}
	if c := getMetrics(t, ts.URL).Counters; c.JobsStarted != 1 || c.CacheHits != 2*hits {
		t.Errorf("metrics: jobs_started=%d cache_hits=%d, want 1 and %d", c.JobsStarted, c.CacheHits, 2*hits)
	}
}

// A body byte-identical to the one that stored a memo cell's response
// is answered from the digest index: the same bytes, counted as one
// cache hit each, simulating nothing. Another encoding of the cell takes
// the decode path to the same bytes and files no digest, so however many
// encodings of a cell clients send, it keeps one.
func TestRepeatedBodyAnsweredByDigest(t *testing.T) {
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	}
	opt := experiments.Options{Insts: 5000}
	s, ts := newTestServer(t, Config{Options: opt}, sim)
	post := func(body []byte) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s: %s", resp.StatusCode, body, buf.Bytes())
		}
		return buf.Bytes()
	}
	digests := func() int {
		s.bodyMu.Lock()
		defer s.bodyMu.Unlock()
		return len(s.digests)
	}

	fp := opt.Fingerprint()
	req := RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync), Meta: &fp}
	body, _ := json.Marshal(req)
	post(body)           // simulated
	stored := post(body) // the first memo hit: stores the response and the digest
	if !hasDigest(s, req) || digests() != 1 {
		t.Fatalf("after the first memo hit: %d digests, body's filed %v; want 1, true", digests(), hasDigest(s, req))
	}
	var rr RunResponse
	if err := json.Unmarshal(stored, &rr); err != nil || rr.Source != experiments.SourceCache {
		t.Fatalf("memo hit: source %q, %v", rr.Source, err)
	}
	before := getMetrics(t, ts.URL)
	for i := int64(1); i <= 3; i++ {
		if got := post(body); !bytes.Equal(got, stored) {
			t.Fatalf("digest answer %d differs from the memo hit's:\n%s\nvs\n%s", i, got, stored)
		}
		c := getMetrics(t, ts.URL).Counters
		if c.CacheHits != before.Counters.CacheHits+i || c.JobsStarted != before.Counters.JobsStarted {
			t.Errorf("after digest answer %d: cache_hits=%d jobs_started=%d, want %d and %d",
				i, c.CacheHits, c.JobsStarted, before.Counters.CacheHits+i, before.Counters.JobsStarted)
		}
	}
	after := getMetrics(t, ts.URL)
	was, is := before.Endpoints["POST /v1/runs"], after.Endpoints["POST /v1/runs"]
	if is.Requests != was.Requests+3 || is.Errors != was.Errors {
		t.Errorf("POST /v1/runs counters went from %+v to %+v, want 3 more requests and no errors", was, is)
	}

	// One byte more, or meta left out: the decode path, the same answer.
	noMeta, _ := json.Marshal(RunRequest{Bench: req.Bench, Config: req.Config})
	for _, other := range [][]byte{append(body[:len(body):len(body)], '\n'), noMeta} {
		if got := post(other); !bytes.Equal(got, stored) {
			t.Errorf("%q: answer differs from the digest path's:\n%s\nvs\n%s", other, got, stored)
		}
	}
	if n := digests(); n != 1 {
		t.Errorf("other encodings of a cell filed digests: %d, want 1", n)
	}

	// A client that varies its encoding of one cell adds one digest in all.
	swim, _ := json.Marshal(RunRequest{Bench: "102.swim", Config: cfgWith(config.Naive)})
	post(swim) // simulated
	var first []byte
	for i := 1; i <= 1000; i++ {
		got := post(append(bytes.Repeat([]byte(" "), i), swim...))
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("encoding %d: answer differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if n := digests(); n != 2 {
		t.Errorf("1,000 encodings of one cell left %d digests in all, want 2 (one per cell)", n)
	}

	// A request whose client already left is refused as Lookup refuses
	// it, on either path, and is not counted as a hit.
	hits := getMetrics(t, ts.URL).Counters.CacheHits
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range [][]byte{body, noMeta} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(b)).WithContext(ctx))
		if rec.Code != statusClientClosedRequest {
			t.Errorf("%s with a done context: status %d, want %d", b, rec.Code, statusClientClosedRequest)
		}
	}
	if c := getMetrics(t, ts.URL).Counters; c.CacheHits != hits {
		t.Errorf("done-context requests counted as hits: cache_hits %d, want %d", c.CacheHits, hits)
	}
}

// The Client round-trips stats exactly and can serve as a local
// Runner's remote backend (the mdexp -server path).
func TestClientAsRemoteBackend(t *testing.T) {
	opt := experiments.Options{Insts: 5000}
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	}
	_, ts := newTestServer(t, Config{Options: opt}, sim)

	cl := NewClient(strings.TrimPrefix(ts.URL, "http://"), opt)
	if err := cl.Check(context.Background()); err != nil {
		t.Fatalf("Check: %v", err)
	}

	cfg := cfgWith(config.Sync)
	got, src, err := cl.RunWithSource(context.Background(), "126.gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src != experiments.SourceSimulated {
		t.Errorf("source = %q, want simulated", src)
	}
	if want := fakeStats("126.gcc", cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("stats did not round-trip:\ngot:  %+v\nwant: %+v", got, want)
	}

	// Mount the client as a local runner's backend: experiments run
	// unchanged, every simulation deferred to the daemon.
	local := experiments.NewRunner(opt)
	local.UseBackend(cl.Run)
	res, err := local.Run(context.Background(), "102.swim", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fakeStats("102.swim", cfg); !reflect.DeepEqual(res, want) {
		t.Errorf("runner-mounted client stats differ:\ngot:  %+v\nwant: %+v", res, want)
	}
	// The daemon now holds both cells; the local memo dedups repeats.
	if _, err := local.Run(context.Background(), "102.swim", cfg); err != nil {
		t.Fatal(err)
	}
	if c := local.Counters(); c.CacheHits != 1 {
		t.Errorf("local cache hits = %d, want 1", c.CacheHits)
	}
}

// A client built for different options fails Check with a descriptive
// mismatch instead of 409ing cell by cell.
func TestClientCheckMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Options: experiments.Options{Insts: 5000}}, nil)
	cl := NewClient(ts.URL, experiments.Options{Insts: 7777})
	err := cl.Check(context.Background())
	if err == nil || !strings.Contains(err.Error(), "provenance mismatch") {
		t.Errorf("Check = %v, want provenance mismatch", err)
	}
}

// After Close the scheduler refuses new work instead of panicking,
// and Close is idempotent.
func TestCloseRefusesNewWork(t *testing.T) {
	s := New(Config{Options: experiments.Options{Insts: 5000}})
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.Close()
	s.Close() // idempotent
	resp, body := postRun(t, ts.URL, RunRequest{Bench: "126.gcc", Config: cfgWith(config.Sync)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-Close status = %d, want 503; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "shutting down") {
		t.Errorf("post-Close body = %s, want shutting-down error", body)
	}
}

// Queued cells finish (and are journaled) before Close returns: the
// graceful-drain guarantee SIGTERM relies on.
func TestCloseDrainsQueuedWork(t *testing.T) {
	release := make(chan struct{})
	var finished atomic.Int64
	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		<-release
		finished.Add(1)
		return fakeStats(bench, cfg), nil
	}
	s := New(Config{Options: experiments.Options{Insts: 5000, Parallel: 1}, QueueDepth: 4})
	s.Runner().UseBackend(sim)

	done := make(chan taskResult, 2)
	for i, p := range []config.Policy{config.Sync, config.Naive} {
		t2 := &task{bench: "126.gcc", cfg: cfgWith(p), ctx: context.Background(), done: done}
		if err := s.sched.trySubmit(t2); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	close(release)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain the queue")
	}
	if n := finished.Load(); n != 2 {
		t.Errorf("Close returned with %d/2 queued cells finished", n)
	}
}

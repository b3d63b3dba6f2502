package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/stats"
	"mdspec/internal/workload"
)

// FuzzRunRequest feeds arbitrary bodies to POST /v1/runs on a server
// whose backend answers at once and, like the real one, fails on a
// name outside the suite. Every body must be answered within a bound
// with a 2xx, a 4xx or the queue's 503: never a panic or another 5xx.
// A body that succeeds is sent again and must come back from the cache
// with the same record, and a third time, when the digest index answers
// it, with the same bytes as the second.
func FuzzRunRequest(f *testing.F) {
	zeroIssue := cfgWith(config.Naive)
	zeroIssue.IssueWidth = 0
	zeroWays := cfgWith(config.Sync)
	zeroWays.PredictorTable.Assoc = 0
	foreign := experiments.Options{Insts: 999_999}.Fingerprint()
	for _, req := range []RunRequest{
		{Bench: "126.gcc", Config: cfgWith(config.Sync)},
		{Bench: "127.notabench", Config: cfgWith(config.Sync)},
		{Bench: " 126.gcc", Config: cfgWith(config.Sync)}, // a padded name the backend cannot build
		{Bench: "126.gcc,102.swim", Config: cfgWith(config.Sync)},
		{Bench: "126.gcc"},
		{Bench: "126.gcc", Config: zeroIssue},
		{Bench: "126.gcc", Config: zeroWays},
		{Bench: "126.gcc", Config: cfgWith(config.Sync), Meta: &foreign},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"bench":"126.gcc","pad":"` + strings.Repeat("x", maxRequestBytes) + `"}`))

	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		if _, err := workload.ProfileByName(bench); err != nil {
			return nil, err
		}
		return fakeStats(bench, cfg), nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Options: experiments.Options{Insts: 5000, Parallel: 1}, QueueDepth: 1})
		s.Runner().UseBackend(sim)
		defer s.Close()

		status, first := fuzzPost(t, s, "/v1/runs", body)
		switch {
		case status >= 200 && status < 300, status >= 400 && status < 500:
		case status == http.StatusServiceUnavailable && bytes.Contains(first, []byte(ErrQueueFull.Error())):
		default:
			t.Fatalf("status %d for body %q: %s", status, body, first)
		}
		if status != http.StatusOK {
			return
		}
		status, again := fuzzPost(t, s, "/v1/runs", body)
		var a, b RunResponse
		if err := json.Unmarshal(first, &a); err != nil {
			t.Fatalf("first answer does not decode: %v: %s", err, first)
		}
		if err := json.Unmarshal(again, &b); err != nil || status != http.StatusOK {
			t.Fatalf("repeat: status %d, %v: %s", status, err, again)
		}
		if b.Source != experiments.SourceCache || !reflect.DeepEqual(a.Record, b.Record) {
			t.Fatalf("repeat is not the cached record:\nfirst:  %s\nrepeat: %s", first, again)
		}
		status, third := fuzzPost(t, s, "/v1/runs", body)
		if status != http.StatusOK || !bytes.Equal(third, again) {
			t.Fatalf("digest answer: status %d, bytes differ from the decode path's:\nsecond: %s\nthird:  %s", status, again, third)
		}
	})
}

// FuzzSweepRequest feeds arbitrary bodies to POST /v1/sweeps on the
// same kind of server as FuzzRunRequest. Every body must be answered
// within a bound with a 2xx, a 4xx or the queue's 503, and allocate at
// most a fixed amount plus a multiple of its own size, however many
// cells it names. A 200 stream must end with a done event that counts
// one finished or failed event per cell.
func FuzzSweepRequest(f *testing.F) {
	zeroWays := cfgWith(config.Sync)
	zeroWays.PredictorTable.Assoc = 0
	foreign := experiments.Options{Insts: 999_999}.Fingerprint()
	two := []config.Machine{cfgWith(config.Sync), cfgWith(config.Naive)}
	repeated := make([]string, 2000)
	for i := range repeated {
		repeated[i] = "126.gcc"
	}
	table2 := make([]config.Machine, 500)
	for i := range table2 {
		table2[i] = config.Default128()
	}
	for _, req := range []SweepRequest{
		{Benches: []string{"126.gcc", "102.swim"}, Configs: two},
		{Benches: []string{"126.gcc"}, Configs: []config.Machine{cfgWith(config.Sync)}},
		{Benches: []string{"126.gcc"}, Configs: []config.Machine{cfgWith(config.Naive), zeroWays}},
		{Benches: []string{"126.gcc", "102.swim", "126.gcc"}, Configs: two},
		{Benches: []string{"126.gcc"}, Configs: two, Meta: &foreign},
		{Benches: []string{"127.notabench"}, Configs: two},
		{Benches: []string{"126.gcc"}},
		{Benches: repeated, Configs: table2}, // a million cells before repeats were refused
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	sim := func(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
		return fakeStats(bench, cfg), nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Options: experiments.Options{Insts: 5000, Parallel: 1}, QueueDepth: 1})
		s.Runner().UseBackend(sim)
		defer s.Close()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		status, out := fuzzPost(t, s, "/v1/sweeps", body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+sweepAllocPerByte*uint64(len(body)) {
			t.Fatalf("a %d-byte sweep allocated %d bytes", len(body), grew)
		}
		switch {
		case status >= 200 && status < 300, status >= 400 && status < 500:
		case status == http.StatusServiceUnavailable && bytes.Contains(out, []byte(ErrQueueFull.Error())):
		default:
			t.Fatalf("status %d for body %q: %s", status, body, out)
		}
		if status != http.StatusOK {
			return
		}
		var last Event
		answered := 0
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("stream does not decode: %v: %s", err, out)
			}
			if last.Event == "finished" || last.Event == "failed" {
				answered++
			}
		}
		if last.Event != "done" || last.Cells != answered {
			t.Fatalf("stream ends with %+v after %d answered cells", last, answered)
		}
	})
}

// sweepAllocPerByte bounds what one byte of a sweep body may cost. A
// cell costs about 4.5 KB here (its task, record and event), and a
// config of about 200 bytes names at most 18 cells, one per bench:
// about 400 bytes per body byte.
const sweepAllocPerByte = 1024

// fuzzPost sends body to POST path on s and returns the answer,
// failing the test if none comes within ten seconds.
func fuzzPost(t *testing.T, s *Server, path string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("no answer within 10 s for body %q", body)
	}
	return rec.Code, rec.Body.Bytes()
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// with the same record.
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
		s := New(Config{Options: experiments.Options{Insts: 5000}, Workers: 1, QueueDepth: 1})
		s.Runner().UseBackend(sim)
		defer s.Close()

		status, first := fuzzPost(t, s, body)
		switch {
		case status >= 200 && status < 300, status >= 400 && status < 500:
		case status == http.StatusServiceUnavailable && bytes.Contains(first, []byte(ErrQueueFull.Error())):
		default:
			t.Fatalf("status %d for body %q: %s", status, body, first)
		}
		if status != http.StatusOK {
			return
		}
		status, again := fuzzPost(t, s, body)
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
	})
}

// fuzzPost sends body to POST /v1/runs on s and returns the answer,
// failing the test if none comes within ten seconds.
func fuzzPost(t *testing.T, s *Server, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
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

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mdspec/internal/config"
	"mdspec/internal/experiments"
	"mdspec/internal/retry"
	"mdspec/internal/stats"
)

// Client talks to an mdserve daemon. Its Run method has the
// experiments.SimulateFunc shape, so a local Runner can mount it as a
// remote backend (Runner.UseBackend) and every experiment — memo
// cache, hooks, artifacts included — runs unchanged against the
// daemon; that is mdexp -server. A fleet supervisor drives each of its
// worker processes through a socket client (NewSocketClient).
//
// A 503 (bounded queue at capacity) does not fail the sweep: the
// client waits out the server's Retry-After hint — floored by the
// deterministic capped-backoff schedule of internal/retry — and
// resubmits, up to the policy's attempt budget.
type Client struct {
	base  string
	hc    *http.Client
	meta  *experiments.Fingerprint // stamped on every cell; nil sends none
	retry retry.Policy
	// sleep waits between overload retries; tests substitute a recorder
	// so retry scheduling is asserted without wall-clock waits.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient returns a client for the daemon at addr (host:port or a
// full http:// URL), stamping every request with the provenance
// fingerprint of opt so the server can refuse mismatched cells.
// Overload retries follow opt.Retry (zero-valued fields take the
// retry.Default schedule).
func NewClient(addr string, opt experiments.Options) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	fp := opt.Fingerprint()
	return &Client{
		base: strings.TrimRight(addr, "/"),
		// Simulations can legitimately take minutes; cancellation comes
		// from the request context, not a transport timeout.
		hc:    &http.Client{},
		meta:  &fp,
		retry: opt.Retry.WithDefaults(),
		sleep: ctxSleep,
	}
}

// NewSocketClient returns a client for a daemon listening on the unix
// socket at path (a fleet worker's control channel), stamping every
// cell with meta when it is non-nil. It makes exactly one attempt per
// cell: a 503 comes back as a *StatusError, because the fleet's
// dispatch queue, not the client, decides where the cell goes next.
func NewSocketClient(path string, meta *experiments.Fingerprint) *Client {
	return &Client{
		base: "http://mdserve-worker", // placeholder host: the transport dials path
		hc: &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}},
		meta:  meta,
		retry: retry.Policy{MaxAttempts: 1},
	}
}

// StatusError is a daemon's non-2xx answer. A 4xx judges the request
// itself, so resubmitting it anywhere cannot change the verdict; a 5xx
// judges the daemon that answered.
type StatusError struct {
	Code int
	// Msg is the ErrorResponse's error text, or the raw body.
	Msg string
	// Server is the daemon's fingerprint on a 409 provenance mismatch.
	Server *experiments.Fingerprint
}

func (e *StatusError) Error() string {
	if e.Server != nil {
		return fmt.Sprintf("mdserve: %s (HTTP %d); the daemon serves %+v — restart it with matching -n/-sampled flags or adjust yours", e.Msg, e.Code, *e.Server)
	}
	return fmt.Sprintf("mdserve: %s (HTTP %d)", e.Msg, e.Code)
}

// Permanent reports a 4xx: an answer about the request, not the daemon.
func (e *StatusError) Permanent() bool { return e.Code >= 400 && e.Code < 500 }

// ctxSleep waits d out unless ctx dies first.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter parses a 503's Retry-After seconds hint (0 when absent
// or malformed; HTTP-date values are ignored as the server never
// sends them).
func retryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// decodeError turns a non-2xx response into a *StatusError.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return &StatusError{Code: resp.StatusCode, Msg: er.Error, Server: er.Server}
	}
	return &StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(body))}
}

// get decodes the JSON answer of GET path into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("mdserve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("mdserve: decoding %s: %w", path, err)
	}
	return nil
}

// Healthz probes the daemon's liveness: nil when it answers 200.
func (c *Client) Healthz(ctx context.Context) error {
	var h HealthzResponse
	return c.get(ctx, "/v1/healthz", &h)
}

// Check verifies the daemon is reachable and serves exactly this
// client's provenance tuple, so a sweep fails fast with a clear
// message instead of 409ing on its first cell.
func (c *Client) Check(ctx context.Context) error {
	var opts OptionsResponse
	if err := c.get(ctx, "/v1/options", &opts); err != nil {
		return err
	}
	if c.meta != nil && opts.Fingerprint != *c.meta {
		return fmt.Errorf("mdserve: provenance mismatch: this sweep wants %+v, the daemon serves %+v (align -n/-sampled, or restart the daemon)", *c.meta, opts.Fingerprint)
	}
	return nil
}

// Run requests one (benchmark, configuration) cell from the daemon
// and returns its statistics. The daemon answers from its
// content-addressed cache when it can; either way the stats are
// bit-identical to a local simulation by the determinism contract.
func (c *Client) Run(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, error) {
	res, _, err := c.RunWithSource(ctx, bench, cfg)
	return res, err
}

// RunWithSource is Run, also reporting the daemon-side result source
// (simulated / cache / dedup / journal).
func (c *Client) RunWithSource(ctx context.Context, bench string, cfg config.Machine) (*stats.Run, experiments.RunSource, error) {
	rec, src, err := c.RunRecord(ctx, bench, cfg)
	if err != nil {
		return nil, "", err
	}
	return rec.Stats, src, nil
}

// RunRecord is RunWithSource keeping the daemon's full
// provenance-carrying record. A saturated daemon (503) is retried on
// the deterministic backoff schedule, honoring the server's
// Retry-After hint when it is longer than the backoff.
func (c *Client) RunRecord(ctx context.Context, bench string, cfg config.Machine) (*experiments.RunRecord, experiments.RunSource, error) {
	body, err := json.Marshal(RunRequest{Bench: bench, Config: cfg, Meta: c.meta})
	if err != nil {
		return nil, "", err
	}
	for attempt := 1; ; attempt++ {
		rec, src, wait, err := c.runOnce(ctx, body, bench, cfg)
		if err == nil || wait < 0 || attempt >= c.retry.MaxAttempts {
			return rec, src, err
		}
		if d := c.retry.Backoff(attempt); d > wait {
			wait = d
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			return nil, "", serr
		}
	}
}

// runOnce performs one POST /v1/runs attempt. wait >= 0 marks a
// retryable overload refusal (the server's Retry-After hint); -1
// marks a final answer.
func (c *Client) runOnce(ctx context.Context, body []byte, bench string, cfg config.Machine) (*experiments.RunRecord, experiments.RunSource, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, "", -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", -1, fmt.Errorf("mdserve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return nil, "", retryAfter(resp), decodeError(resp)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", -1, decodeError(resp)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, "", -1, fmt.Errorf("mdserve: decoding run response: %w", err)
	}
	if rr.Record.Stats == nil {
		return nil, "", -1, fmt.Errorf("mdserve: response for %s under %s carries no stats", bench, cfg.Name())
	}
	return &rr.Record, rr.Source, -1, nil
}

// Package server turns the experiment Runner into a long-running
// simulation service: an HTTP daemon (cmd/mdserve) that accepts
// (benchmark, configuration) cell and sweep requests as JSON, streams
// progress, and answers from a content-addressed result cache keyed on
// the existing provenance tuple — (config hash, bench, instruction
// budget, sampling windows, runner version). The cache is the Runner's
// memo plus singleflight dedup, so identical cells requested by
// concurrent clients cost one simulation; persistence is the PR-5
// checkpoint journal, so a restarted server re-primes its cache from
// disk and serves previously-computed cells without re-simulating.
//
// A bounded work queue (scheduler) sits between the HTTP handlers and
// the Runner: a fixed worker pool drains it through the shared parsim
// semaphore, so an arbitrary request storm can never oversubscribe the
// simulation budget or spawn unbounded goroutines — requests beyond
// the queue's capacity are refused with 503 and a Retry-After hint.
// Only cells that need a new simulation take a slot: a cell request
// the cache settles (memo hit, journal-primed, or joining an in-flight
// duplicate) is answered on its own goroutine, a memo hit from
// response bytes encoded once. A cell request byte-identical to the
// one whose hit stored those bytes is answered by the SHA-256 of its
// body, without decoding it again. A request body holds exactly one
// JSON value with no field its type lacks; anything else is refused
// with 400. Every response is compact JSON.
package server

import (
	"mdspec/internal/config"
	"mdspec/internal/experiments"
)

// RunRequest is the body of POST /v1/runs: one (benchmark, machine
// configuration) cell. Config is the full machine description — the
// server hashes it into the cache key exactly as a local sweep would.
// Meta, when present, is the client's provenance fingerprint; a
// mismatch with the server's is refused with 409, because the
// requested cell would not be one of this server's cells.
type RunRequest struct {
	Bench  string                   `json:"bench"`
	Config config.Machine           `json:"config"`
	Meta   *experiments.Fingerprint `json:"meta,omitempty"`
}

// RunResponse answers a single-cell request: the cell's full
// provenance-carrying record, and where the result came from
// (simulated, cache, dedup, journal).
type RunResponse struct {
	Record experiments.RunRecord `json:"record"`
	Source experiments.RunSource `json:"source"`
}

// SweepRequest is the body of POST /v1/sweeps: the cross product of
// Benches × Configs, streamed back as one Event per lifecycle step.
type SweepRequest struct {
	Benches []string                 `json:"benches"`
	Configs []config.Machine         `json:"configs"`
	Meta    *experiments.Fingerprint `json:"meta,omitempty"`
}

// Event is one frame of a streaming sweep response (NDJSON by
// default; SSE data frames when the client accepts text/event-stream).
type Event struct {
	// Event is "queued", "started", "finished", "failed", or "done".
	Event  string                 `json:"event"`
	Bench  string                 `json:"bench,omitempty"`
	Config string                 `json:"config,omitempty"`
	Source experiments.RunSource  `json:"source,omitempty"`
	Record *experiments.RunRecord `json:"record,omitempty"`
	Error  string                 `json:"error,omitempty"`
	// Cells and Failed summarize the sweep on "queued" (total cells)
	// and "done" (cells delivered, cells failed).
	Cells  int `json:"cells,omitempty"`
	Failed int `json:"failed,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer. Server
// carries the daemon's provenance fingerprint on 409 mismatches so a
// client can see exactly which tuple component diverged.
type ErrorResponse struct {
	Error  string                   `json:"error"`
	Server *experiments.Fingerprint `json:"server,omitempty"`
}

// OptionsResponse describes the provenance tuple and capacity of the
// daemon (GET /v1/options); mdexp -server checks it before sweeping.
type OptionsResponse struct {
	Fingerprint experiments.Fingerprint `json:"fingerprint"`
	Benchmarks  []string                `json:"benchmarks"`
	Workers     int                     `json:"workers"`
	QueueDepth  int                     `json:"queue_depth"`
}

// EndpointMetrics is one route's lifetime request accounting.
type EndpointMetrics struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	SecondsTotal float64 `json:"seconds_total"`
}

// QueueMetrics is the work queue's instantaneous occupancy.
type QueueMetrics struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// MetricsResponse is GET /v1/metrics: the runner's lifetime counters
// (simulations, cache/dedup hits, journal replays, and the on-disk
// recording and warm-state checkpoint caches' hit/miss/byte counters),
// per-endpoint request/latency counters, queue occupancy, and journal
// health.
type MetricsResponse struct {
	Counters      experiments.Counters       `json:"counters"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
	Queue         QueueMetrics               `json:"queue"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
	JournalError  string                     `json:"journal_error,omitempty"`
	// Fleet is the worker-process pool's health snapshot (per-worker
	// liveness, failover, restart, and heartbeat-miss counters); absent
	// when the daemon runs single-process.
	Fleet *FleetReport `json:"fleet,omitempty"`
}

// FleetReport is a worker-process pool's health snapshot: /v1/healthz
// keys `degraded` off the pool and /v1/metrics embeds the report whole.
type FleetReport struct {
	Procs    int  `json:"procs"`
	Alive    int  `json:"alive"`
	Degraded bool `json:"degraded"`
	// Pending is the depth of the pool's shared dispatch queue.
	Pending       int            `json:"pending"`
	FallbackCells int64          `json:"fallback_cells"`
	Workers       []WorkerStatus `json:"workers"`
}

// WorkerStatus is one worker slot's instantaneous state and lifetime
// counters. Steals counts failovers: cells this worker finished after
// a delivery of the same cell to another worker had failed.
type WorkerStatus struct {
	ID              string `json:"id"`
	PID             int    `json:"pid,omitempty"`
	Alive           bool   `json:"alive"`
	Inflight        int    `json:"inflight"`
	Cells           int64  `json:"cells"`
	Steals          int64  `json:"steals"`
	Restarts        int64  `json:"restarts"`
	HeartbeatMisses int64  `json:"heartbeat_misses"`
}

// HealthzResponse is GET /v1/healthz. Degraded is present only when a
// worker fleet is attached: true means every worker process is down
// and cells are executing in-process until the fleet recovers.
type HealthzResponse struct {
	Status   string `json:"status"`
	Degraded *bool  `json:"degraded,omitempty"`
}

package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdspec/internal/experiments"
	"mdspec/internal/workload"
)

// DefaultQueueDepth bounds the work queue when Config.QueueDepth is
// zero: enough to absorb a burst of sweep cells without letting one
// client queue unbounded work.
const DefaultQueueDepth = 256

// Config assembles a Server.
type Config struct {
	// Options fixes the provenance tuple every cell this server
	// simulates shares: instruction budget, sampling windows, retry
	// policy, journal. Hooks may be set for logging; the scheduler adds
	// its own accounting independently. Parallel (GOMAXPROCS when 0)
	// also sizes the scheduler pool, which only stages work: actual
	// simulation parallelism is bounded by the runner's semaphore.
	Options experiments.Options
	// QueueDepth bounds queued-but-unstarted cells (default
	// DefaultQueueDepth). Beyond it, POST /v1/runs answers 503 for a
	// cell that needs a simulation; cached, journal-primed and
	// in-flight cells take no slot.
	QueueDepth int
	// Log, when non-nil, receives one line per simulation lifecycle
	// event (started / finished / refused).
	Log *log.Logger
}

// Server is the mdserve HTTP daemon: a Runner fronted by a bounded
// scheduler and a JSON API. Create with New, serve via ServeHTTP (it
// is an http.Handler), and Close after the HTTP server has drained.
type Server struct {
	cfg     Config
	workers int // scheduler pool size
	fp      experiments.Fingerprint
	runner  *experiments.Runner
	sched   *scheduler
	mux     *http.ServeMux
	start   time.Time
	eps     map[string]*endpointStats
	fleet   Fleet // nil when running single-process

	// bodies holds the response of every cell answered from the memo,
	// encoded on its first hit and written again on each later one.
	// digests maps the SHA-256 of the request body that stored a cell's
	// response to the same entry, so a byte-identical repeat of that
	// body is answered without decoding it. Memo entries are never
	// evicted, so neither are these.
	bodyMu  sync.Mutex
	bodies  map[cellKey]*memoRun           //md:guardedby bodyMu
	digests map[[sha256.Size]byte]*memoRun //md:guardedby bodyMu
}

// cellKey identifies a cell by benchmark and configuration hash.
type cellKey struct {
	bench, configHash string
}

// memoRun is a memo cell's encoded response, with the names and wall
// time a hit's accounting and log line need. It never changes once
// stored.
type memoRun struct {
	body          []byte
	bench, config string
	wallSeconds   float64
}

// Fleet is the health/metrics surface a worker-process pool exposes to
// the server (satisfied by *fleet.Pool). When attached, /v1/healthz
// reports the pool's degraded flag and /v1/metrics embeds its
// per-worker liveness, failover, and restart counters.
type Fleet interface {
	Report() FleetReport
	Degraded() bool
}

// endpointStats is one route's atomic request accounting.
type endpointStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	nanos    atomic.Int64
}

// New builds a Server from cfg. The caller owns the journal inside
// cfg.Options (open it, prime the returned server's Runner with the
// replayed records, close it after Close).
func New(cfg Config) *Server {
	workers := cfg.Options.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	s := &Server{
		cfg:     cfg,
		workers: workers,
		fp:      cfg.Options.Fingerprint(),
		runner:  experiments.NewRunner(cfg.Options),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		eps:     make(map[string]*endpointStats),
		bodies:  make(map[cellKey]*memoRun),
		digests: make(map[[sha256.Size]byte]*memoRun),
	}
	s.sched = newScheduler(s.runner, workers, cfg.QueueDepth)
	s.route("GET /v1/healthz", s.handleHealthz)
	s.route("GET /v1/options", s.handleOptions)
	s.route("GET /v1/metrics", s.handleMetrics)
	s.route("POST /v1/runs", s.handleRun)
	s.route("POST /v1/sweeps", s.handleSweep)
	return s
}

// Runner exposes the server's runner for priming from a replayed
// journal and for counter assertions in tests.
func (s *Server) Runner() *experiments.Runner { return s.runner }

// AttachFleet connects a worker-process pool's health surface. Call
// before serving: the healthz and metrics handlers read it unlocked.
func (s *Server) AttachFleet(f Fleet) { s.fleet = f }

// Workers reports the scheduler pool size.
func (s *Server) Workers() int { return s.workers }

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the scheduler. Call it only after the HTTP server has
// shut down (handlers are the queue's only submitters); queued cells
// finish — and reach the journal — before Close returns, which is the
// daemon's graceful-drain guarantee.
func (s *Server) Close() { s.sched.close() }

// CloseTimeout is Close bounded by d (d <= 0 waits forever). A
// non-empty result names the in-flight cells that outlived the drain:
// everything else finished and reached the journal, and the caller
// should report the stuck cells and exit non-zero.
func (s *Server) CloseTimeout(d time.Duration) []StuckCell {
	return s.sched.closeTimeout(d)
}

// route registers a handler wrapped with per-endpoint metrics.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	ep := &endpointStats{}
	s.eps[pattern] = ep
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		ep.requests.Add(1)
		ep.nanos.Add(int64(time.Since(start)))
		if sw.status >= 400 {
			ep.errors.Add(1)
		}
	})
}

// statusWriter records the response status for error accounting while
// forwarding Flush so streaming responses still reach the client
// incrementally.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// encodeJSON renders v as compact JSON ending in a newline, the way
// json.Encoder writes it, in a slice of exactly that length.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	body := make([]byte, len(b)+1)
	copy(body, b)
	body[len(b)] = '\n'
	return body, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeJSON(ErrorResponse{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	writeBody(w, status, body)
}

// writeBody writes an encoded JSON response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok"}
	if s.fleet != nil {
		degraded := s.fleet.Degraded()
		resp.Degraded = &degraded
		if degraded {
			// Still 200: the daemon serves traffic (in-process fallback),
			// but operators and load balancers can see the fleet is gone.
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleOptions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, OptionsResponse{
		Fingerprint: s.fp,
		Benchmarks:  workload.Names(),
		Workers:     s.workers,
		QueueDepth:  s.cfg.QueueDepth,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	eps := make(map[string]EndpointMetrics, len(s.eps))
	for pattern, ep := range s.eps { //md:orderindependent map marshaled to JSON object
		eps[pattern] = EndpointMetrics{
			Requests:     ep.requests.Load(),
			Errors:       ep.errors.Load(),
			SecondsTotal: time.Duration(ep.nanos.Load()).Seconds(),
		}
	}
	m := MetricsResponse{
		Counters:      s.runner.Counters(),
		Endpoints:     eps,
		Queue:         s.sched.queue(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if err := s.runner.JournalErr(); err != nil {
		m.JournalError = err.Error()
	}
	if s.fleet != nil {
		rep := s.fleet.Report()
		m.Fleet = &rep
	}
	writeJSON(w, http.StatusOK, m)
}

// checkMeta refuses a request whose provenance fingerprint is not this
// server's: its cells would be keyed under a different tuple, so a
// cached answer would silently be the wrong experiment.
func (s *Server) checkMeta(w http.ResponseWriter, meta *experiments.Fingerprint) bool {
	if meta == nil || *meta == s.fp {
		return true
	}
	writeJSON(w, http.StatusConflict, ErrorResponse{
		Error:  fmt.Sprintf("provenance mismatch: request %+v, server %+v", *meta, s.fp),
		Server: &s.fp,
	})
	return false
}

// benchNames is the suite's benchmark names, for checkBench.
var benchNames = func() map[string]bool {
	m := make(map[string]bool)
	for _, n := range workload.Names() {
		m[n] = true
	}
	return m
}()

// checkBench requires bench to be exactly one of the suite's names
// before it can occupy queue space or a cache entry.
func checkBench(bench string) error {
	if benchNames[bench] {
		return nil
	}
	if _, err := workload.ParseNames(bench); err != nil {
		return err
	}
	return fmt.Errorf("bench %q is not exactly one benchmark name", bench)
}

// maxRequestBytes bounds a request body. A machine config is about
// 420 bytes of JSON, so a sweep of 2,000 configurations still fits.
const maxRequestBytes = 1 << 20

// maxPooledBody is the largest buffer freeBody returns to bodyPool: a
// cell request fits with room to spare, and a large sweep's buffer is
// left to the collector instead of being held by the pool.
const maxPooledBody = 4 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the body of r, at most maxRequestBytes, into a pooled
// buffer, which the caller hands back with freeBody. On failure it
// answers 413 (body too large) or 400 itself and reports false.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		return buf, true
	}
	freeBody(buf)
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("reading request: %w", err))
	return nil, false
}

// freeBody returns a buffer from readBody to the pool.
func freeBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyPool.Put(buf)
	}
}

// decodeRequest decodes body, which must hold exactly one JSON value,
// into v. A field v lacks is an error, as is anything but whitespace
// after the value: dropping a field inside config or meta would answer
// for a cell or a provenance tuple the client did not ask for. On
// failure it answers 400 itself and reports false.
func decodeRequest(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("data after the request's JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	buf, ok := readBody(w, r)
	if !ok {
		return
	}
	digest := sha256.Sum256(buf.Bytes())
	if s.answerDigest(w, r, digest) {
		freeBody(buf)
		return
	}
	var req RunRequest
	ok = decodeRequest(w, buf.Bytes(), &req)
	freeBody(buf)
	if !ok {
		return
	}
	if err := checkBench(req.Bench); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.checkMeta(w, req.Meta) {
		return
	}

	// A cell the runner settles without a new simulation (memo hit,
	// journal-primed, or in flight for another request) is answered on
	// this goroutine; only the rest take a queue slot and a worker.
	rec, src, settled, err := s.runner.Lookup(r.Context(), req.Bench, req.Config)
	if !settled {
		res, ok := s.enqueue(w, r, &req)
		if !ok {
			return
		}
		src, err = res.src, res.err
		if err == nil {
			if rec, ok = s.runner.Record(req.Bench, req.Config); !ok {
				// Every successful RunGuarded leaves a record; missing one
				// is a server bug, not a client error.
				writeError(w, http.StatusInternalServerError, fmt.Errorf("no record for completed cell"))
				return
			}
		}
	}
	if err != nil {
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = statusClientClosedRequest
		}
		writeError(w, status, err)
		s.logf("run %s %s: %v", req.Bench, req.Config.Name(), err)
		return
	}
	s.logf("run %s %s: %s in %.3fs", req.Bench, rec.Config, src, rec.WallSeconds)
	s.writeRun(w, rec, src, digest)
}

// answerDigest answers a request whose body is byte-identical to one
// that stored a memo cell's response (writeRun): that body decodes to
// the same cell and passes the same checks, and the cell's memo entry
// and response never change, so the stored bytes are its answer. It
// skips the decode, the checks and the memo lookup, and counts and
// logs the hit as Lookup's memo branch would. It reports false, having
// written nothing, when digest names no cell.
func (s *Server) answerDigest(w http.ResponseWriter, r *http.Request, digest [sha256.Size]byte) bool {
	s.bodyMu.Lock()
	m := s.digests[digest]
	s.bodyMu.Unlock()
	if m == nil {
		return false
	}
	if err := r.Context().Err(); err != nil {
		// Lookup refuses a done context before its memo hit.
		writeError(w, statusClientClosedRequest, err)
		s.logf("run %s %s: %v", m.bench, m.config, err)
		return true
	}
	s.runner.CacheHit(m.bench, m.config)
	s.logf("run %s %s: %s in %.3fs", m.bench, m.config, experiments.SourceCache, m.wallSeconds)
	writeBody(w, http.StatusOK, m.body)
	return true
}

// enqueue hands a cell that needs a simulation to the scheduler and
// waits for it. It reports false when it has answered the request
// itself: the queue refused the cell (503) or the client left.
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, req *RunRequest) (taskResult, bool) {
	done := make(chan taskResult, 1)
	t := &task{bench: req.Bench, cfg: req.Config, ctx: r.Context(), done: done}
	if err := s.sched.trySubmit(t); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		s.logf("run %s %s: refused: %v", req.Bench, req.Config.Name(), err)
		return taskResult{}, false
	}
	select {
	case res := <-done:
		return res, true
	case <-r.Context().Done():
		// Client gone: the worker will observe the dead context (or
		// finish and populate the cache for the next caller); nothing
		// useful can be written.
		writeError(w, statusClientClosedRequest, r.Context().Err())
		return taskResult{}, false
	}
}

// writeRun answers a finished cell for a request whose body has the
// given digest. A memo hit's response depends only on the cell, so it
// is encoded once and its bytes are written on every later hit; the
// request that stores them also files its body's digest, so that
// body's repeats skip the decode (answerDigest) and a cell gets at most
// one digest, however many encodings of it clients send. The other
// sources answer a cell once per request and file nothing.
func (s *Server) writeRun(w http.ResponseWriter, rec experiments.RunRecord, src experiments.RunSource, digest [sha256.Size]byte) {
	if src != experiments.SourceCache {
		writeJSON(w, http.StatusOK, RunResponse{Record: rec, Source: src})
		return
	}
	key := cellKey{rec.Bench, rec.ConfigHash}
	s.bodyMu.Lock()
	m, ok := s.bodies[key]
	s.bodyMu.Unlock()
	if !ok {
		body, err := encodeJSON(RunResponse{Record: rec, Source: src})
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
			return
		}
		m = &memoRun{body: body, bench: rec.Bench, config: rec.Config, wallSeconds: rec.WallSeconds}
		s.bodyMu.Lock()
		if prev, ok := s.bodies[key]; ok {
			m = prev // a concurrent hit stored it first: keep one copy
		} else {
			s.bodies[key] = m
			s.digests[digest] = m
		}
		s.bodyMu.Unlock()
	}
	writeBody(w, http.StatusOK, m.body)
}

// statusClientClosedRequest is nginx's conventional status for a
// request abandoned by the client; it keeps these out of the 5xx
// error budget.
const statusClientClosedRequest = 499

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	buf, ok := readBody(w, r)
	if !ok {
		return
	}
	var req SweepRequest
	ok = decodeRequest(w, buf.Bytes(), &req)
	freeBody(buf)
	if !ok {
		return
	}
	if len(req.Benches) == 0 || len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("benches and configs must both be non-empty"))
		return
	}
	// A repeated name would only repeat its cells; refusing it caps a
	// sweep at the suite's size times the configs the body can hold.
	seen := make(map[string]bool, len(req.Benches))
	for _, b := range req.Benches {
		if err := checkBench(b); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if seen[b] {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bench %q repeated", b))
			return
		}
		seen[b] = true
	}
	for i, c := range req.Configs {
		if err := c.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("configs[%d]: %w", i, err))
			return
		}
	}
	if !s.checkMeta(w, req.Meta) {
		return
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	emit := func(ev Event) {
		if sse {
			fmt.Fprintf(w, "event: %s\ndata: ", ev.Event)
		}
		json.NewEncoder(w).Encode(ev) // Encode appends the newline
		if sse {
			fmt.Fprint(w, "\n")
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	cells := len(req.Benches) * len(req.Configs)
	// Workers signal start and completion over channels sized so they
	// can never block on a slow client; the handler goroutine is the
	// only writer to the response.
	started := make(chan *task, cells)
	done := make(chan taskResult, cells)
	emit(Event{Event: "queued", Cells: cells})

	// Submission backpressures against the bounded queue in its own
	// goroutine so events stream while later cells are still queueing.
	go func() {
		for _, b := range req.Benches {
			for _, c := range req.Configs {
				t := &task{
					bench: b, cfg: c, ctx: r.Context(), done: done,
					started: func(t *task) { started <- t }, //md:ctxok started is buffered with one slot per cell; each task signals start at most once
				}
				if err := s.sched.submit(r.Context(), t); err != nil {
					done <- taskResult{t: t, err: err} //md:ctxok done is buffered with one slot per cell; each cell produces exactly one result
				}
			}
		}
	}()

	failed := 0
	for finished := 0; finished < cells; {
		select {
		case t := <-started:
			emit(Event{Event: "started", Bench: t.bench, Config: t.cfg.Name()})
		case res := <-done:
			finished++
			if res.err != nil {
				failed++
				emit(Event{Event: "failed", Bench: res.t.bench, Config: res.t.cfg.Name(), Error: res.err.Error()})
				continue
			}
			rec, ok := s.runner.Record(res.t.bench, res.t.cfg)
			if !ok {
				failed++
				emit(Event{Event: "failed", Bench: res.t.bench, Config: res.t.cfg.Name(), Error: "no record for completed cell"})
				continue
			}
			emit(Event{Event: "finished", Bench: res.t.bench, Config: rec.Config, Source: res.src, Record: &rec})
		case <-r.Context().Done():
			// Client gone mid-stream: stop writing. In-queue cells are
			// skipped by their dead context; in-flight ones finish into
			// the cache.
			return
		}
	}
	emit(Event{Event: "done", Cells: cells, Failed: failed})
	s.logf("sweep: %d cells, %d failed", cells, failed)
}

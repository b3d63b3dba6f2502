// Package faultinject is a deterministic fault-injection harness for
// the robustness layer around the simulator: the experiment runner, the
// interval-parallel segment workers, and the artifact/journal writers
// each pass through a named injection point on every attempt, and an
// armed plan makes the Nth passage panic or fail with a typed error.
//
// The harness mirrors the mdsan sanitizer's build-tag pattern: without
// `-tags mdfault` every hook compiles to an inlined no-op (Enabled is a
// false constant, Arm is rejected), so default builds carry no
// fault-injection state or overhead. `go test -tags mdfault` arms the
// machinery; CI runs the recovery-path suites under that tag.
//
// Determinism: a plan fires on hit counts, never on wall-clock time or
// randomness — "panic at the 3rd segment" injects the same fault at the
// same place on every run, which is what lets the recovery tests assert
// bit-identical results after a retry.
package faultinject

// Injection sites. Each names one passage the robustness layer
// protects; see the call sites for the recovery path under test.
const (
	// SiteRunnerJob fires at the start of every simulation attempt in
	// experiments.Runner (inside the panic-recovery scope, so an
	// injected panic exercises *RunPanicError and the retry loop).
	SiteRunnerJob = "runner.job"
	// SiteParsimSegment fires at the start of every parsim segment
	// simulation (inside the worker's recovery scope).
	SiteParsimSegment = "parsim.segment"
	// SiteAtomicWrite fires in atomicio.WriteFile before the temp file
	// is written (an injected error must leave the destination intact).
	SiteAtomicWrite = "atomicio.write"
	// SiteJournalAppend fires before a journal entry is framed and
	// written (an injected error must not abort the sweep).
	SiteJournalAppend = "journal.append"
	// SiteProbeClose fires as atomicio.ProbeDir closes its probe file,
	// standing in for a close-time write failure (quota, I/O error at
	// flush) that the probe exists to surface.
	SiteProbeClose = "atomicio.probeclose"
	// SiteCkptWrite fires before a checkpoint set is serialized to disk
	// (an injected error must leave any previous file intact and the
	// sweep running on in-memory checkpoints).
	SiteCkptWrite = "ckpt.write"
	// SiteCkptLoad fires as a checkpoint file is opened/parsed (an
	// injected error must fall back to functional fast-forward and
	// re-capture the file — never wrong statistics).
	SiteCkptLoad = "ckpt.load"
	// SiteWorkerSpawn fires in the fleet supervisor before a worker
	// process is forked (an injected error must be absorbed by the
	// capped-backoff restart policy, with the pool degrading to
	// in-process execution rather than losing cells).
	SiteWorkerSpawn = "worker.spawn"
	// SiteWorkerHeartbeat fires in the supervisor's per-worker liveness
	// probe (an injected error counts as a missed heartbeat; enough
	// consecutive misses must get the worker killed and restarted).
	SiteWorkerHeartbeat = "worker.heartbeat"
	// SiteLeaseAcquire fires as a journal segment's lock is taken (an
	// injected error must fail the segment open cleanly — the caller
	// restarts or degrades, and the segment stays unlocked).
	SiteLeaseAcquire = "lease.acquire"
)

// Kind selects what an armed plan injects when it fires.
type Kind int

const (
	// KindError makes PointErr return an *InjectedError (Point ignores
	// error-kind plans: its call sites have no error path).
	KindError Kind = iota
	// KindPanic makes Point and PointErr panic with an *InjectedPanic.
	KindPanic
)

// Plan arms one injection site: the site's Nth passage (1-based, counted
// across the whole armed window) fires the fault; with Repeat, every
// passage from the Nth on fires it, modeling a persistent failure.
type Plan struct {
	Site   string
	N      int64
	Kind   Kind
	Repeat bool
}

// InjectedError is the error PointErr returns when an error-kind plan
// fires.
type InjectedError struct {
	Site string
	Hit  int64 // which passage of the site fired (1-based)
}

func (e *InjectedError) Error() string {
	return "faultinject: injected error at " + e.Site
}

// InjectedPanic is the value Point panics with when a panic-kind plan
// fires.
type InjectedPanic struct {
	Site string
	Hit  int64
}

func (e *InjectedPanic) String() string {
	return "faultinject: injected panic at " + e.Site
}

// Package retry defines the deterministic retry policy the experiment
// runner applies to transient failures (worker panics, watchdog
// deadlock reports). The budget is counted in attempts, not wall-clock
// time, and the backoff schedule is a pure function of the attempt
// number — the package never reads a clock or a random source (enforced
// by mdvet's determinism analyzer), so two runs of the same failing
// sweep make identical retry decisions. Actually sleeping between
// attempts is the caller's concern; the policy only says for how long.
package retry

import "time"

// Policy bounds retries of one cell. The zero value means "use the
// defaults" (see Default); fields set to negative values disable the
// corresponding behavior explicitly.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (so 1 disables retries; 0 selects the default).
	MaxAttempts int
	// BaseDelay is the backoff suggested after the first failed attempt;
	// it doubles per subsequent failure up to MaxDelay (capped
	// exponential backoff). Zero selects the default; negative disables
	// delays entirely.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth. Zero selects the default.
	MaxDelay time.Duration
}

// Default is the runner's policy when none is configured: three
// attempts with a 50ms/100ms backoff suggestion.
var Default = Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}

// WithDefaults fills unset fields from Default.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = Default.MaxAttempts
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = Default.BaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = Default.MaxDelay
	}
	return p
}

// Backoff returns the delay to apply after the given failed attempt
// (1-based): BaseDelay << (attempt-1), capped at MaxDelay and
// overflow-safe. Attempt numbers below 1 and disabled (negative)
// base delays yield zero.
func (p Policy) Backoff(attempt int) time.Duration {
	p = p.WithDefaults()
	if attempt < 1 || p.BaseDelay < 0 {
		return 0
	}
	// Compare via a right shift of the cap so the left shift below can
	// never overflow.
	shift := attempt - 1
	if shift >= 63 || p.BaseDelay > p.MaxDelay>>shift {
		return p.MaxDelay
	}
	return p.BaseDelay << shift
}

package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Progress renders a live sweep status (jobs finished vs started, the
// most recent job, cache hits, elapsed time) from runner hook events.
// On a terminal it rewrites one status line in place; on any other
// writer (a CI log, a pipe, a file) carriage-return rewrites would
// smear every repaint into one unreadable line, so it falls back to
// whole-line updates emitted at most every couple of seconds. Wire it
// into a Runner via Options.Hooks = p.Hooks(), and call Done before
// printing anything else to the same stream.
type Progress struct {
	mu          sync.Mutex
	w           io.Writer // immutable after NewProgress
	start       time.Time // immutable after NewProgress
	interactive bool      // immutable after NewProgress
	// minInterval throttles non-interactive line updates (tests zero it
	// before the Progress is shared, the single-owner phase).
	minInterval time.Duration
	lastPrint   time.Time //md:guardedby mu
	started     int       //md:guardedby mu
	finished    int       //md:guardedby mu
	failed      int       //md:guardedby mu
	hits        int       //md:guardedby mu
	last        string    //md:guardedby mu
	// lastWidth is the rune count of the previously painted line;
	// padding with byte length would miscount any multi-byte output
	// (benchmark or config names are not guaranteed ASCII).
	lastWidth int  //md:guardedby mu
	done      bool //md:guardedby mu
}

// NewProgress returns a Progress writing to w (normally os.Stderr).
// Terminal detection keys off w being a character device; anything
// else gets the periodic whole-line mode.
func NewProgress(w io.Writer) *Progress {
	p := &Progress{w: w, start: time.Now(), minInterval: 2 * time.Second}
	if f, ok := w.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
			p.interactive = true
		}
	}
	return p
}

// Hooks returns runner hooks that drive this progress line.
func (p *Progress) Hooks() Hooks {
	return Hooks{
		JobStarted: func(bench, cfg string) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.started++
			p.last = bench + " " + cfg
			p.render()
		},
		JobFinished: func(bench, cfg string, d time.Duration, err error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.finished++
			if err != nil {
				p.failed++
			}
			p.render()
		},
		CacheHit: func(bench, cfg string) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.hits++
			// Hits on cells an earlier experiment ran arrive in bursts;
			// only repaint when a line is already up to avoid noise
			// before any job runs.
			if p.started > 0 {
				p.render()
			}
		},
	}
}

// render repaints the status line.
//
//md:locked mu
func (p *Progress) render() {
	if p.done {
		return
	}
	line := fmt.Sprintf("[%d/%d jobs] %s | cache hits %d | %.1fs",
		p.finished, p.started, p.last, p.hits, time.Since(p.start).Seconds())
	if p.failed > 0 {
		line += fmt.Sprintf(" | %d FAILED", p.failed)
	}
	if !p.interactive {
		now := time.Now()
		if !p.lastPrint.IsZero() && now.Sub(p.lastPrint) < p.minInterval {
			return
		}
		p.lastPrint = now
		fmt.Fprintln(p.w, line)
		return
	}
	width := utf8.RuneCountInString(line)
	pad := ""
	if n := p.lastWidth - width; n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.lastWidth = width
}

// Done clears the progress line and stops further rendering.
func (p *Progress) Done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = true
	if p.interactive && p.lastWidth > 0 {
		fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", p.lastWidth))
	}
}

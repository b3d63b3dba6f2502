package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval the benchmark records around a call into
// a layer of the program. Parent is the ID of the enclosing span (0 for
// a root); Cell names the simulation cell the work belongs to, so the
// spans of one request or cell share an identifier.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the part of the span name before the first dot: "core.run"
// belongs to layer "core".
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so an untraced run pays one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span //md:guardedby mu
}

// newTracer starts a tracer; span times are nanoseconds since now.
func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]Span, 0, 1<<14)}
}

// Begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) Begin(parent int, name, cell string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: now, End: -1})
	return len(t.spans)
}

// End closes the span with the given ID.
func (t *tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span that has already ended, for work timed by a
// callback or by a load generator, and returns its ID.
func (t *tracer) Add(parent int, name, cell string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// spanCost measures what recording one span costs: the median over a
// few batches of Begin and End pairs on a scratch tracer.
func spanCost() time.Duration {
	const batch = 20_000
	var per []float64
	for i := 0; i < 5; i++ {
		t := newTracer()
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			t.End(t.Begin(1, "core.run", "126.gcc|nas-sync"))
		}
		per = append(per, float64(time.Since(t0))/batch)
	}
	return time.Duration(quantile(sorted(per), 0.5))
}

// Spans returns a copy of the recorded spans.
func (t *tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteSpans writes spans to path as one JSON array.
func WriteSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LayerTime is one layer's self time summed over a run's spans.
type LayerTime struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"self_s"`
	Share   float64 `json:"share"`
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of that interval its child spans cover (children may overlap
// one another when they run concurrently). Layers are sorted by self
// time, largest first.
func selfTimes(spans []Span) []LayerTime {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	var total int64
	for _, s := range spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		self[s.Layer()] += d
		total += d
	}
	out := make([]LayerTime, 0, len(self))
	for layer, ns := range self { //md:orderindependent sorted below
		lt := LayerTime{Layer: layer, Seconds: float64(ns) / 1e9}
		if total > 0 {
			lt.Share = float64(ns) / float64(total)
		}
		out = append(out, lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of kids covers.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return sum
}

// checkSpans verifies that every span ended, that IDs are dense, and
// that each child lies inside its parent.
func checkSpans(spans []Span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts (or never ended)", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent > len(spans) {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] is not inside its parent %d %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

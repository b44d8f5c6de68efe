package main

import (
	"sort"
	"sync"
	"time"

	"exysim/internal/obs"
)

// spanLayers are the layers whose spans fall inside traced ops: "bench"
// is the op itself, the rest are the modules whose public functions an
// op calls. Set-up and replay spans (op -1) reach the Perfetto file but
// not the per-op self times.
var spanLayers = []string{"bench", "workload", "trace", "core", "pipeline", "serve"}

// tracer records one span per call the benchmark makes into a layer's
// public function: layer, name, start, end, enclosing span and op id.
// Spans go to an obs.SpanTracer for the Perfetto file and to a list the
// self-time and coverage figures are computed from. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	st    *obs.SpanTracer
	mu    sync.Mutex
	spans []span
}

type span struct {
	layer, name string
	op, parent  int // op -1: set-up or replay; parent -1: none
	lane        int32
	start, end  time.Time
}

func newTracer() *tracer { return &tracer{st: obs.NewSpanTracer(1 << 18)} }

// begin opens a span on the named Perfetto lane and returns its id.
func (t *tracer) begin(layer, name, lane string, op, parent int) int {
	if t == nil {
		return -1
	}
	ln := t.st.Lane(lane)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, op: op, parent: parent, lane: ln, start: time.Now()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	s := &t.spans[id]
	s.end = now
	sp := *s
	t.mu.Unlock()
	t.st.Record(sp.layer, sp.name, sp.start, sp.end, sp.lane, int64(sp.op))
}

// spanAt records a span whose start and end the caller measured, and
// returns its id.
func (t *tracer) spanAt(layer, name, lane string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	ln := t.st.Lane(lane)
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, name: name, op: op, parent: parent, lane: ln, start: start, end: end})
	id := len(t.spans) - 1
	t.mu.Unlock()
	t.st.Record(layer, name, start, end, ln, int64(op))
	return id
}

// call wraps f in a span.
func (t *tracer) call(layer, name, lane string, op, parent int, f func()) {
	id := t.begin(layer, name, lane, op, parent)
	f()
	t.end(id)
}

// covered is the length of the union of [start, end) intervals.
func covered(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curE) {
			if i > 0 {
				total += curE.Sub(curS)
			}
			curS, curE = x[0], x[1]
			continue
		}
		if x[1].After(curE) {
			curE = x[1]
		}
	}
	if len(iv) > 0 {
		total += curE.Sub(curS)
	}
	return total
}

// selfTimes returns each layer's self time summed over the closed spans
// of traced ops (a span's duration minus the part of it its children
// cover), and the
// summed duration and self time of the op spans. An op span's self time
// is the part of the op no layer span accounts for.
func (t *tracer) selfTimes() (self map[string]time.Duration, opTotal, opSelf time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]time.Time)
	for _, s := range t.spans {
		if s.parent >= 0 && !s.end.IsZero() {
			children[s.parent] = append(children[s.parent], [2]time.Time{s.start, s.end})
		}
	}
	self = map[string]time.Duration{}
	for i, s := range t.spans {
		if s.end.IsZero() || s.op < 0 {
			continue
		}
		// Clip children to the parent so a child that outlives it (a
		// worker goroutine's last span) is not counted twice.
		var iv [][2]time.Time
		for _, c := range children[i] {
			if c[0].Before(s.start) {
				c[0] = s.start
			}
			if c[1].After(s.end) {
				c[1] = s.end
			}
			if c[1].After(c[0]) {
				iv = append(iv, c)
			}
		}
		d := s.end.Sub(s.start) - covered(iv)
		self[s.layer] += d
		if s.layer == "bench" {
			opTotal += s.end.Sub(s.start)
			opSelf += d
		}
	}
	return self, opTotal, opSelf
}

// writePerfetto writes the spans as a Perfetto/Chrome trace file.
func (t *tracer) writePerfetto(path string) error { return t.st.WriteJSONFile(path) }

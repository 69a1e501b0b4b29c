package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase tags when a span happened, so per-layer metrics can tell set-up
// work from the op phase and from recovery.
type phase int32

const (
	phaseSetup phase = iota
	phaseOps
	phaseRecover
	phasePost // probes after the op phase, outside any op
)

var phaseNames = [...]string{"setup", "ops", "recover", "post"}

// attrs are the counts a span records where its work happens.
type attrs struct {
	items int64 // vectors signed or ingested, candidates examined, similarity evaluations
	hits  int64 // search results, or stratum-H hits of an estimate
	hitsL int64 // stratum-L hits of an estimate
	bytes int64 // bytes moved
	flag  bool  // shardrpc.snapshot: not modified; core.sample: SampleL reached δ; persist file ops: on a delta log
}

// span is one timed call into a layer.
type span struct {
	name       string
	op         int64 // spans of one front-end op share it; 0 outside any op
	parent     int32 // index of the calling span, -1 for a root
	phase      phase
	start, end time.Duration // since the tracer started
	failed     bool
	attrs
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	phase atomic.Int32
	ops   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setPhase(p phase) { t.phase.Store(int32(p)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(op int64, parent int32, name string) int32 {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, phase: phase(t.phase.Load()), start: now})
	return int32(len(t.spans) - 1)
}

// end closes span id with its outcome and counts.
func (t *tracer) end(id int32, err error, a attrs) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end, s.failed, s.attrs = now, err != nil, a
}

// call times f as a span under parent.
func (t *tracer) call(op int64, parent int32, name string, f func() error) error {
	id := t.begin(op, parent, name)
	err := f()
	t.end(id, err, attrs{})
	return err
}

// beginOp opens the root span of a new front-end op.
func (t *tracer) beginOp(name string) (int64, int32) {
	op := t.ops.Add(1)
	return op, t.begin(op, -1, name)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, reach), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerStats is one layer's call count, self time and failures.
type layerStats struct {
	calls, failures int
	self            time.Duration
}

// byLayer aggregates spans per layer over all phases.
func byLayer(spans []span) map[string]*layerStats {
	self := selfTimes(spans)
	out := make(map[string]*layerStats)
	for i := range spans {
		l := out[layerOf(spans[i].name)]
		if l == nil {
			l = &layerStats{}
			out[layerOf(spans[i].name)] = l
		}
		l.calls++
		l.self += self[i]
		if spans[i].failed {
			l.failures++
		}
	}
	return out
}

func printLayers(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-10s %9s %12s %9s\n", "layer", "calls", "self_ms", "failures")
	layers := byLayer(spans)
	for _, name := range sortedNames(layers) {
		l := layers[name]
		fmt.Fprintf(w, "%-10s %9d %12.3f %9d\n", name, l.calls, float64(l.self)/1e6, l.failures)
	}
}

// dump writes the spans as JSON lines to path.
func dump(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		s := &spans[i]
		if err := enc.Encode(map[string]any{
			"id": i, "name": s.name, "op": s.op, "parent": s.parent, "phase": phaseNames[s.phase],
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(), "failed": s.failed,
			"items": s.items, "hits": s.hits, "hits_l": s.hitsL, "bytes": s.bytes, "flag": s.flag,
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// query selects spans by name and phase for the per-layer metrics.
type query struct {
	spans []span
	self  []time.Duration
}

func newQuery(spans []span) *query { return &query{spans, selfTimes(spans)} }

// each calls f for every span named name in phase p.
func (q *query) each(name string, p phase, f func(i int, s *span)) {
	for i := range q.spans {
		if s := &q.spans[i]; s.name == name && s.phase == p {
			f(i, s)
		}
	}
}

func (q *query) count(name string, p phase) int {
	n := 0
	q.each(name, p, func(int, *span) { n++ })
	return n
}

// meanDur is the mean duration of the selected spans in unit (0 if none).
func (q *query) meanDur(name string, p phase, unit time.Duration) float64 {
	var sum time.Duration
	n := 0
	q.each(name, p, func(_ int, s *span) { sum += s.dur(); n++ })
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

// sumDur is the total duration of the selected spans.
func (q *query) sumDur(name string, p phase) time.Duration {
	var sum time.Duration
	q.each(name, p, func(_ int, s *span) { sum += s.dur() })
	return sum
}

// sum adds up a field of the selected spans.
func (q *query) sum(name string, p phase, field func(s *span) int64) int64 {
	var n int64
	q.each(name, p, func(_ int, s *span) { n += field(s) })
	return n
}

// meanSelf is the mean self time of the op spans (the front end's own
// work between its layer calls), in µs.
func (q *query) meanSelf(names ...string) float64 {
	var sum time.Duration
	n := 0
	for _, name := range names {
		q.each(name, phaseOps, func(i int, _ *span) { sum += q.self[i]; n++ })
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Span fields for query.sum.
func spanItems(s *span) int64 { return s.items }
func spanHits(s *span) int64  { return s.hits }
func spanHitsL(s *span) int64 { return s.hitsL }
func spanBytes(s *span) int64 { return s.bytes }
func spanFlag(s *span) int64 {
	if s.flag {
		return 1
	}
	return 0
}

package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records one trace: a tree of nested spans for a single
// query. A nil *Tracer is the disabled state — Start returns a nil
// *Span whose methods are no-ops, so instrumented code pays nothing
// (no allocations, no locking) when tracing is off.
//
// A tracer is safe for use from multiple goroutines, but the span
// stack is a single cursor: the intended use is one tracer per query
// evaluated on one goroutine.
type Tracer struct {
	mu   sync.Mutex
	root *Span
	cur  *Span
}

// NewTracer creates a tracer whose root span has the given name and
// starts now.
func NewTracer(name string) *Tracer {
	t := &Tracer{}
	t.root = &Span{Name: name, start: time.Now(), tracer: t}
	t.cur = t.root
	return t
}

type tracerKey struct{}

// WithTracer returns a context carrying tr (a nil ctx stands for
// context.Background()): the query evaluated under it records its
// spans on tr. The trace is a property of the request, so concurrent
// queries each carry their own.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom returns the tracer attached by WithTracer, or nil (the
// disabled, no-op tracer) when ctx is nil or carries none.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// postFinishStarts counts Start calls on a tracer whose trace already
// finished — an instrumentation bug (a goroutine outliving its query's
// bracket, or a tracer reused across queries). The span is dropped
// rather than silently grafted onto the sealed trace.
var postFinishStarts = Default.Counter("mogis_tracer_post_finish_starts_total",
	"span starts on an already-finished tracer (instrumentation bug; span dropped)")

// Start opens a child span of the innermost open span. Nil-safe: a
// nil tracer returns a nil span. Starting a span on a tracer whose
// Finish already ran is an error-counted no-op: the sealed trace is
// left untouched, postFinishStarts is incremented, and the returned
// nil span absorbs the caller's End/SetCount calls.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil { // after Finish: the trace is sealed
		postFinishStarts.Inc()
		return nil
	}
	s := &Span{Name: name, start: time.Now(), parent: t.cur, tracer: t}
	t.cur.Children = append(t.cur.Children, s)
	t.cur = s
	return s
}

// Root returns the root span (nil for a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends every still-open span including the root and returns
// the root.
func (t *Tracer) Finish() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.cur != nil {
		t.cur.end()
		t.cur = t.cur.parent
	}
	return t.root
}

// SpanCount is one named count recorded on a span (e.g. tuples
// produced by a stage).
type SpanCount struct {
	Key string
	N   int64
}

// Span is one timed stage of a trace.
type Span struct {
	Name     string
	Dur      time.Duration
	Counts   []SpanCount
	Events   []string // point-in-time markers (e.g. "cancel")
	Children []*Span

	start  time.Time
	parent *Span
	tracer *Tracer
	ended  bool
}

// End closes the span, recording its wall time and popping it off the
// tracer's span stack. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	s.end()
	// Pop to the nearest still-open ancestor so out-of-order ends
	// cannot wedge the cursor.
	if t.cur == s {
		t.cur = s.parent
	}
}

func (s *Span) end() {
	if !s.ended {
		s.ended = true
		s.Dur = time.Since(s.start)
	}
}

// SetCount records (or overwrites) a named count on the span.
// Nil-safe.
func (s *Span) SetCount(key string, n int64) {
	if s == nil {
		return
	}
	for i := range s.Counts {
		if s.Counts[i].Key == key {
			s.Counts[i].N = n
			return
		}
	}
	s.Counts = append(s.Counts, SpanCount{Key: key, N: n})
}

// AddCount adds n to a named count on the span. Nil-safe.
func (s *Span) AddCount(key string, n int64) {
	if s == nil {
		return
	}
	for i := range s.Counts {
		if s.Counts[i].Key == key {
			s.Counts[i].N += n
			return
		}
	}
	s.Counts = append(s.Counts, SpanCount{Key: key, N: n})
}

// AddEvent records a point-in-time marker on the span (rendered as
// {name} by Format). Nil-safe.
func (s *Span) AddEvent(name string) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, name)
}

// Event records a marker on the innermost open span — the tracer-level
// hook for paths that observe an event (a cancel, a budget abort)
// without holding the span that is current. Nil-safe.
func (t *Tracer) Event(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur
	if s == nil {
		s = t.root
	}
	s.Events = append(s.Events, name)
}

// Count returns the value of a named count (0 when absent). Nil-safe.
func (s *Span) Count(key string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counts {
		if c.Key == key {
			return c.N
		}
	}
	return 0
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Stages returns the span names of the subtree in depth-first
// pre-order — the stage sequence a test can assert against.
func (s *Span) Stages() []string {
	if s == nil {
		return nil
	}
	out := []string{s.Name}
	for _, c := range s.Children {
		out = append(out, c.Stages()...)
	}
	return out
}

// Format renders the span tree with per-stage timings and counts:
//
//	query                                 1.23ms
//	├─ parse                              12µs
//	└─ geo                                456µs  [predicates=2 bindings=4]
func (s *Span) Format() string {
	if s == nil {
		return ""
	}
	var sb strings.Builder
	s.format(&sb, "", "")
	return sb.String()
}

func (s *Span) format(sb *strings.Builder, prefix, childPrefix string) {
	label := prefix + s.Name
	fmt.Fprintf(sb, "%-40s %10s", label, formatDur(s.Dur))
	if len(s.Counts) > 0 {
		sb.WriteString("  [")
		for i, c := range s.Counts {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(sb, "%s=%d", c.Key, c.N)
		}
		sb.WriteByte(']')
	}
	for _, ev := range s.Events {
		fmt.Fprintf(sb, "  {%s}", ev)
	}
	sb.WriteByte('\n')
	for i, c := range s.Children {
		if i == len(s.Children)-1 {
			c.format(sb, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.format(sb, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// FormatExplain renders an EXPLAIN ANALYZE report: the span tree
// followed by the counter deltas observed while the trace ran. Zero
// deltas are elided except for the overlay and litCache cache
// counters, which the report always shows (they are the paper's
// Section-5 evaluation-strategy signal).
func FormatExplain(root *Span, delta []Sample) string {
	var sb strings.Builder
	sb.WriteString(root.Format())
	if len(delta) == 0 {
		return sb.String()
	}
	sb.WriteString("counters:\n")
	shown := make([]Sample, 0, len(delta))
	for _, d := range delta {
		if d.Value != 0 || strings.Contains(d.Name, "overlay_hits") ||
			strings.Contains(d.Name, "overlay_misses") || strings.Contains(d.Name, "litcache") {
			shown = append(shown, d)
		}
	}
	sort.Slice(shown, func(i, j int) bool { return shown[i].Name < shown[j].Name })
	for _, d := range shown {
		fmt.Fprintf(&sb, "  %-44s %+g\n", d.Name, d.Value)
	}
	return sb.String()
}

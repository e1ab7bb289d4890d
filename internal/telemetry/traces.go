package telemetry

import (
	"sync"
	"sync/atomic"

	"mogis/internal/obs"
)

// Sampled trace retention: instead of tracing every query (P8
// measured low-single-digit-percent span overhead, still unwanted at
// "millions of users" rates) the collector elects every Nth query for
// tracing. Finished trees land in a fixed-size recent ring; trees at
// or over the slow threshold are also pinned in a separate always-
// kept slow set, so the traces most worth post-mortem reading are the
// last to be evicted. /debug/traces/{id} renders them after the fact.

// TraceRecord is one retained span tree plus the query record it
// belongs to.
type TraceRecord struct {
	// ID is the process-unique trace id /debug/traces/{id} resolves.
	ID uint64
	// Query is the source text (Piet-QL) or op label that was traced.
	Query string
	Rec   QueryRecord
	Root  *obs.Span
}

// traceStore holds the recent ring and the slow set.
type traceStore struct {
	mu     sync.Mutex
	recent []TraceRecord
	rNext  int
	rFull  bool
	slow   []TraceRecord
	sNext  int
	sFull  bool
	nextID atomic.Uint64
}

func (t *traceStore) init(recent, slow int) {
	t.recent = make([]TraceRecord, recent)
	t.slow = make([]TraceRecord, slow)
}

// MaybeTrace returns a fresh tracer when sampling elects this query
// (every cfg.SampleEvery-th call), nil otherwise. The root span is
// named "query" — the same canonical root EXPLAIN ANALYZE uses, so
// retained trees render identically. The caller attaches the tracer
// to the query's own context (obs.WithTracer), so concurrent sampled
// queries each keep a tree of their own, and hands the finished tree
// back through RetainTrace. Nil-safe.
func (c *Collector) MaybeTrace() *obs.Tracer {
	if c == nil || c.cfg.SampleEvery <= 0 {
		return nil
	}
	if c.sampleSeq.Add(1)%uint64(c.cfg.SampleEvery) != 0 {
		return nil
	}
	return obs.NewTracer("query")
}

// RetainTrace finishes tr and stores its span tree in the recent ring
// (and, for slow or failed queries, the always-kept slow set).
// Returns the assigned trace id (0 when disabled or tr is nil).
func (c *Collector) RetainTrace(tr *obs.Tracer, rec QueryRecord, query string) uint64 {
	if c == nil || tr == nil {
		return 0
	}
	root := tr.Finish()
	if root == nil {
		return 0
	}
	c.traceTotal.Inc()
	t := &c.traces
	id := t.nextID.Add(1)
	trec := TraceRecord{ID: id, Query: query, Rec: rec, Root: root}
	t.mu.Lock()
	if t.recent[t.rNext].Root != nil {
		c.traceDropped.Inc()
	}
	t.recent[t.rNext] = trec
	t.rNext++
	if t.rNext == len(t.recent) {
		t.rNext, t.rFull = 0, true
	}
	if rec.Duration >= c.cfg.SlowThreshold || rec.Outcome != OutcomeOK {
		t.slow[t.sNext] = trec
		t.sNext++
		if t.sNext == len(t.slow) {
			t.sNext, t.sFull = 0, true
		}
	}
	t.mu.Unlock()
	return id
}

// TraceByID returns a retained trace (slow set first, then the
// recent ring). Nil-safe.
func (c *Collector) TraceByID(id uint64) (TraceRecord, bool) {
	if c == nil || id == 0 {
		return TraceRecord{}, false
	}
	t := &c.traces
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.slow {
		if t.slow[i].ID == id {
			return t.slow[i], true
		}
	}
	for i := range t.recent {
		if t.recent[i].ID == id {
			return t.recent[i], true
		}
	}
	return TraceRecord{}, false
}

// Traces lists the retained traces, newest first: the slow set when
// slow is true, else the recent ring. Nil-safe.
func (c *Collector) Traces(slow bool) []TraceRecord {
	if c == nil {
		return nil
	}
	t := &c.traces
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, next, full := t.recent, t.rNext, t.rFull
	if slow {
		buf, next, full = t.slow, t.sNext, t.sFull
	}
	n := next
	if full {
		n = len(buf)
	}
	out := make([]TraceRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, buf[(next-i+len(buf))%len(buf)])
	}
	return out
}

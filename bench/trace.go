package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/timedim"
	"mogis/internal/traj"
)

// Span names. The tree is http.roundtrip ⊃ server.handler ⊃ core.*;
// side spans (everything else) have no parent.
const (
	spanRoundtrip = "http.roundtrip"
	spanHandler   = "server.handler"
	spanHeader    = "X-Bench-Span"
)

// span is one timed interval, in nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"` // request path or op kind
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Only the harness
// records spans; the program under test is not instrumented.
type tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// ingest is the open /ingest handler span: InvalidateTrajectories
	// takes no context, so the decorator parents its span here. Ingest
	// requests are serialized by the load generator.
	ingest atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; a nil openSpan (tracing off) is inert.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) start(name string, parent uint64, note string) *openSpan {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &openSpan{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Name: name, Note: note,
		Start: int64(time.Since(t.epoch)),
	}}
}

func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// time records fn as a parentless side span and returns its duration.
func (t *tracer) time(name, note string, fn func()) time.Duration {
	sp := t.start(name, 0, note)
	begin := time.Now()
	fn()
	d := time.Since(begin)
	sp.end()
	return d
}

// since returns a copy of the spans recorded after the first n.
func (t *tracer) since(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

type spanKey struct{}

// middleware wraps the server's mux with the server.handler span,
// parented to the client's roundtrip span through the request header.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp := t.start(spanHandler, parent, r.URL.RequestURI())
		if sp == nil {
			next.ServeHTTP(w, r)
			return
		}
		if r.URL.Path == "/ingest" {
			t.ingest.Store(sp.id())
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp.id())))
		sp.end()
	})
}

// tracedEngine decorates the engine methods the Piet-QL pipeline and
// the ingest path call; every other method passes through.
type tracedEngine struct {
	core.Querier
	tr *tracer
}

func (e *tracedEngine) child(ctx context.Context, name string) *openSpan {
	parent, _ := ctx.Value(spanKey{}).(uint64)
	return e.tr.start(name, parent, "")
}

func (e *tracedEngine) Trajectories(ctx context.Context, table string) (map[moft.Oid]*traj.LIT, error) {
	sp := e.child(ctx, "core.Trajectories")
	defer sp.end()
	return e.Querier.Trajectories(ctx, table)
}

func (e *tracedEngine) ObjectsSampledInside(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error) {
	sp := e.child(ctx, "core.ObjectsSampledInside")
	defer sp.end()
	return e.Querier.ObjectsSampledInside(ctx, table, pg, iv)
}

func (e *tracedEngine) CountPassingThroughGeometries(ctx context.Context, table, layerName string, ids []layer.Gid, iv timedim.Interval) (int, error) {
	sp := e.child(ctx, "core.CountPassingThroughGeometries")
	defer sp.end()
	return e.Querier.CountPassingThroughGeometries(ctx, table, layerName, ids, iv)
}

func (e *tracedEngine) InvalidateTrajectories(table string) {
	sp := e.tr.start("core.InvalidateTrajectories", e.tr.ingest.Load(), "")
	defer sp.end()
	e.Querier.InvalidateTrajectories(table)
}

// spanTree indexes a finished trace.
type spanTree struct {
	byID     map[uint64]span
	children map[uint64][]span
}

func buildTree(spans []span) spanTree {
	t := spanTree{byID: make(map[uint64]span, len(spans)), children: make(map[uint64][]span)}
	for _, s := range spans {
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// selfTime is the span's duration minus the part of its interval its
// child spans cover (overlapping children are not counted twice, and a
// child is clipped to its parent).
func (t spanTree) selfTime(s span) time.Duration {
	kids := append([]span(nil), t.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, hi := int64(0), s.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, s.End)
		if end > lo {
			covered += end - lo
			hi = end
		}
	}
	return s.dur() - time.Duration(covered)
}

// outliving returns how many spans start before or end after their
// parent — zero in a well-formed trace.
func (t spanTree) outliving() int {
	n := 0
	for _, s := range t.byID {
		if p, ok := t.byID[s.Parent]; ok && (s.Start < p.Start || s.End > p.End) {
			n++
		}
	}
	return n
}

// writeSpans writes the trace as JSON lines under dir.
func writeSpans(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

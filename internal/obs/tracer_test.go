package obs

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNesting checks parent/child structure and sibling order:
// a(b(c), d) started and ended in the natural order.
func TestSpanNesting(t *testing.T) {
	tr := NewTracer("query")
	a := tr.Start("a")
	b := tr.Start("b")
	c := tr.Start("c")
	c.End()
	b.End()
	d := tr.Start("d")
	d.SetCount("tuples", 42)
	d.End()
	a.End()
	root := tr.Finish()

	want := []string{"query", "a", "b", "c", "d"}
	if got := root.Stages(); !reflect.DeepEqual(got, want) {
		t.Errorf("stages = %v, want %v", got, want)
	}
	if len(root.Children) != 1 || len(root.Children[0].Children) != 2 {
		t.Fatalf("tree shape wrong: %s", root.Format())
	}
	if root.Children[0].Children[0].Name != "b" || root.Children[0].Children[1].Name != "d" {
		t.Errorf("sibling order wrong: %s", root.Format())
	}
	if root.Find("c") == nil || root.Find("c").parent.Name != "b" {
		t.Errorf("c not nested under b: %s", root.Format())
	}
	if root.Find("d").Count("tuples") != 42 {
		t.Errorf("count lost: %v", root.Find("d").Counts)
	}
	for _, name := range want {
		if root.Find(name).Dur < 0 {
			t.Errorf("span %s has negative duration", name)
		}
	}
}

// TestOutOfOrderEnd verifies ending a parent before its child cannot
// wedge the cursor: the next Start still attaches somewhere valid.
func TestOutOfOrderEnd(t *testing.T) {
	tr := NewTracer("query")
	a := tr.Start("a")
	b := tr.Start("b")
	a.End() // out of order: b is still open
	b.End()
	s := tr.Start("after")
	s.End()
	root := tr.Finish()
	if root.Find("after") == nil {
		t.Errorf("tracer lost spans after out-of-order end: %s", root.Format())
	}
}

// TestStartAfterFinish: a finished trace is sealed. Starting a span on
// it must not graft anything onto the tree (the old behavior silently
// reattached to the root, corrupting retained traces); instead the
// call is an error-counted no-op returning a nil span.
func TestStartAfterFinish(t *testing.T) {
	tr := NewTracer("query")
	tr.Start("early").End()
	tr.Finish()

	before := postFinishStarts.Value()
	s := tr.Start("late")
	if s != nil {
		t.Errorf("Start after Finish returned %v, want nil", s)
	}
	s.End()            // nil-safe
	s.SetCount("x", 1) // nil-safe
	if got := postFinishStarts.Value(); got != before+1 {
		t.Errorf("postFinishStarts = %d, want %d", got, before+1)
	}
	if tr.Root().Find("late") != nil {
		t.Errorf("sealed trace grew a span: %s", tr.Root().Format())
	}
	want := []string{"query", "early"}
	if got := tr.Root().Stages(); !reflect.DeepEqual(got, want) {
		t.Errorf("stages = %v, want %v", got, want)
	}
	// Finish stays idempotent after the rejected Start.
	if tr.Finish() != tr.Root() {
		t.Error("Finish no longer returns the root")
	}
}

// budgetKey stands in for the engine's budget value (core.WithBudget),
// which rides in the same context chain as a trace would.
type budgetKey struct{}

// TestNilTracerZeroAlloc: the whole point of the nil-tracer disabled
// state is that instrumented code allocates nothing when tracing is
// off — including looking the (absent) tracer up in the query's
// context, whatever else that context carries.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("stage")
		sp.SetCount("tuples", 1)
		sp.AddCount("tuples", 1)
		sp.End()
		tr.Root().Find("x")
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocated %.1f times per op, want 0", allocs)
	}

	dl, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for name, ctx := range map[string]context.Context{
		"background":      context.Background(),
		"deadline+budget": context.WithValue(dl, budgetKey{}, struct{ MaxRows int64 }{1 << 20}),
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			sp := TracerFrom(ctx).Start("stage")
			sp.SetCount("tuples", 1)
			sp.End()
		})
		if allocs != 0 {
			t.Errorf("%s: span from an untraced context allocated %.1f times per op, want 0", name, allocs)
		}
	}
}

// TestTracerFromContext: WithTracer attaches a tracer that TracerFrom
// finds through any later context layers; a context without one (or a
// nil context) yields the nil, disabled tracer.
func TestTracerFromContext(t *testing.T) {
	//nolint:staticcheck // deliberately nil: a nil context is untraced
	if TracerFrom(nil) != nil || TracerFrom(context.Background()) != nil {
		t.Fatal("untraced context returned a tracer")
	}
	tr := NewTracer("query")
	ctx, cancel := context.WithCancel(WithTracer(context.Background(), tr))
	defer cancel()
	if got := TracerFrom(context.WithValue(ctx, budgetKey{}, 1)); got != tr {
		t.Fatalf("TracerFrom = %p, want %p", got, tr)
	}
}

func TestFormatAndExplain(t *testing.T) {
	tr := NewTracer("query")
	g := tr.Start("geo")
	g.SetCount("predicates", 2)
	g.End()
	root := tr.Finish()

	out := FormatExplain(root, []Sample{
		{Name: "mogis_overlay_hits_total", Value: 0},
		{Name: "mogis_geom_clip_total", Value: 0}, // zero and not cache-related: elided
		{Name: "mogis_moft_tuples_scanned_total", Value: 12},
	})
	for _, want := range []string{"query", "└─ geo", "[predicates=2]", "counters:",
		"mogis_overlay_hits_total", "mogis_moft_tuples_scanned_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "mogis_geom_clip_total") {
		t.Errorf("zero non-cache counter should be elided:\n%s", out)
	}
}

// TestSpanEvents: point-in-time markers (the engine's "cancel"
// signal) attach to the innermost open span and render in Format.
func TestSpanEvents(t *testing.T) {
	tr := NewTracer("query")
	sp := tr.Start("scan")
	tr.Event("cancel") // lands on the open scan span
	sp.End()
	tr.Event("late") // no open child: lands on the root
	root := tr.Finish()

	scan := root.Find("scan")
	if len(scan.Events) != 1 || scan.Events[0] != "cancel" {
		t.Errorf("scan events = %v, want [cancel]", scan.Events)
	}
	if len(root.Events) != 1 || root.Events[0] != "late" {
		t.Errorf("root events = %v, want [late]", root.Events)
	}
	out := root.Format()
	if !strings.Contains(out, "{cancel}") || !strings.Contains(out, "{late}") {
		t.Errorf("Format missing event markers:\n%s", out)
	}

	var nilTr *Tracer
	nilTr.Event("x") // nil-safe
	var nilSp *Span
	nilSp.AddEvent("x") // nil-safe
}

// TestTracerConcurrent hammers one tracer from many goroutines under
// the race detector: the span cursor is documented as a single stack,
// but Start/End/Event/Finish must still be data-race-free when a
// query's fan-out workers share the tracer.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer("query")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("stage")
				sp.SetCount("tuples", int64(i))
				sp.AddCount("tuples", 1)
				tr.Event("tick")
				sp.End()
			}
		}()
	}
	wg.Wait()
	root := tr.Finish()
	if root == nil || root.Name != "query" {
		t.Fatalf("root lost after concurrent use: %v", root)
	}
	if n := len(root.Stages()); n < 8*200 {
		t.Errorf("stages = %d, want >= %d", n, 8*200)
	}
}

// TestFormatExplainGolden pins the exact EXPLAIN ANALYZE rendering:
// tools and transcripts (README, the pietql CLI) depend on this byte
// layout, so a drift must be a conscious decision. Durations are set
// directly so the output is reproducible.
func TestFormatExplainGolden(t *testing.T) {
	geo := &Span{
		Name:   "geo",
		Dur:    456 * time.Microsecond,
		Counts: []SpanCount{{Key: "predicates", N: 2}, {Key: "ids", N: 4}},
	}
	geo.Children = []*Span{{Name: "overlay_lookup", Dur: 31500 * time.Nanosecond,
		Counts: []SpanCount{{Key: "bindings", N: 4}}}}
	mo := &Span{Name: "mo", Dur: 1230 * time.Microsecond,
		Counts: []SpanCount{{Key: "objects", N: 7}}, Events: []string{"cancel"}}
	root := &Span{
		Name:     "query",
		Dur:      2 * time.Millisecond,
		Children: []*Span{{Name: "parse", Dur: 12 * time.Microsecond}, geo, mo},
	}
	out := FormatExplain(root, []Sample{
		{Name: "mogis_overlay_hits_total", Value: 3},
		{Name: "mogis_litcache_hits_total", Value: 0},
		{Name: "mogis_geom_clip_total", Value: 0}, // elided
		{Name: "mogis_moft_tuples_scanned_total", Value: 1200},
	})
	want := "" +
		"query                                        2.00ms\n" +
		"├─ parse                                     12.0µs\n" +
		"├─ geo                                      456.0µs  [predicates=2 ids=4]\n" +
		"│  └─ overlay_lookup                         31.5µs  [bindings=4]\n" +
		"└─ mo                                        1.23ms  [objects=7]  {cancel}\n" +
		"counters:\n" +
		"  mogis_litcache_hits_total                    +0\n" +
		"  mogis_moft_tuples_scanned_total              +1200\n" +
		"  mogis_overlay_hits_total                     +3\n"
	if out != want {
		t.Errorf("FormatExplain drifted from the golden rendering.\ngot:\n%s\nwant:\n%s", out, want)
	}
}

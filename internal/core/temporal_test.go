package core_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/timedim"
)

// randomQueryPolygon draws a convex polygon around a center point, the
// region half of the fuzzed region×interval queries.
func randomQueryPolygon(rng *rand.Rand, center geom.Point, radius float64) geom.Polygon {
	n := 3 + rng.Intn(5)
	pts := make([]geom.Point, n)
	for i := range pts {
		r := radius * (0.2 + rng.Float64())
		pts[i] = geom.Pt(center.X+(rng.Float64()*2-1)*r, center.Y+(rng.Float64()*2-1)*r)
	}
	cx, cy := 0.0, 0.0
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	cx /= float64(n)
	cy /= float64(n)
	sort.Slice(pts, func(i, j int) bool {
		return math.Atan2(pts[i].Y-cy, pts[i].X-cx) < math.Atan2(pts[j].Y-cy, pts[j].X-cx)
	})
	return geom.Polygon{Shell: geom.Ring(pts)}
}

// randomQueryWindow draws the interval half: narrow windows, instants,
// vacuous spans, and windows hanging off either end of the extent.
func randomQueryWindow(rng *rand.Rand, lo, hi timedim.Instant) timedim.Interval {
	span := int64(hi - lo)
	switch rng.Intn(8) {
	case 0:
		t := lo + timedim.Instant(rng.Int63n(span+1))
		return timedim.Interval{Lo: t, Hi: t}
	case 1:
		return timedim.Interval{Lo: lo - 100, Hi: hi + 100}
	case 2:
		return timedim.Interval{Lo: hi + 1, Hi: hi + 500}
	default:
		a := int64(lo) + rng.Int63n(span+1)
		b := a + rng.Int63n(span/4+1)
		return timedim.Interval{Lo: timedim.Instant(a), Hi: timedim.Instant(b)}
	}
}

// regionInterval is one fuzzed region×interval query.
type regionInterval struct {
	pg geom.Polygon
	iv timedim.Interval
}

// randomRegionIntervals draws n queries around the workload's center.
func randomRegionIntervals(rng *rand.Rand, w *robustWorkload, lo, hi timedim.Instant, n int) []regionInterval {
	qs := make([]regionInterval, n)
	for i := range qs {
		qs[i] = regionInterval{
			pg: randomQueryPolygon(rng, w.center, w.radius*2),
			iv: randomQueryWindow(rng, lo, hi),
		}
	}
	return qs
}

// regionAnswer is one query's CountSamplesInside /
// ObjectsSampledInside / ObjectsPassingThrough answer.
type regionAnswer struct {
	count   int
	sampled []moft.Oid
	passing []moft.Oid
}

// regionAnswers runs every query on q.
func regionAnswers(t *testing.T, q core.Querier, qs []regionInterval) []regionAnswer {
	t.Helper()
	out := make([]regionAnswer, len(qs))
	for i, qq := range qs {
		n, err := q.CountSamplesInside(context.Background(), "FM", qq.pg, qq.iv)
		if err != nil {
			t.Fatalf("CountSamplesInside: %v", err)
		}
		s, err := q.ObjectsSampledInside(context.Background(), "FM", qq.pg, qq.iv)
		if err != nil {
			t.Fatalf("ObjectsSampledInside: %v", err)
		}
		p, err := q.ObjectsPassingThrough(context.Background(), "FM", qq.pg, qq.iv)
		if err != nil {
			t.Fatalf("ObjectsPassingThrough: %v", err)
		}
		out[i] = regionAnswer{count: n, sampled: s, passing: p}
	}
	return out
}

// TestTemporalFuzz fuzzes region×interval queries through the engine
// with the grid and its adaptive temporal index on: every answer must
// be reflect.DeepEqual to the scan-path oracle, the same engine with
// the grid off. Forced and disabled bucket counts are swept at the
// grid's own layer (agggrid's temporal tests).
func TestTemporalFuzz(t *testing.T) {
	w, fm := newFuzzFixture(t, 21)
	lo, hi, _ := fm.TimeSpan()
	queries := randomRegionIntervals(rand.New(rand.NewSource(33)), w, lo, hi, 12)

	w.eng.SetAggGrid(-1)
	w.eng.ResetCache()
	oracle := regionAnswers(t, w.eng, queries)
	w.eng.SetAggGrid(0)
	w.eng.ResetCache()
	if got := regionAnswers(t, w.eng, queries); !reflect.DeepEqual(got, oracle) {
		t.Error("adaptive temporal index diverged from scan oracle")
	}
}

// TestTemporalVerifyMode checks the temporal-index paths against a
// second engine with the grid off, query by query
// (reflect.DeepEqual), while the index is demonstrably used.
func TestTemporalVerifyMode(t *testing.T) {
	w, fm := newFuzzFixture(t, 55)
	lo, hi, _ := fm.TimeSpan()
	queries := randomRegionIntervals(rand.New(rand.NewSource(56)), w, lo, hi, 20)
	scan := scanEngine(w.eng)
	for i, q := range queries {
		qs := queries[i : i+1]
		if got, want := regionAnswers(t, w.eng, qs), regionAnswers(t, scan, qs); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d (window %v): grid engine %+v, scan engine %+v", i, q.iv, got, want)
		}
	}
	if w.met.AggGridTemporalQueries.Value() == 0 {
		t.Fatal("temporal index never engaged during the sweep")
	}
}

// TestTemporalPrefilterPassingThrough checks the ObjectsPassingThrough
// time prefilter: an interval disjoint from the table's sample extent
// answers empty without building trajectories, counts an
// AggGridTimeSkips, and agrees with a grid-off engine's full path.
func TestTemporalPrefilterPassingThrough(t *testing.T) {
	w, fm := newFuzzFixture(t, 77)
	_, hi, _ := fm.TimeSpan()
	off := timedim.Interval{Lo: hi + 100, Hi: hi + 200}

	before := w.met.AggGridTimeSkips.Value()
	got, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, off)
	if err != nil {
		t.Fatalf("ObjectsPassingThrough: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("off-extent window returned %v", got)
	}
	if d := w.met.AggGridTimeSkips.Value() - before; d != 1 {
		t.Errorf("AggGridTimeSkips delta = %d, want 1", d)
	}

	// A grid-off engine runs the full path and must agree exactly.
	want, err := scanEngine(w.eng).ObjectsPassingThrough(context.Background(), "FM", w.pg, off)
	if err != nil {
		t.Fatalf("scan engine ObjectsPassingThrough: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("time-skip answer %#v, full path %#v", got, want)
	}

	// With the grid disabled the prefilter must stand down and the
	// full path still answer identically.
	w.eng.SetAggGrid(-1)
	before = w.met.AggGridTimeSkips.Value()
	got, err = w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, off)
	w.eng.SetAggGrid(0)
	if err != nil {
		t.Fatalf("scan ObjectsPassingThrough: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("scan path off-extent window returned %v", got)
	}
	if d := w.met.AggGridTimeSkips.Value() - before; d != 0 {
		t.Errorf("prefilter engaged with the grid disabled (delta %d)", d)
	}
}

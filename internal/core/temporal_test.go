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

// TestTemporalFuzz fuzzes region×interval queries through the engine
// across time-bucket configs (forced 1/16/256, adaptive, disabled):
// every CountSamplesInside / ObjectsSampledInside /
// ObjectsPassingThrough answer must be reflect.DeepEqual to the
// scan-path oracle.
func TestTemporalFuzz(t *testing.T) {
	w, fm := newFuzzFixture(t, 21)
	lo, hi, _ := fm.TimeSpan()
	rng := rand.New(rand.NewSource(33))

	type query struct {
		pg geom.Polygon
		iv timedim.Interval
	}
	queries := make([]query, 12)
	for i := range queries {
		queries[i] = query{
			pg: randomQueryPolygon(rng, w.center, w.radius*2),
			iv: randomQueryWindow(rng, lo, hi),
		}
	}
	type answer struct {
		count   int
		sampled []moft.Oid
		passing []moft.Oid
	}
	run := func(q core.Querier) ([]answer, error) {
		out := make([]answer, len(queries))
		for i, qq := range queries {
			n, err := q.CountSamplesInside(context.Background(), "FM", qq.pg, qq.iv)
			if err != nil {
				return nil, err
			}
			s, err := q.ObjectsSampledInside(context.Background(), "FM", qq.pg, qq.iv)
			if err != nil {
				return nil, err
			}
			p, err := q.ObjectsPassingThrough(context.Background(), "FM", qq.pg, qq.iv)
			if err != nil {
				return nil, err
			}
			out[i] = answer{count: n, sampled: s, passing: p}
		}
		return out, nil
	}

	w.eng.SetAggGrid(-1)
	w.eng.ResetCache()
	oracle, err := run(w.eng)
	if err != nil {
		t.Fatalf("oracle sweep: %v", err)
	}
	w.eng.SetAggGrid(0)

	for _, buckets := range []int{1, 16, 256, 0, -1} {
		w.eng.SetTimeBuckets(buckets)
		w.eng.ResetCache()
		got, err := run(w.eng)
		if err != nil {
			t.Fatalf("buckets %d: %v", buckets, err)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Errorf("buckets %d diverged from scan oracle", buckets)
		}
	}
	w.eng.SetTimeBuckets(0)
	w.eng.ResetCache()
}

// TestTemporalVerifyMode runs the fuzz shapes under SetGridVerify: the
// bit-identity gate must hold on the temporal-index paths (zero
// AggGridMismatches) while the index is demonstrably used.
func TestTemporalVerifyMode(t *testing.T) {
	w, fm := newFuzzFixture(t, 55)
	lo, hi, _ := fm.TimeSpan()
	rng := rand.New(rand.NewSource(56))
	w.eng.SetGridVerify(true)
	defer w.eng.SetGridVerify(false)
	for i := 0; i < 20; i++ {
		pg := randomQueryPolygon(rng, w.center, w.radius*2)
		iv := randomQueryWindow(rng, lo, hi)
		if _, err := w.eng.CountSamplesInside(context.Background(), "FM", pg, iv); err != nil {
			t.Fatalf("CountSamplesInside: %v", err)
		}
		if _, err := w.eng.ObjectsSampledInside(context.Background(), "FM", pg, iv); err != nil {
			t.Fatalf("ObjectsSampledInside: %v", err)
		}
		if _, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", pg, iv); err != nil {
			t.Fatalf("ObjectsPassingThrough: %v", err)
		}
	}
	if n := w.met.AggGridMismatches.Value(); n != 0 {
		t.Fatalf("verify mode found %d grid/scan mismatches", n)
	}
	if w.met.AggGridTemporalQueries.Value() == 0 {
		t.Fatal("temporal index never engaged during the verify sweep")
	}
}

// TestTemporalPrefilterPassingThrough checks the ObjectsPassingThrough
// time prefilter: an interval disjoint from the table's sample extent
// answers empty without building trajectories, counts an
// AggGridTimeSkips, and verify mode agrees with the full path.
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

	// Verify mode still runs the full path and must agree.
	w.eng.SetGridVerify(true)
	got, err = w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, off)
	w.eng.SetGridVerify(false)
	if err != nil {
		t.Fatalf("verify ObjectsPassingThrough: %v", err)
	}
	if len(got) != 0 || w.met.AggGridMismatches.Value() != 0 {
		t.Fatalf("verify mode diverged: got %v, mismatches %d", got, w.met.AggGridMismatches.Value())
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

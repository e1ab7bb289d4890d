package agggrid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/timedim"
)

// randomConvexPolygon builds a convex polygon from random points in
// [0,100]² (vertices sorted by angle around their centroid), so Cover
// classification and point-in-polygon agree for any vertex draw.
func randomConvexPolygon(rng *rand.Rand) geom.Polygon {
	n := 3 + rng.Intn(5)
	pts := make([]geom.Point, n)
	var cx, cy float64
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		cx += pts[i].X
		cy += pts[i].Y
	}
	cx /= float64(n)
	cy /= float64(n)
	sort.Slice(pts, func(i, j int) bool {
		return math.Atan2(pts[i].Y-cy, pts[i].X-cx) < math.Atan2(pts[j].Y-cy, pts[j].X-cx)
	})
	return geom.Polygon{Shell: geom.Ring(pts)}
}

// fuzzWindow draws a query window: mostly random sub-intervals of the
// extent (with slack past both ends), sprinkled with degenerate shapes
// — instants, inverted windows, and windows entirely off the extent.
func fuzzWindow(rng *rand.Rand, lo, hi int64) (int64, int64) {
	span := hi - lo
	switch rng.Intn(10) {
	case 0: // instant
		t := lo + rng.Int63n(span+1)
		return t, t
	case 1: // inverted: must answer empty
		t := lo + rng.Int63n(span+1)
		return t + 1 + rng.Int63n(100), t
	case 2: // entirely before the extent
		return lo - 500, lo - 1 - rng.Int63n(100)
	case 3: // entirely after the extent
		return hi + 1 + rng.Int63n(100), hi + 500
	case 4: // vacuous with slack
		return lo - rng.Int63n(200), hi + rng.Int63n(200)
	default:
		a := lo - 100 + rng.Int63n(span+200)
		b := lo - 100 + rng.Int63n(span+200)
		if a > b {
			a, b = b, a
		}
		return a, b
	}
}

// TestTemporalFuzzIdentity is the satellite fuzz gate: random convex
// polygons × random windows (including instants, inverted, vacuous and
// off-extent windows) across forced bucket counts 1, 16 and 256, the
// adaptive default, and an asymmetric grid — every answer must match
// the naive full scan exactly.
func TestTemporalFuzzIdentity(t *testing.T) {
	tbl := randomTable(t, 40, 60, 7)
	cols := tbl.Columns()
	lo, hi, _ := cols.TimeSpan()
	configs := []Config{
		{timeBuckets: 1},
		{timeBuckets: 16},
		{timeBuckets: 256},
		{timeBuckets: 0}, // adaptive
		{NX: 5, NY: 3, timeBuckets: 16},
		{timeBuckets: 16, WindowHint: int64(hi-lo) / 32},
	}
	rng := rand.New(rand.NewSource(7))
	for ci, cfg := range configs {
		g := Build(cols, cfg)
		if cfg.timeBuckets > 0 && g.TimeBuckets() != cfg.timeBuckets {
			t.Errorf("config %d: TimeBuckets() = %d, want forced %d", ci, g.TimeBuckets(), cfg.timeBuckets)
		}
		for trial := 0; trial < 40; trial++ {
			pg := randomConvexPolygon(rng)
			wlo, whi := fuzzWindow(rng, int64(lo), int64(hi))
			wantN := naiveCount(cols, pg, wlo, whi)
			if gotN := g.CountSamples(pg, wlo, whi, nil); gotN != wantN {
				t.Fatalf("config %d trial %d [%d,%d]: CountSamples = %d, naive = %d",
					ci, trial, wlo, whi, gotN, wantN)
			}
			wantO := naiveObjects(cols, pg, wlo, whi)
			if gotO := g.ObjectsSampled(pg, wlo, whi, nil); !eqOids(gotO, wantO) {
				t.Fatalf("config %d trial %d [%d,%d]: ObjectsSampled = %v, naive = %v",
					ci, trial, wlo, whi, gotO, wantO)
			}
		}
	}

	// Degenerate non-empty tables, sized adaptively: the readers take
	// the temporal path for every non-vacuous window, so every such
	// grid must carry at least one bucket and still match the scan.
	row, instant, point := moft.New("FMrow"), moft.New("FMinstant"), moft.New("FMpoint")
	row.Add(1, 30, 50, 50)
	for o := 0; o < 20; o++ {
		instant.Add(moft.Oid(o+1), 30, rng.Float64()*100, rng.Float64()*100)
		for s := 0; s < 5; s++ {
			point.Add(moft.Oid(o+1), timedim.Instant(s*10+o), 50, 50)
		}
	}
	for _, d := range []struct {
		name string
		tbl  *moft.Table
	}{{"one row", row}, {"one instant", instant}, {"one point", point}} {
		name, cols := d.name, d.tbl.Columns()
		lo, hi, _ := cols.TimeSpan()
		g := Build(cols, Config{})
		if g.TimeBuckets() < 1 {
			t.Fatalf("%s: TimeBuckets() = %d, want >= 1", name, g.TimeBuckets())
		}
		pgs := []geom.Polygon{testPolygons()["all"], testPolygons()["concave"]}
		for trial := 0; trial < 40; trial++ {
			pgs = append(pgs, randomConvexPolygon(rng))
		}
		for _, pg := range pgs {
			for w := 0; w < 8; w++ {
				wlo, whi := fuzzWindow(rng, int64(lo), int64(hi))
				if gotN, wantN := g.CountSamples(pg, wlo, whi, nil), naiveCount(cols, pg, wlo, whi); gotN != wantN {
					t.Fatalf("%s [%d,%d]: CountSamples = %d, naive = %d", name, wlo, whi, gotN, wantN)
				}
				if gotO, wantO := g.ObjectsSampled(pg, wlo, whi, nil), naiveObjects(cols, pg, wlo, whi); !eqOids(gotO, wantO) {
					t.Fatalf("%s [%d,%d]: ObjectsSampled = %v, naive = %v", name, wlo, whi, gotO, wantO)
				}
			}
		}
	}
}

// TestTemporalBucketBoundaries pins the windows the prefix-sum
// subtraction is most likely to get wrong: instants and window edges
// exactly on, one before, and one after each bucket boundary, plus the
// extent edges themselves (the timeVacuous cutoffs).
func TestTemporalBucketBoundaries(t *testing.T) {
	tbl := randomTable(t, 25, 40, 11)
	cols := tbl.Columns()
	lo, hi, _ := cols.TimeSpan()
	pg := testPolygons()["concave"]
	for _, nb := range []int{1, 3, 16} {
		g := Build(cols, Config{timeBuckets: nb})
		if g.TimeBuckets() != nb {
			t.Fatalf("TimeBuckets() = %d, want %d", g.TimeBuckets(), nb)
		}
		var edges []int64
		for b := 0; b <= nb; b++ {
			e := int64(lo) + int64(b)*g.bktW
			edges = append(edges, e-1, e, e+1)
		}
		edges = append(edges, int64(lo), int64(lo)-1, int64(hi), int64(hi)+1)
		for _, wlo := range edges {
			for _, whi := range edges {
				wantN := naiveCount(cols, pg, wlo, whi)
				if gotN := g.CountSamples(pg, wlo, whi, nil); gotN != wantN {
					t.Fatalf("nb=%d [%d,%d]: CountSamples = %d, naive = %d", nb, wlo, whi, gotN, wantN)
				}
				wantO := naiveObjects(cols, pg, wlo, whi)
				if gotO := g.ObjectsSampled(pg, wlo, whi, nil); !eqOids(gotO, wantO) {
					t.Fatalf("nb=%d [%d,%d]: ObjectsSampled diverged", nb, wlo, whi)
				}
			}
		}
	}
}

// TestTemporalAdaptiveSizing checks the auto knob: a telemetry-derived
// window hint must never shrink the density-seeded bucket count, a
// narrow hint must refine it, and the empty table builds no index.
func TestTemporalAdaptiveSizing(t *testing.T) {
	tbl := randomTable(t, 50, 80, 13)
	cols := tbl.Columns()
	lo, hi, _ := cols.TimeSpan()
	span := int64(hi - lo)

	auto := Build(cols, Config{})
	if auto.TimeBuckets() <= 0 {
		t.Fatalf("adaptive build produced no temporal index (TimeBuckets = %d)", auto.TimeBuckets())
	}
	hinted := Build(cols, Config{WindowHint: span / 64})
	if hinted.TimeBuckets() < auto.TimeBuckets() {
		t.Errorf("narrow window hint shrank the bucket count: %d < %d",
			hinted.TimeBuckets(), auto.TimeBuckets())
	}
	if hinted.TimeBuckets() > maxTimeBuckets {
		t.Errorf("bucket count %d exceeds the cap %d", hinted.TimeBuckets(), maxTimeBuckets)
	}

	empty := Build(moft.New("FMempty").Columns(), Config{})
	if empty.TimeBuckets() != 0 {
		t.Errorf("empty table built %d buckets, want none", empty.TimeBuckets())
	}

	// Single-instant table: zero time span must still build and answer.
	one := moft.New("FMone")
	one.Add(1, 42, 5, 5)
	one.Add(2, 42, 6, 6)
	g := Build(one.Columns(), Config{timeBuckets: 8})
	sq := geom.Polygon{Shell: geom.Ring{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}}
	if got := g.CountSamples(sq, 42, 42, nil); got != 2 {
		t.Errorf("single-instant CountSamples = %d, want 2", got)
	}
	if got := g.CountSamples(sq, 43, 100, nil); got != 0 {
		t.Errorf("off-instant CountSamples = %d, want 0", got)
	}
}

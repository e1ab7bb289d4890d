package geom_test

import (
	"math"
	"testing"

	"mogis/internal/agggrid"
	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/timedim"
)

// FuzzPointInPolygon cross-checks Polygon.ContainsPoint against the
// pre-aggregated grid's sample count — the same identity the engine
// tests assert between a grid engine and a scan engine. A fuzzed
// triangle and a handful of fuzzed samples go through both paths: a
// brute-force ContainsPoint scan and agggrid's interior/boundary cell
// classification with exact refinement, over the whole time extent
// and over a window inside it. Any divergence is a soundness bug in
// one of the two.
func FuzzPointInPolygon(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 5.0, 8.0, 2.0, 2.0, 9.0, 9.0)
	f.Add(-3.0, -3.0, 3.0, -3.0, 0.0, 4.0, 0.0, 0.0, 0.0, 4.0)
	f.Add(1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.5, 1.2, 1.0, 1.5)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, p1x, p1y, p2x, p2y float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, p1x, p1y, p2x, p2y} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				t.Skip("non-finite or out-of-range input")
			}
		}
		pg := geom.Polygon{Shell: geom.Ring{
			geom.Pt(ax, ay), geom.Pt(bx, by), geom.Pt(cx, cy),
		}}
		if pg.Validate() != nil {
			t.Skip("degenerate polygon")
		}

		tb := moft.New("fuzz")
		samples := []geom.Point{
			geom.Pt(p1x, p1y), geom.Pt(p2x, p2y),
			geom.Pt(ax, ay),               // a shell vertex: boundary semantics
			geom.Pt((ax+bx)/2, (ay+by)/2), // an edge midpoint
		}
		for i, p := range samples {
			tb.Add(moft.Oid(i+1), timedim.Instant(i), p.X, p.Y)
		}
		cols := tb.Columns()

		// Sample i is at instant i: the vacuous window answers from the
		// cell pre-aggregates, the window [1, 2] through the temporal
		// index.
		want, want12 := 0, 0
		for i, p := range samples {
			if pg.ContainsPoint(p) {
				want++
				if i == 1 || i == 2 {
					want12++
				}
			}
		}
		for _, cfg := range []agggrid.Config{{}, {NX: 2, NY: 2}, {NX: 16, NY: 16}} {
			g := agggrid.Build(cols, cfg)
			if got := g.CountSamples(pg, math.MinInt64, math.MaxInt64, nil); got != want {
				t.Fatalf("grid %v: CountSamples = %d, ContainsPoint scan = %d (polygon %v, samples %v)",
					cfg, got, want, pg.Shell, samples)
			}
			if got := g.CountSamples(pg, 1, 2, nil); got != want12 {
				t.Fatalf("grid %v: CountSamples over [1, 2] = %d, ContainsPoint scan = %d (polygon %v, samples %v)",
					cfg, got, want12, pg.Shell, samples)
			}
		}
	})
}

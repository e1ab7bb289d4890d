package core_test

import (
	"context"
	"reflect"
	"testing"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/scenario"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// gridWorkload builds a generated-city engine with isolated metrics.
func gridWorkload(objects int) (*workload.City, *moft.Table, *core.Engine, *obs.Metrics) {
	city := workload.GenCity(workload.CityConfig{Seed: 42, Cols: 6, Rows: 6})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed: 42, Objects: objects, Samples: 60, Step: 60, Speed: 3,
	})
	_, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	return city, fm, eng, met
}

// TestGridAcceleratedIdentity: every sample-query entry point returns
// the same answer with the grid enabled and disabled, on one engine
// switched between the two and on two engines side by side, over the
// generated-city neighborhoods and several time windows.
func TestGridAcceleratedIdentity(t *testing.T) {
	city, fm, eng, met := gridWorkload(120)
	lo, hi, _ := fm.TimeSpan()
	windows := []timedim.Interval{
		{Lo: lo, Hi: hi},               // vacuous: pre-aggregates answer interior cells
		{Lo: lo + 600, Hi: hi - 600},   // partial
		{Lo: lo + 1200, Hi: lo + 1200}, // instant
		{Lo: hi + 1000, Hi: hi + 2000}, // empty
	}
	var polys []geom.Polygon
	for _, id := range city.LowIncomeIDs {
		pg, _ := city.Ln.Polygon(id)
		polys = append(polys, pg)
	}
	if len(polys) == 0 {
		t.Fatal("city has no low-income polygons")
	}

	for wi, w := range windows {
		for pi, pg := range polys {
			eng.SetAggGrid(-1)
			slowN, err := eng.CountSamplesInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			slowO, err := eng.ObjectsSampledInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			slowAt, err := eng.ObjectsSampledAt(context.Background(), "FM", w.Lo, pg)
			if err != nil {
				t.Fatal(err)
			}

			eng.SetAggGrid(0)
			fastN, err := eng.CountSamplesInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			fastO, err := eng.ObjectsSampledInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			fastAt, err := eng.ObjectsSampledAt(context.Background(), "FM", w.Lo, pg)
			if err != nil {
				t.Fatal(err)
			}

			if fastN != slowN {
				t.Errorf("window %d poly %d: CountSamplesInside grid=%d scan=%d", wi, pi, fastN, slowN)
			}
			if !eqOids(fastO, slowO) {
				t.Errorf("window %d poly %d: ObjectsSampledInside grid=%v scan=%v", wi, pi, fastO, slowO)
			}
			if !eqOids(fastAt, slowAt) {
				t.Errorf("window %d poly %d: ObjectsSampledAt grid=%v scan=%v", wi, pi, fastAt, slowAt)
			}
		}
	}
	if met.AggGridInteriorCells.Value() == 0 {
		t.Error("grid never aggregated an interior cell")
	}
	if met.AggGridBuilds.Value() != 1 {
		t.Errorf("grid built %d times, want 1 (single-flight)", met.AggGridBuilds.Value())
	}

	// A second engine with the grid off answers every shape exactly
	// (reflect.DeepEqual: nil and empty differ) like the grid engine.
	scan := scanEngine(eng)
	eng.SetAggGrid(0)
	for wi, w := range windows {
		for pi, pg := range polys {
			gotN, err := eng.CountSamplesInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			wantN, err := scan.CountSamplesInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			gotO, err := eng.ObjectsSampledInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			wantO, err := scan.ObjectsSampledInside(context.Background(), "FM", pg, w)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN || !reflect.DeepEqual(gotO, wantO) {
				t.Errorf("window %d poly %d: grid engine (%d, %#v), scan engine (%d, %#v)", wi, pi, gotN, gotO, wantN, wantO)
			}
		}
	}
}

// TestGridInvalidation: mutating the MOFT and invalidating rebuilds
// the grid, and fresh samples are visible.
func TestGridInvalidation(t *testing.T) {
	s := sc(t)
	berchem, _ := s.Ln.Polygon(scenario.PgBerchem)
	iv := timedim.Interval{Lo: scenario.T(1), Hi: scenario.T(6)}
	before, err := s.Engine.CountSamplesInside(context.Background(), "FMbus", berchem, iv)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a new object's sample in the middle of Berchem.
	c := berchem.Centroid()
	s.FMbus.Add(99, scenario.T(2), c.X, c.Y)
	s.Engine.InvalidateTrajectories("FMbus")
	after, err := s.Engine.CountSamplesInside(context.Background(), "FMbus", berchem, iv)
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Errorf("after invalidation: count %d, want %d", after, before+1)
	}
}

// TestGridUnknownTable: error behavior matches the scan path and a
// failed entry does not poison later queries.
func TestGridUnknownTable(t *testing.T) {
	s := sc(t)
	pg, _ := s.Ln.Polygon(scenario.PgMeir)
	iv := timedim.Interval{Lo: scenario.T(1), Hi: scenario.T(6)}
	if _, err := s.Engine.CountSamplesInside(context.Background(), "FMnope", pg, iv); err == nil {
		t.Fatal("no error for unknown table")
	}
	if _, err := s.Engine.CountSamplesInside(context.Background(), "FMbus", pg, iv); err != nil {
		t.Fatalf("known table failed after unknown-table query: %v", err)
	}
}

// TestGridQueryAllocs is the allocation-regression gate for the
// engine's grid-accelerated polygon aggregate: per-query allocations
// stay bounded by a small constant once caches are warm.
func TestGridQueryAllocs(t *testing.T) {
	city, fm, eng, _ := gridWorkload(100)
	lo, hi, _ := fm.TimeSpan()
	iv := timedim.Interval{Lo: lo, Hi: hi}
	pg, _ := city.Ln.Polygon(city.LowIncomeIDs[0])
	if _, err := eng.CountSamplesInside(context.Background(), "FM", pg, iv); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.CountSamplesInside(context.Background(), "FM", pg, iv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("CountSamplesInside allocates %.0f times per query; want <= 64 (per-sample allocation regression?)", allocs)
	}
}

// BenchmarkSampledRegionCounts times the region×interval sweep the
// sample grid and its per-cell temporal index exist for
// (EXPERIMENTS.md P10, P13): per low-income neighborhood of an 8×8
// generated city, the samples inside and the distinct objects sampled
// inside, over 12 narrow windows (span/64 wide, spread across the
// extent) of 600 objects × 100 samples. "scan" is the grid-off
// columnar scan, "grid" the engine default. Their answers are gated
// by TestGridAcceleratedIdentity and TestTemporalVerifyMode.
func BenchmarkSampledRegionCounts(b *testing.B) {
	city := workload.GenCity(workload.CityConfig{Seed: 13, Cols: 8, Rows: 8})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed: 13, Objects: 600, Samples: 100, Step: 60, Speed: 3,
	})
	_, eng := city.Context(fm)
	eng.SetMetrics(obs.NewMetrics(obs.NewRegistry()))
	polys := city.LowIncomePolygons()
	lo, hi, _ := fm.TimeSpan()
	const slices = 12
	span := int64(hi - lo)
	var windows []timedim.Interval
	for i := int64(0); i < slices; i++ {
		wlo := lo + timedim.Instant(i*span/slices)
		windows = append(windows, timedim.Interval{Lo: wlo, Hi: min(hi, wlo+timedim.Instant(span/64))})
	}
	ctx := context.Background()
	sweep := func(b *testing.B) {
		for _, iv := range windows {
			for _, pg := range polys {
				if _, err := eng.CountSamplesInside(ctx, "FM", pg, iv); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.ObjectsSampledInside(ctx, "FM", pg, iv); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, route := range []struct {
		name string
		grid int
	}{{"scan", -1}, {"grid", 0}} {
		b.Run(route.name, func(b *testing.B) {
			eng.SetAggGrid(route.grid)
			eng.ResetCache()
			sweep(b) // builds the columnar snapshot or the grid
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(b)
			}
		})
	}
}

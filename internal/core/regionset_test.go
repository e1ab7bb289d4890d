package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/qerr"
	"mogis/internal/scenario"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// TestCountRegionSetPaper pins the operator on the paper's scenario:
// the Section-5 polygons (Dam, Berchem) by hour, interpolated and
// sampled — the figures the Piet-QL GROUP BY tests and the benchmark
// preflight assert end to end.
func TestCountRegionSetPaper(t *testing.T) {
	s := sc(t)
	fm, err := s.Ctx.Table("FMbus")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := fm.TimeSpan()
	q := core.RegionSetQuery{
		Table: "FMbus", Layer: "Ln", IDs: []layer.Gid{scenario.PgDam, scenario.PgBerchem},
		Window: timedim.Interval{Lo: lo, Hi: hi}, Granule: timedim.SecondsPerHour,
	}
	hour := func(h int) timedim.Instant { return timedim.At(2006, 1, 9, h, 0) }
	for _, tc := range []struct {
		sampled bool
		want    core.RegionSetCount
	}{
		{false, core.RegionSetCount{Total: 5, Granules: []core.GranuleCount{
			{Start: hour(10), Objects: 2}, {Start: hour(11), Objects: 2},
			{Start: hour(13), Objects: 1}, {Start: hour(14), Objects: 1},
		}}},
		{true, core.RegionSetCount{Total: 4, Granules: []core.GranuleCount{
			{Start: hour(11), Objects: 2}, {Start: hour(13), Objects: 1}, {Start: hour(14), Objects: 1},
		}}},
	} {
		q.SampledOnly = tc.sampled
		got, err := s.Engine.CountRegionSet(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("sampled=%v: got %+v, want %+v", tc.sampled, got, tc.want)
		}
		// Ungrouped: the same total, no granules.
		q.Granule = 0
		got, err = s.Engine.CountRegionSet(context.Background(), q)
		q.Granule = timedim.SecondsPerHour
		if err != nil {
			t.Fatal(err)
		}
		if got.Total != tc.want.Total || got.Granules != nil {
			t.Errorf("sampled=%v ungrouped: got %+v, want total %d", tc.sampled, got, tc.want.Total)
		}
	}
	q.Granule = -1
	if _, err := s.Engine.CountRegionSet(context.Background(), q); err == nil {
		t.Error("negative granule accepted")
	}
}

// TestCountRegionSetWindowHint: the operator's windows feed the grid's
// adaptive time-bucket hint, so Piet-QL sampled queries — which reach
// the engine only through it — keep sizing the temporal index.
func TestCountRegionSetWindowHint(t *testing.T) {
	w, col, _ := telemetryWorkload(t)
	for i := 0; i < 3; i++ {
		_, err := w.eng.CountRegionSet(context.Background(), core.RegionSetQuery{
			Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2}, SampledOnly: true,
			Window: timedim.Interval{Lo: w.win.Lo, Hi: w.win.Lo + timedim.Instant(600*(i+1))},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := col.MeanWindow(core.WindowHintOps...); got != 1201 {
		t.Errorf("MeanWindow over the hint ops = %d, want 1201", got)
	}
}

// TestCountRegionSetBudget: both semantics honour the row and result
// budgets with typed errors, and answer normally afterwards.
func TestCountRegionSetBudget(t *testing.T) {
	w := newRobustWorkload(t)
	w.eng.SetAggGrid(-1) // the scan route examines rows one by one
	for _, sampled := range []bool{true, false} {
		q := core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2, 3}, Window: w.win,
			Granule: timedim.SecondsPerHour, SampledOnly: sampled}
		for _, b := range []core.Budget{{MaxRows: 10}, {MaxResults: 1}} {
			_, err := w.eng.CountRegionSet(core.WithBudget(context.Background(), b), q)
			var be *qerr.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("sampled=%v budget %+v: got %v, want *BudgetError", sampled, b, err)
			}
		}
		if _, err := w.eng.CountRegionSet(context.Background(), q); err != nil {
			t.Errorf("sampled=%v unbudgeted retry: %v", sampled, err)
		}
	}
	if w.met.BudgetRowsExceeded.Value() != 2 || w.met.BudgetResultsExceeded.Value() != 2 {
		t.Errorf("budget counters rows=%d results=%d, want 2 and 2",
			w.met.BudgetRowsExceeded.Value(), w.met.BudgetResultsExceeded.Value())
	}
}

// FuzzGroupedCount checks CountRegionSet route-independence on a small
// fixed table: for a random window, granule and polygon subset, the
// grid route equals the columnar scan (sampled), and the interval
// cache equals uncached single-worker evaluation and the per-object
// reference, which shares no code with the interval column
// (interpolated). For an ungrouped query, the object-set readout of
// its first polygon (ObjectsSampledInside, ObjectsPassingThrough) is
// checked the same way, grid route against scan route, and against
// the one-polygon count's Total.
func FuzzGroupedCount(f *testing.F) {
	city := workload.GenCity(workload.CityConfig{Seed: 9, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 9, Objects: 40, Samples: 90})
	mctx, fast := city.Context(fm)
	slow := core.New(mctx)
	for _, e := range []*core.Engine{fast, slow} {
		e.SetTelemetry(nil)
		e.SetMetrics(obs.NewMetrics(obs.NewRegistry()))
	}
	slow.SetAggGrid(-1)
	slow.SetIntervalCacheCap(0)
	slow.SetWorkers(1)
	lo, hi, _ := fm.TimeSpan()
	span := int64(hi-lo) + 1
	ids := city.Ln.IDs(layer.KindPolygon)
	granules := []int64{0, timedim.SecondsPerHour, timedim.SecondsPerDay, 60, 17 * 60, 7}
	ref := newIntervalRef(f, fm)

	f.Add(uint32(0), uint32(span), uint8(1), uint16(0xffff), true)
	f.Add(uint32(600), uint32(3600), uint8(1), uint16(0x00f0), false)
	f.Add(uint32(3600+600), uint32(0), uint8(0), uint16(0x0f0f), true)
	f.Add(uint32(17), uint32(4001), uint8(3), uint16(0x1234), false)
	f.Add(uint32(300), uint32(2400), uint8(3), uint16(0xffff), true)
	f.Add(uint32(31), uint32(900), uint8(5), uint16(0x5555), true)
	f.Add(uint32(600), uint32(1800), uint8(0), uint16(0x0001), true)
	f.Add(uint32(600), uint32(1800), uint8(0), uint16(0x0002), false)
	f.Fuzz(func(t *testing.T, off, width uint32, gsel uint8, mask uint16, sampled bool) {
		wlo := lo - 600 + timedim.Instant(int64(off)%(span+1200))
		q := core.RegionSetQuery{
			Table: "FM", Layer: "Ln", SampledOnly: sampled,
			Window:  timedim.Interval{Lo: wlo, Hi: wlo + timedim.Instant(int64(width)%(span+1200))},
			Granule: granules[int(gsel)%len(granules)],
		}
		for i, id := range ids {
			if mask&(1<<(i%16)) != 0 {
				q.IDs = append(q.IDs, id)
			}
		}
		want, err := slow.CountRegionSet(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fast.CountRegionSet(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v:\n fast %+v\n slow %+v", q, got, want)
		}
		if q.Granule == 0 && len(q.IDs) > 0 {
			checkReadout(t, city, fast, slow, q)
		}
		if sampled {
			return
		}
		pgs := make([]geom.Polygon, len(q.IDs))
		for i, id := range q.IDs {
			pgs[i], _ = city.Ln.Polygon(id)
		}
		if r := ref.count(pgs, q.Window, q.Granule); !reflect.DeepEqual(got, r) {
			t.Errorf("%+v:\n fast      %+v\n reference %+v", q, got, r)
		}
	})
}

// checkReadout checks the object-set readout of q's first polygon: the
// fast engine's answer equals the slow engine's, nil-versus-empty
// included, and holds as many objects as the fast one-polygon count.
func checkReadout(t *testing.T, city *workload.City, fast, slow *core.Engine, q core.RegionSetQuery) {
	t.Helper()
	q.IDs = q.IDs[:1]
	pg, _ := city.Ln.Polygon(q.IDs[0])
	read := func(e *core.Engine) ([]moft.Oid, error) {
		if q.SampledOnly {
			return e.ObjectsSampledInside(context.Background(), "FM", pg, q.Window)
		}
		return e.ObjectsPassingThrough(context.Background(), "FM", pg, q.Window)
	}
	got, err := read(fast)
	if err != nil {
		t.Fatal(err)
	}
	want, err := read(slow)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%+v readout:\n fast %v\n slow %v", q, got, want)
	}
	res, err := fast.CountRegionSet(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.Total {
		t.Errorf("%+v: readout holds %d objects, count Total %d", q, len(got), res.Total)
	}
}

package pietql

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/mdx"
	"mogis/internal/moft"
	"mogis/internal/olap"
	"mogis/internal/overlay"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// referenceMO is the moving-objects evaluation as pietql ran it before
// the engine grew CountRegionSet, kept as the oracle the one-call path
// must match byte for byte: the grouped shapes loop rows × polygons
// (sampled) or LITs × polygons (interpolated) outside the engine, the
// ungrouped sampled shape unions one ObjectsSampledInside per polygon,
// and the ungrouped interpolated shape tests every LIT × polygon.
func referenceMO(ctx context.Context, s *System, eng core.Querier, q *MOQuery, geoIDs map[string][]layer.Gid) (int, *olap.AggResult, error) {
	ids, ok := geoIDs[q.ThroughLayer]
	if !ok {
		return 0, nil, fmt.Errorf("pietql: PASSES THROUGH layer %q is not in the geometric SELECT", q.ThroughLayer)
	}
	tbl, err := s.Ctx.Table(q.Table)
	if err != nil {
		return 0, nil, err
	}
	window := q.Window
	if !q.HasWindow {
		lo, hi, ok := tbl.TimeSpan()
		if !ok {
			return 0, nil, nil
		}
		window = timedim.Interval{Lo: lo, Hi: hi}
	}
	l, _ := s.Ctx.GIS().Layer(q.ThroughLayer)
	polys := make([]geom.Polygon, 0, len(ids))
	for _, id := range ids {
		pg, ok := l.Polygon(id)
		if !ok {
			return 0, nil, fmt.Errorf("pietql: layer %q has no polygon %d", q.ThroughLayer, id)
		}
		polys = append(polys, pg)
	}
	if q.GroupBy != "" {
		groups, total, err := referenceMOGrouped(ctx, tbl, eng, q, polys, window)
		if err != nil {
			return 0, nil, err
		}
		return total, groups, nil
	}
	seen := map[moft.Oid]bool{}
	if q.SampledOnly {
		for _, pg := range polys {
			objs, err := eng.ObjectsSampledInside(ctx, q.Table, pg, window)
			if err != nil {
				return 0, nil, err
			}
			for _, o := range objs {
				seen[o] = true
			}
		}
		return len(seen), nil, nil
	}
	lits, err := eng.Trajectories(ctx, q.Table)
	if err != nil {
		return 0, nil, err
	}
	for oid, lit := range lits {
		for _, pg := range polys {
			for _, iv := range lit.InsidePolygonIntervals(pg) {
				if iv.Lo <= float64(window.Hi) && float64(window.Lo) <= iv.Hi {
					seen[oid] = true
				}
			}
		}
	}
	return len(seen), nil, nil
}

// referenceMOGrouped is the pre-operator evalMOGrouped, unchanged.
func referenceMOGrouped(ctx context.Context, tbl *moft.Table, eng core.Querier, q *MOQuery, polys []geom.Polygon, window timedim.Interval) (*olap.AggResult, int, error) {
	bucketWidth := int64(timedim.SecondsPerHour)
	if q.GroupBy == timedim.CatDay {
		bucketWidth = timedim.SecondsPerDay
	}
	truncate := func(t timedim.Instant) timedim.Instant {
		if q.GroupBy == timedim.CatDay {
			return t.TruncateDay()
		}
		return t.TruncateHour()
	}
	perBucket := make(map[string]map[moft.Oid]bool)
	contributing := make(map[moft.Oid]bool)
	mark := func(oid moft.Oid, t timedim.Instant) {
		label, _ := timedim.Rollup(q.GroupBy, t)
		if perBucket[label] == nil {
			perBucket[label] = make(map[moft.Oid]bool)
		}
		perBucket[label][oid] = true
		contributing[oid] = true
	}
	if q.SampledOnly {
		tbl.ScanInterval(window, func(tp moft.Tuple) bool {
			for _, pg := range polys {
				if pg.ContainsPoint(tp.Point()) {
					mark(tp.Oid, tp.T)
					break
				}
			}
			return true
		})
	} else {
		lits, err := eng.Trajectories(ctx, q.Table)
		if err != nil {
			return nil, 0, err
		}
		for oid, lit := range lits {
			for _, pg := range polys {
				for _, iv := range lit.InsidePolygonIntervals(pg) {
					lo, hi := iv.Lo, iv.Hi
					if lo < float64(window.Lo) {
						lo = float64(window.Lo)
					}
					if hi > float64(window.Hi) {
						hi = float64(window.Hi)
					}
					if hi < lo {
						continue
					}
					for b := truncate(timedim.Instant(lo)); float64(b) <= hi; b += timedim.Instant(bucketWidth) {
						mark(oid, b)
					}
				}
			}
		}
	}
	res := &olap.AggResult{GroupCols: []string{string(q.GroupBy)}}
	for label, objs := range perBucket {
		res.Rows = append(res.Rows, olap.AggResultRow{
			Group: []olap.Member{olap.Member(label)},
			Value: float64(len(objs)),
			N:     int64(len(objs)),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Group[0] < res.Rows[j].Group[0] })
	return res, len(contributing), nil
}

// sweepRegions are the benchmark's three region sets: the Section-5
// query verbatim, a school-containment set and a river-crossing set.
var sweepRegions = map[string]string{
	"s5": `SELECT layer.Lr, layer.Ln, layer.Lstores;
FROM PietSchema;
WHERE intersection(layer.Lr, layer.Ln, subplevel.Linestring)
AND (layer.Ln)
CONTAINS (layer.Ln, layer.Lstores, subplevel.Point);
`,
	"school": `SELECT layer.Ln;
FROM PietSchema;
WHERE CONTAINS (layer.Ln, layer.Ls, subplevel.Point);
`,
	"river": `SELECT layer.Ln;
FROM PietSchema;
WHERE intersection(layer.Ln, layer.Lr, subplevel.Linestring);
`,
}

// sweepCity builds a generated-city system whose trajectories start at
// start and sample every step seconds for samples instants; both
// sweep configurations put hour (and, from a late start, day)
// boundaries inside the data and a sample exactly on each boundary.
func sweepCity(t *testing.T, start timedim.Instant, step int64, samples int) *System {
	t.Helper()
	city := workload.GenCity(workload.CityConfig{Seed: 3, Cols: 5, Rows: 5})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 5, Objects: 60, Samples: samples, Start: start, Step: step})
	mctx, eng := city.Context(fm)
	eng.SetTelemetry(nil)
	refN := overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}
	ov, err := overlay.Precompute(context.Background(), city.Layers(), []overlay.Pair{
		{A: refN, B: overlay.Ref{Layer: "Lr", Kind: layer.KindPolyline}},
		{A: refN, B: overlay.Ref{Layer: "Lstores", Kind: layer.KindNode}},
		{A: refN, B: overlay.Ref{Layer: "Ls", Kind: layer.KindNode}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &System{
		Ctx: mctx, Engine: eng, Overlay: ov, SchemaName: "PietSchema", Cubes: mdx.Catalog{},
		Kinds: map[string]layer.Kind{
			"Ln": layer.KindPolygon, "Lr": layer.KindPolyline, "Ls": layer.KindNode,
			"Lstores": layer.KindNode, "Lh": layer.KindPolyline,
		},
	}
}

// sweepWindows returns DURING clauses relative to the data's first
// instant: whole minutes across an hour boundary, odd seconds, a
// zero-width window on the hour boundary, one ending exactly on it,
// and no window at all.
func sweepWindows(start timedim.Instant) []string {
	at := func(sec int64) string { return (start + timedim.Instant(sec)).String() }
	during := func(lo, hi int64) string { return " DURING '" + at(lo) + "' TO '" + at(hi) + "'" }
	hour := int64(timedim.SecondsPerHour)
	return []string{
		during(10*60, 70*60),
		during(hour-17*60, 2*hour+1*60),
		during(23*60+17, hour+41*60+43),
		during(hour, hour),
		during(30*60, hour),
		"",
	}
}

// TestRegionSetMatchesReference sweeps generated cities over every MO
// shape — three region sets; hour, day and ungrouped; sampled and
// interpolated; the windows of sweepWindows — and requires the
// one-call answer's FormatOutcome to equal the pre-operator
// reference's byte for byte, with the grid on and off, and the grid
// engine's Outcome to equal a second, grid-off engine's
// (reflect.DeepEqual).
func TestRegionSetMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []struct {
		start   timedim.Instant
		step    int64
		samples int
	}{
		{timedim.At(2006, 1, 9, 6, 0), 60, 150},
		{timedim.At(2006, 1, 9, 23, 0), 600, 30},
	} {
		start := cfg.start
		sys := sweepCity(t, start, cfg.step, cfg.samples)
		eng := sys.Engine.(*core.Engine)
		oracle := core.New(sys.Ctx)
		oracle.SetTelemetry(nil)
		oracle.SetAggGrid(-1)
		oracle.SetIntervalCacheCap(0)
		oracle.SetWorkers(1)
		scanEng := core.New(sys.Ctx)
		scanEng.SetTelemetry(nil)
		scanEng.SetAggGrid(-1)
		scanSys := *sys
		scanSys.Engine = scanEng
		routes := []struct {
			name  string
			apply func()
		}{
			{"grid-on", func() { eng.SetAggGrid(0) }},
			{"grid-off", func() { eng.SetAggGrid(-1) }},
		}
		checked, grouped := 0, 0
		for _, region := range []string{"s5", "school", "river"} {
			for _, groupBy := range []string{"", " GROUP BY hour", " GROUP BY day"} {
				for _, sampled := range []string{"", " SAMPLED ONLY"} {
					for _, during := range sweepWindows(start) {
						text := sweepRegions[region] + "| | MOVING COUNT(*) FROM FM WHERE PASSES THROUGH layer.Ln" + during + sampled + groupBy
						q, err := Parse(text)
						if err != nil {
							t.Fatalf("%s: %v", text, err)
						}
						want, err := sys.Eval(ctx, &Query{Geo: q.Geo})
						if err != nil {
							t.Fatal(err)
						}
						want.MOCount, want.MOGroups, err = referenceMO(ctx, sys, oracle, q.MO, want.GeoIDs)
						if err != nil {
							t.Fatal(err)
						}
						want.HasMO = true
						if want.MOGroups != nil && len(want.MOGroups.Rows) > 0 {
							grouped++
						}
						for _, rt := range routes {
							rt.apply()
							eng.ResetCache()
							got, err := sys.Run(ctx, text)
							if err != nil {
								t.Fatalf("%s %s: %v", rt.name, text, err)
							}
							if g, w := FormatOutcome(got), FormatOutcome(want); g != w {
								t.Errorf("%s diverged from the reference on\n%s\n got:\n%s\nwant:\n%s", rt.name, text, g, w)
							}
							checked++
						}
						eng.SetAggGrid(0)
						got, err := sys.Run(ctx, text)
						if err != nil {
							t.Fatalf("grid engine %s: %v", text, err)
						}
						scan, err := scanSys.Run(ctx, text)
						if err != nil {
							t.Fatalf("scan engine %s: %v", text, err)
						}
						if !reflect.DeepEqual(got, scan) {
							t.Errorf("grid engine and scan engine diverged on\n%s\n got %#v\nwant %#v", text, got, scan)
						}
						checked++
					}
				}
			}
		}
		if checked != 3*3*2*len(sweepWindows(start))*(len(routes)+1) || grouped == 0 {
			t.Fatalf("sweep ran %d comparisons, %d non-empty grouped answers", checked, grouped)
		}
	}
}

// TestNoWindowEqualsFullSpan: a query without DURING answers exactly
// like one whose window is the table's full time span.
func TestNoWindowEqualsFullSpan(t *testing.T) {
	ctx := context.Background()
	sys := sweepCity(t, timedim.At(2006, 1, 9, 6, 0), 60, 150)
	tbl, err := sys.Ctx.Table("FM")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := tbl.TimeSpan()
	full := " DURING '" + lo.String() + "' TO '" + hi.String() + "'"
	for _, tail := range []string{"", " SAMPLED ONLY", " GROUP BY hour", " SAMPLED ONLY GROUP BY day"} {
		base := sweepRegions["river"] + "| | MOVING COUNT(*) FROM FM WHERE PASSES THROUGH layer.Ln"
		a, err := sys.Run(ctx, base+tail)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Run(ctx, base+full+tail)
		if err != nil {
			t.Fatal(err)
		}
		if FormatOutcome(a) != FormatOutcome(b) {
			t.Errorf("%q: no window\n%s\nfull-span window\n%s", tail, FormatOutcome(a), FormatOutcome(b))
		}
		if a.MOCount == 0 {
			t.Errorf("%q: empty answer, the comparison proves nothing", tail)
		}
	}
}

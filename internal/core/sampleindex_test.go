package core_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
	"mogis/internal/traj"
	"mogis/internal/workload"
)

// tailBatch draws a valid batch for cur of about n rows: objects new to
// the table with one sample, later samples of stored objects (some
// placed outside the city, past any base grid's extent), and exact
// repeats, which are no-ops.
func (v *versionWorkload) tailBatch(cur *moft.Table, n int) []moft.Tuple {
	rng := v.rng
	objs := cur.Objects()
	lo, hi, _ := cur.TimeSpan()
	latest := map[moft.Oid]timedim.Instant{}
	var rows []moft.Tuple
	for ; n > 0; n-- {
		at := geom.Pt(v.extent.MinX+rng.Float64()*v.extent.Width(), v.extent.MinY+rng.Float64()*v.extent.Height())
		switch r := rng.Intn(10); {
		case r == 0:
			tps := cur.ObjectTuples(objs[rng.Intn(len(objs))])
			rows = append(rows, tps[rng.Intn(len(tps))])
		case r <= 2:
			v.newOid++
			ts := lo + timedim.Instant(rng.Int63n(int64(hi-lo)+1))
			rows = append(rows, moft.Tuple{Oid: v.newOid, T: ts, X: at.X, Y: at.Y})
			latest[v.newOid] = ts
		default:
			o := objs[rng.Intn(len(objs))]
			l, ok := latest[o]
			if !ok {
				tps := cur.ObjectTuples(o)
				l = tps[len(tps)-1].T
			}
			if r == 9 {
				at.X = v.extent.MaxX + rng.Float64()*v.extent.Width()/4
			}
			ts := l + 1 + timedim.Instant(rng.Intn(900))
			rows = append(rows, moft.Tuple{Oid: o, T: ts, X: at.X, Y: at.Y})
			latest[o] = ts
		}
	}
	return rows
}

// sampledAnswers runs every sampled entry point on q over windows that
// have an instant b of the latest batch on a bound, for the workload
// polygon and for a rectangle reaching past the city's east edge.
func sampledAnswers(t *testing.T, v *versionWorkload, q core.Querier, b timedim.Instant) map[string]any {
	t.Helper()
	ctx := context.Background()
	e := v.extent
	east := geom.Polygon{Shell: geom.Ring{
		geom.Pt(e.MinX+e.Width()/2, e.MinY), geom.Pt(e.MaxX+e.Width()/2, e.MinY),
		geom.Pt(e.MaxX+e.Width()/2, e.MaxY), geom.Pt(e.MinX+e.Width()/2, e.MaxY),
	}}
	wins := map[string]timedim.Interval{
		"all":    v.w.win,
		"to-b":   {Lo: v.w.win.Lo, Hi: b},
		"from-b": {Lo: b, Hi: v.w.win.Hi},
		"at-b":   {Lo: b, Hi: b},
	}
	out := map[string]any{}
	must := func(name string, val any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = val
	}
	for wn, win := range wins {
		for pn, pg := range map[string]geom.Polygon{"pg": v.w.pg, "east": east} {
			n, err := q.CountSamplesInside(ctx, "FM", pg, win)
			must("CountSamplesInside/"+pn+"/"+wn, n, err)
			oids, err := q.ObjectsSampledInside(ctx, "FM", pg, win)
			must("ObjectsSampledInside/"+pn+"/"+wn, oids, err)
		}
		for _, g := range []int64{0, timedim.SecondsPerHour} {
			res, err := q.CountRegionSet(ctx, core.RegionSetQuery{
				Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2, 3, 4}, Window: win, Granule: g, SampledOnly: true,
			})
			must(fmt.Sprintf("CountRegionSet/%d/%s", g, wn), res, err)
		}
	}
	for pn, pg := range map[string]geom.Polygon{"pg": v.w.pg, "east": east} {
		oids, err := q.ObjectsSampledAt(ctx, "FM", b, pg)
		must("ObjectsSampledAt/"+pn, oids, err)
	}
	return out
}

// TestSampleIndexMatchesRebuild is the equivalence gate of the sample
// index and of leg-local interval settling. Along a chain of random
// batches — objects new since the base, one-sample objects that grow,
// tail rows outside the base grid's extent and on window bounds,
// sibling versions, batches large enough to cross the compaction bound
// — every sampled entry point of the long-lived engine, which answers
// from an inherited base plus a tail, equals both the grid-off scan and
// a fresh engine that builds the version's grid from scratch; and after
// interpolated queries settle them, the carried interval columns equal
// the columns a fresh engine builds for the version, and their entries
// a from-scratch InsidePolygonIntervals of the version's trajectories.
func TestSampleIndexMatchesRebuild(t *testing.T) {
	var versions, builds int64
	f := func(seed int64) bool {
		v := newVersionWorkload(t, seed%1000+1)
		ctx := context.Background()
		cur, _ := v.fctx.Table("FM")
		lo, _, _ := cur.TimeSpan()
		sampledAnswers(t, v, v.w.eng, lo)
		builds0 := v.w.met.AggGridBuilds.Value()
		for step := 0; step < 10; step++ {
			cur, _ := v.fctx.Table("FM")
			n := 1 + v.rng.Intn(8)
			if v.rng.Intn(5) == 0 {
				n = cur.Len() / core.CompactDivisor / 2
			}
			batch := v.tailBatch(cur, n)
			next, err := cur.WithAppended(batch)
			if err != nil {
				t.Logf("seed %d step %d: valid batch rejected: %v", seed, step, err)
				return false
			}
			if v.rng.Intn(6) == 0 {
				// A sibling: derived after next from the same parent, it
				// starts a lineage of its own.
				batch = v.tailBatch(cur, n)
				if next, err = cur.WithAppended(batch); err != nil {
					t.Logf("seed %d step %d: valid sibling batch rejected: %v", seed, step, err)
					return false
				}
			}
			v.fctx.AddTable(next)
			if v.rng.Intn(4) == 0 {
				continue // a version no reader sees
			}
			versions++
			b := batch[len(batch)-1].T
			got := sampledAnswers(t, v, v.w.eng, b)
			for name, want := range map[string]map[string]any{
				"scan":  sampledAnswers(t, v, scanEngine(v.w.eng), b),
				"fresh": sampledAnswers(t, v, core.New(v.fctx), b),
			} {
				for q, g := range got {
					if !reflect.DeepEqual(g, want[q]) {
						t.Logf("seed %d step %d %s vs %s:\n got %#v\nwant %#v", seed, step, q, name, g, want[q])
						return false
					}
				}
			}

			// Settle every interval entry of the version, then compare
			// each with a column a fresh engine builds from scratch and
			// with a from-scratch clip.
			fresh := core.New(v.fctx)
			for _, e := range []*core.Engine{v.w.eng, fresh} {
				if _, err := e.CountRegionSet(ctx, core.RegionSetQuery{
					Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2, 3, 4}, Window: v.w.win,
				}); err != nil {
					t.Fatal(err)
				}
			}
			lits, err := v.w.eng.Trajectories(ctx, "FM")
			if err != nil {
				t.Fatal(err)
			}
			ln, _ := v.fctx.GIS().Layer("Ln")
			for _, id := range []layer.Gid{1, 2, 3, 4} {
				pg, _ := ln.Polygon(id)
				col, settled := core.IntervalColumn(v.w.eng, "FM", pg)
				if !settled {
					t.Logf("seed %d step %d: polygon %d's interval entry is not settled", seed, step, id)
					return false
				}
				if want, _ := core.IntervalColumn(fresh, "FM", pg); !reflect.DeepEqual(col, want) {
					t.Logf("seed %d step %d polygon %d: settled column differs from a fresh build:\n got %+v\nwant %+v", seed, step, id, col, want)
					return false
				}
				m, _ := core.IntervalMap(v.w.eng, "FM", pg)
				want := map[moft.Oid][]traj.TimeInterval{}
				for oid, l := range lits {
					if ivs := l.InsidePolygonIntervals(pg); len(ivs) > 0 {
						want[oid] = ivs
					}
				}
				if !reflect.DeepEqual(m, want) {
					t.Logf("seed %d step %d polygon %d: carried intervals differ from a full clip", seed, step, id)
					return false
				}
			}
		}
		builds += v.w.met.AggGridBuilds.Value() - builds0
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
	t.Logf("%d grid builds over %d read versions", builds, versions)
	if builds == 0 || builds >= versions {
		t.Errorf("%d grid builds over %d read versions: want some compactions, and tails for most versions", builds, versions)
	}
}

// TestInvalidateDropsInheritedBase: InvalidateTrajectories on a derived
// version forgets the base it inherited, so the next sampled query
// builds a full grid; without it the version answers from base + tail.
func TestInvalidateDropsInheritedBase(t *testing.T) {
	city := workload.GenCity(workload.CityConfig{Seed: 3, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 5, Objects: 40, Samples: 30})
	lo, hi, _ := fm.TimeSpan()
	fctx, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	pg, _ := city.Ln.Polygon(1)
	c := pg.Centroid()
	win := timedim.Interval{Lo: lo, Hi: hi + timedim.SecondsPerHour}
	count := func() int {
		t.Helper()
		n, err := eng.CountSamplesInside(context.Background(), "FM", pg, win)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := count()
	next, err := fm.WithAppended([]moft.Tuple{{Oid: 2, T: hi + 60, X: c.X, Y: c.Y}, {Oid: 900, T: hi + 60, X: c.X, Y: c.Y}})
	if err != nil {
		t.Fatal(err)
	}
	fctx.AddTable(next)
	builds := met.AggGridBuilds.Value()
	if got := count(); got != before+2 {
		t.Errorf("derived version counts %d, want %d", got, before+2)
	}
	if n := met.AggGridBuilds.Value() - builds; n != 0 {
		t.Errorf("derived version built %d grids, want 0 (base + tail)", n)
	}
	eng.InvalidateTrajectories("FM")
	if got := count(); got != before+2 {
		t.Errorf("after invalidation counts %d, want %d", got, before+2)
	}
	if n := met.AggGridBuilds.Value() - builds; n != 1 {
		t.Errorf("after invalidation %d grid builds, want 1", n)
	}
}

// TestEmptyTableNameIsUnknownTable: every table-taking Querier method
// called with an empty table name answers an "unknown table" error,
// recorded as outcome error — not a nil-table panic.
func TestEmptyTableNameIsUnknownTable(t *testing.T) {
	w := newRobustWorkload(t)
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	rsType := reflect.TypeOf(core.RegionSetQuery{})
	qt := reflect.TypeOf((*core.Querier)(nil)).Elem()
	eng := reflect.ValueOf(w.eng)
	called := 0
	for i := 0; i < qt.NumMethod(); i++ {
		m := qt.Method(i)
		if m.Type.NumIn() < 2 || m.Type.In(0) != ctxType || m.Name == "FilterGeometriesByAggregate" {
			continue
		}
		var variants [][]reflect.Value
		switch m.Type.In(1) {
		case reflect.TypeOf(""):
			// The table is "", any other name the layer; the rest are
			// the workload's valid shapes.
			args := []reflect.Value{reflect.ValueOf(context.Background()), reflect.ValueOf("")}
			for j := 2; j < m.Type.NumIn(); j++ {
				switch in := m.Type.In(j); in {
				case reflect.TypeOf(""):
					args = append(args, reflect.ValueOf("Ln"))
				case reflect.TypeOf([]layer.Gid(nil)):
					args = append(args, reflect.ValueOf([]layer.Gid{1}))
				case reflect.TypeOf(geom.Polygon{}):
					args = append(args, reflect.ValueOf(w.pg))
				case reflect.TypeOf(timedim.Interval{}):
					args = append(args, reflect.ValueOf(w.win))
				case reflect.TypeOf(float64(0)):
					args = append(args, reflect.ValueOf(1.5))
				default:
					args = append(args, reflect.Zero(in))
				}
			}
			variants = append(variants, args)
		case rsType:
			for _, sampled := range []bool{false, true} {
				for _, g := range []int64{0, timedim.SecondsPerHour} {
					q := core.RegionSetQuery{Layer: "Ln", IDs: []layer.Gid{1}, Window: w.win, Granule: g, SampledOnly: sampled}
					variants = append(variants, []reflect.Value{reflect.ValueOf(context.Background()), reflect.ValueOf(q)})
				}
			}
		default:
			continue
		}
		for _, args := range variants {
			col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry(), SampleEvery: -1})
			w.eng.SetTelemetry(col)
			err := callQuery(eng.MethodByName(m.Name), args)
			recs := col.Recent(0)
			if err == nil || !strings.Contains(err.Error(), "unknown table") {
				t.Errorf("%s(\"\"): error %v, want unknown table", m.Name, err)
			}
			if len(recs) != 1 || recs[0].Outcome != telemetry.OutcomeError {
				t.Errorf("%s(\"\"): records %+v, want one with outcome error", m.Name, recs)
			}
			called++
		}
	}
	w.eng.SetTelemetry(nil)
	if called < 10 {
		t.Errorf("only %d table-taking calls made", called)
	}
}

// BenchmarkSampleIndexTail is the tail's kill criterion: sampled
// queries on a version whose tail is just under the compaction bound
// (1000 objects × 100 samples in the base, 6 more samples each in the
// tail), against the same version answered from a grid of its own. It
// reports each route's median query time as p50-ns. Windows of 10, 30
// and 60 minutes fall anywhere in the version's span, tail included.
//
//	go test -run NONE -bench SampleIndexTail ./internal/core
func BenchmarkSampleIndexTail(b *testing.B) {
	city := workload.GenCity(workload.CityConfig{Seed: 1, Cols: 20, Rows: 20})
	const samples, more = 100, 100 / core.CompactDivisor
	full := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 1, Objects: 1000, Samples: samples + more})
	lo, hi, _ := full.TimeSpan()
	cut := lo + samples*60
	base := full.Filter("", func(tp moft.Tuple) bool { return tp.T < cut })
	var batch []moft.Tuple
	for _, tp := range full.Tuples() {
		if tp.T >= cut {
			batch = append(batch, tp)
		}
	}
	next, err := base.WithAppended(batch)
	if err != nil {
		b.Fatal(err)
	}

	var queries []func(core.Querier) error
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		pg, _ := city.Ln.Polygon(layer.Gid(1 + (i*37)%400))
		width := timedim.Instant([]int{10, 30, 60}[i%3] * 60)
		start := lo + timedim.Instant((i*7919)%int(hi-lo-width))
		win := timedim.Interval{Lo: start, Hi: start + width}
		switch i % 3 {
		case 0:
			queries = append(queries, func(q core.Querier) error { _, err := q.CountSamplesInside(ctx, "FM", pg, win); return err })
		case 1:
			queries = append(queries, func(q core.Querier) error { _, err := q.ObjectsSampledInside(ctx, "FM", pg, win); return err })
		default:
			ids := []layer.Gid{layer.Gid(1 + (i*37)%400), layer.Gid(1 + (i*53)%400)}
			queries = append(queries, func(q core.Querier) error {
				_, err := q.CountRegionSet(ctx, core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: ids, Window: win, SampledOnly: true})
				return err
			})
		}
	}

	fctx, tailEng := city.Context(base)
	met := obs.NewMetrics(obs.NewRegistry())
	tailEng.SetMetrics(met)
	if err := queries[0](tailEng); err != nil {
		b.Fatal(err)
	}
	fctx.AddTable(next)
	baseEng := core.New(fctx)
	for name, q := range map[string]core.Querier{"tail-at-bound": tailEng, "base-only": baseEng} {
		b.Run(name, func(b *testing.B) {
			for _, run := range queries {
				if err := run(q); err != nil {
					b.Fatal(err)
				}
			}
			durs := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := queries[i%len(queries)](q); err != nil {
					b.Fatal(err)
				}
				durs = append(durs, time.Since(t0))
			}
			b.StopTimer()
			slices.Sort(durs)
			b.ReportMetric(float64(durs[len(durs)/2].Nanoseconds()), "p50-ns")
		})
	}
	if n := met.AggGridBuilds.Value(); n != 1 {
		b.Errorf("the tail engine built %d grids, want 1 (its base)", n)
	}
}

package core_test

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mogis/internal/core"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/timedim"
	"mogis/internal/traj"
	"mogis/internal/workload"
)

// intervalRef answers the interpolated routes object by object: each
// object's InsidePolygonIntervals, interpolated straight from the
// table's rows, clamped to the window by each route's rule. It shares
// no code with the engine's interval column.
type intervalRef struct {
	tbl  *moft.Table
	lits map[moft.Oid]*traj.LIT
}

func newIntervalRef(t testing.TB, tbl *moft.Table) intervalRef {
	t.Helper()
	lits := map[moft.Oid]*traj.LIT{}
	for _, oid := range tbl.Objects() {
		rows := tbl.ObjectTuples(oid)
		s := make(traj.Sample, len(rows))
		for k, tp := range rows {
			s[k] = traj.TimePoint{T: tp.T, P: tp.Point()}
		}
		l, err := traj.NewLIT(s)
		if err != nil {
			t.Fatal(err)
		}
		lits[oid] = l
	}
	return intervalRef{tbl: tbl, lits: lits}
}

// passing is ObjectsPassingThrough: ascending, nil when empty.
func (r intervalRef) passing(pg geom.Polygon, w timedim.Interval) []moft.Oid {
	var out []moft.Oid
	for oid, l := range r.lits {
		for _, iv := range l.InsidePolygonIntervals(pg) {
			if iv.Lo <= float64(w.Hi) && float64(w.Lo) <= iv.Hi {
				out = append(out, oid)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// timeSpent is TimeSpentInside: clampTotal per touched object.
func (r intervalRef) timeSpent(pg geom.Polygon, w timedim.Interval) map[moft.Oid]float64 {
	out := map[moft.Oid]float64{}
	for oid, l := range r.lits {
		if sum, touched := core.ClampTotal(l.InsidePolygonIntervals(pg), float64(w.Lo), float64(w.Hi)); touched {
			out[oid] = sum
		}
	}
	return out
}

// count is the interpolated CountRegionSet. Ungrouped, an object
// counts when one of its intervals touches the window. Grouped, every
// interval clipped to the window marks each granule from its clipped
// start's granule while the granule start is <= the clipped end, among
// the granules of the window clamped to the table's time span.
func (r intervalRef) count(pgs []geom.Polygon, w timedim.Interval, width int64) core.RegionSetCount {
	floor := func(t int64) int64 {
		q := t / width
		if t%width < 0 {
			q--
		}
		return q * width
	}
	minT, maxT, ok := r.tbl.TimeSpan()
	clo, chi := max(w.Lo, minT), min(w.Hi, maxT)
	total := map[moft.Oid]bool{}
	granule := map[int64]map[moft.Oid]bool{}
	wlo, whi := float64(w.Lo), float64(w.Hi)
	for oid, l := range r.lits {
		for _, pg := range pgs {
			for _, iv := range l.InsidePolygonIntervals(pg) {
				if width == 0 {
					if iv.Lo <= whi && wlo <= iv.Hi {
						total[oid] = true
					}
					continue
				}
				lo, hi := max(iv.Lo, wlo), min(iv.Hi, whi)
				if hi < lo {
					continue
				}
				total[oid] = true
				for b := floor(int64(lo)); float64(b) <= hi; b += width {
					if ok && clo <= chi && b >= floor(int64(clo)) && b <= floor(int64(chi)) {
						if granule[b] == nil {
							granule[b] = map[moft.Oid]bool{}
						}
						granule[b][oid] = true
					}
				}
			}
		}
	}
	res := core.RegionSetCount{Total: len(total)}
	var starts []int64
	for b := range granule {
		starts = append(starts, b)
	}
	slices.Sort(starts)
	for _, b := range starts {
		res.Granules = append(res.Granules, core.GranuleCount{Start: timedim.Instant(b), Objects: len(granule[b])})
	}
	return res
}

// intervalWorld is a small city whose table holds trajectories with
// the even oids from 102 up (an object's index is not its oid minus
// the first), one-sample objects and one object parked in a polygon
// for the whole span.
type intervalWorld struct {
	city  *workload.City
	table *moft.Table
	ids   []layer.Gid
}

func newIntervalWorld(seed int64, rng *rand.Rand) intervalWorld {
	city := workload.GenCity(workload.CityConfig{Seed: seed%50 + 1, Cols: 3, Rows: 3})
	gen := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed: seed, Objects: 12 + rng.Intn(12), Samples: 4 + rng.Intn(12),
	})
	fm := moft.New("FM")
	for _, oid := range gen.Objects() {
		for _, tp := range gen.ObjectTuples(oid) {
			fm.Add(2*oid+100, tp.T, tp.X, tp.Y)
		}
	}
	lo, hi, _ := gen.TimeSpan()
	ids := city.Ln.IDs(layer.KindPolygon)
	inside := func() geom.Point {
		pg, _ := city.Ln.Polygon(ids[rng.Intn(len(ids))])
		return pg.Centroid()
	}
	for k := 0; k < 3; k++ {
		c := inside()
		fm.Add(moft.Oid(500+k), lo+timedim.Instant(rng.Int63n(int64(hi-lo)+1)), c.X, c.Y)
	}
	c := inside()
	fm.Add(600, lo, c.X, c.Y)
	fm.Add(600, hi, c.X, c.Y)
	return intervalWorld{city: city, table: fm, ids: ids}
}

// windows draws the windows the oracle asks: the whole span, random
// ones, zero-width ones, windows off the span on both sides, and
// windows with a bound equal to an integral interval endpoint.
func (r intervalRef) windows(rng *rand.Rand, pgs []geom.Polygon) []timedim.Interval {
	lo, hi, _ := r.tbl.TimeSpan()
	at := func() timedim.Instant { return lo + timedim.Instant(rng.Int63n(int64(hi-lo)+1)) }
	a, b, m := at(), at(), at()
	out := []timedim.Interval{
		{Lo: lo, Hi: hi},
		{Lo: min(a, b), Hi: max(a, b)},
		{Lo: m, Hi: m},
		{Lo: hi + 1, Hi: hi + 600},
		{Lo: lo - 600, Hi: lo - 1},
	}
	var ends []timedim.Instant
	for _, l := range r.lits {
		for _, pg := range pgs {
			for _, iv := range l.InsidePolygonIntervals(pg) {
				for _, e := range []float64{iv.Lo, iv.Hi} {
					if e == float64(int64(e)) {
						ends = append(ends, timedim.Instant(e))
					}
				}
			}
		}
	}
	slices.Sort(ends)
	for k := 0; k < 3 && len(ends) > 0; k++ {
		e := ends[rng.Intn(len(ends))]
		d := timedim.Instant(rng.Intn(900))
		out = append(out, timedim.Interval{Lo: e, Hi: e + d}, timedim.Interval{Lo: e - d, Hi: e}, timedim.Interval{Lo: e, Hi: e})
	}
	return out
}

// TestInterpolatedRoutesMatchReference: every interpolated route —
// CountRegionSet ungrouped and by 7 s, hour and day,
// ObjectsPassingThrough, TimeSpentInside, CountPassingThroughGeometries
// — equals (reflect.DeepEqual) the per-object reference, on a fresh
// version and on a version derived by a batch that grows trajectories
// and one-sample objects and adds an object whose oid is lower than
// every stored one, through the long-lived engine that settles its
// carried columns and through a fresh engine.
func TestInterpolatedRoutesMatchReference(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		iw := newIntervalWorld(seed, rng)
		fctx, eng := iw.city.Context(iw.table)
		eng.SetMetrics(obs.NewMetrics(obs.NewRegistry()))
		check := func(stage string, e *core.Engine, tbl *moft.Table) bool {
			ref := newIntervalRef(t, tbl)
			var ids []layer.Gid
			var pgs []geom.Polygon
			for _, id := range iw.ids {
				if len(ids) == 0 || rng.Intn(2) == 0 {
					pg, _ := iw.city.Ln.Polygon(id)
					ids, pgs = append(ids, id), append(pgs, pg)
				}
			}
			fail := func(route string, w timedim.Interval, got, want any) bool {
				t.Logf("seed %d %s %s window %v:\n got %#v\nwant %#v", seed, stage, route, w, got, want)
				return false
			}
			for _, w := range ref.windows(rng, pgs) {
				for _, width := range []int64{0, 7, timedim.SecondsPerHour, timedim.SecondsPerDay} {
					got, err := e.CountRegionSet(ctx, core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: ids, Window: w, Granule: width})
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.count(pgs, w, width); !reflect.DeepEqual(got, want) {
						return fail("CountRegionSet", w, got, want)
					}
				}
				n, err := e.CountPassingThroughGeometries(ctx, "FM", "Ln", ids, w)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.count(pgs, w, 0).Total; n != want {
					return fail("CountPassingThroughGeometries", w, n, want)
				}
				for _, pg := range pgs {
					oids, err := e.ObjectsPassingThrough(ctx, "FM", pg, w)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.passing(pg, w); !reflect.DeepEqual(oids, want) {
						return fail("ObjectsPassingThrough", w, oids, want)
					}
					spent, err := e.TimeSpentInside(ctx, "FM", pg, w)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.timeSpent(pg, w); !reflect.DeepEqual(spent, want) {
						return fail("TimeSpentInside", w, spent, want)
					}
				}
			}
			return true
		}
		if !check("fresh", eng, iw.table) {
			return false
		}

		// A batch: later samples of stored objects (the one-sample ones
		// among them), and a new object below every stored oid.
		cur := iw.table
		lo, hi, _ := cur.TimeSpan()
		var batch []moft.Tuple
		objs := cur.Objects()
		for _, oid := range append([]moft.Oid{500}, objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]) {
			last := cur.ObjectTuples(oid)[len(cur.ObjectTuples(oid))-1]
			if slices.ContainsFunc(batch, func(tp moft.Tuple) bool { return tp.Oid == oid }) {
				continue
			}
			p := iw.city.Extent.Center()
			batch = append(batch,
				moft.Tuple{Oid: oid, T: last.T + 1 + timedim.Instant(rng.Intn(600)), X: p.X, Y: p.Y})
		}
		c := iw.city.Extent.Center()
		for k, ts := range []timedim.Instant{lo + (hi-lo)/3, lo + 2*(hi-lo)/3} {
			batch = append(batch, moft.Tuple{Oid: 5, T: ts, X: c.X + float64(k), Y: c.Y})
		}
		next, err := cur.WithAppended(batch)
		if err != nil {
			t.Fatal(err)
		}
		fctx.AddTable(next)
		return check("derived", eng, next) && check("derived/fresh-engine", core.New(fctx), next)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestIntervalColumnScansWindowOnly: an interpolated read scans the
// column entries its window reaches, not every entry of the polygon.
// Every entry starting inside the window overlaps it, so what a read
// scans beyond the overlapping entries lies in blocks that start
// before the window: the block holding the window start, and the
// blocks reached only because they hold an interval that begins before
// the window and reaches into it. For a window over a tenth of the
// span, in a world where one object is parked inside a polygon all
// day, every interpolated route scans at most the overlapping entries
// plus one block per polygon plus one block per such straddling block
// — the parked interval widens only its own.
func TestIntervalColumnScansWindowOnly(t *testing.T) {
	ctx := context.Background()
	city := workload.GenCity(workload.CityConfig{Seed: 3, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 5, Objects: 300, Samples: 100})
	lo, hi, _ := fm.TimeSpan()
	parkedIn, _ := city.Ln.Polygon(1)
	c := parkedIn.Centroid()
	const parked = moft.Oid(9000)
	for ts := lo; ts < hi; ts += 600 {
		fm.Add(parked, ts, c.X, c.Y)
	}
	fm.Add(parked, hi, c.X, c.Y)
	_, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	ids := city.Ln.IDs(layer.KindPolygon)
	pgs := make([]geom.Polygon, len(ids))
	for i, id := range ids {
		pgs[i], _ = city.Ln.Polygon(id)
	}
	span := hi - lo
	w := timedim.Interval{Lo: lo + span*45/100, Hi: lo + span*55/100}
	wlo, whi := float64(w.Lo), float64(w.Hi)

	// Per polygon, from the reference in (start, oid) order: the
	// entries overlapping the window and the bound on what a read of it
	// may scan.
	ref := newIntervalRef(t, fm)
	type entry struct {
		iv  traj.TimeInterval
		oid moft.Oid
	}
	entries, overlapping, bound := 0, 0, 0
	boundIn := make([]int, len(pgs))
	for i, pg := range pgs {
		var ents []entry
		for oid, l := range ref.lits {
			for _, iv := range l.InsidePolygonIntervals(pg) {
				ents = append(ents, entry{iv, oid})
			}
		}
		slices.SortFunc(ents, func(a, b entry) int {
			if a.iv.Lo != b.iv.Lo {
				return cmp.Compare(a.iv.Lo, b.iv.Lo)
			}
			return cmp.Compare(a.oid, b.oid)
		})
		straddling := map[int]bool{}
		n := 0
		for k, en := range ents {
			if en.iv.Lo <= whi && wlo <= en.iv.Hi {
				n++
				if en.iv.Lo < wlo {
					straddling[k/core.IntervalBlock] = true
				}
			}
		}
		if i == 0 && len(straddling) == 0 {
			t.Fatal("the parked object's interval does not straddle the window start")
		}
		entries += len(ents)
		overlapping += n
		boundIn[i] = n + core.IntervalBlock*(1+len(straddling))
		bound += boundIn[i]
	}
	// Fill the cache over the whole span first: the scans below are hits.
	if _, err := eng.CountRegionSet(ctx, core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: ids, Window: timedim.Interval{Lo: lo, Hi: hi}}); err != nil {
		t.Fatal(err)
	}
	scanned := func(run func() error) int {
		t.Helper()
		before := met.IntervalEntriesScanned.Value()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return int(met.IntervalEntriesScanned.Value() - before)
	}
	for _, width := range []int64{0, timedim.SecondsPerHour} {
		n := scanned(func() error {
			_, err := eng.CountRegionSet(ctx, core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: ids, Window: w, Granule: width})
			return err
		})
		t.Logf("CountRegionSet granule %d: scanned %d entries, %d overlap the window, bound %d, %d in all", width, n, overlapping, bound, entries)
		if n < overlapping || n > bound {
			t.Errorf("CountRegionSet granule %d scanned %d entries, want %d..%d", width, n, overlapping, bound)
		}
	}
	for i, pg := range pgs {
		var oids []moft.Oid
		n := scanned(func() error {
			var err error
			oids, err = eng.ObjectsPassingThrough(ctx, "FM", pg, w)
			if err != nil {
				return err
			}
			_, err = eng.TimeSpentInside(ctx, "FM", pg, w)
			return err
		})
		if n > 2*boundIn[i] {
			t.Errorf("polygon %d: ObjectsPassingThrough and TimeSpentInside scanned %d entries, want <= 2 x %d", ids[i], n, boundIn[i])
		}
		if i == 0 && !slices.Contains(oids, parked) {
			t.Errorf("the object parked in polygon %d all day does not pass through it during %v", ids[i], w)
		}
	}
}

// TestIntervalHitAllocatesNoKey: an interpolated CountRegionSet that
// hits the interval cache for every polygon allocates no more than one
// over a single polygon — a cache lookup builds no key string.
func TestIntervalHitAllocatesNoKey(t *testing.T) {
	w := newRobustWorkload(t)
	w.eng.SetTelemetry(nil)
	ctx := context.Background()
	all := []layer.Gid{}
	for id := layer.Gid(1); id <= 16; id++ {
		all = append(all, id)
	}
	allocs := func(ids []layer.Gid) float64 {
		q := core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: ids, Window: w.win}
		if _, err := w.eng.CountRegionSet(ctx, q); err != nil { // fill the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := w.eng.CountRegionSet(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(all[:1]), allocs(all)
	if many > one {
		t.Errorf("a hit over %d polygons allocates %.0f times, over one %.0f: want no allocation per polygon", len(all), many, one)
	}
}

// BenchmarkRegionSetInterpolatedHit times the interpolated
// CountRegionSet hit path without HTTP: a static table, a 30-polygon
// region set whose interval columns are all cached, and windows of 10,
// 30 and 60 minutes placed like the end-to-end benchmark's, ungrouped
// and by hour.
func BenchmarkRegionSetInterpolatedHit(b *testing.B) {
	city := workload.GenCity(workload.CityConfig{Seed: 1, Cols: 6, Rows: 5})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 1, Objects: 1000, Samples: 100})
	lo, _, _ := fm.TimeSpan()
	_, eng := city.Context(fm)
	eng.SetTelemetry(nil)
	eng.SetMetrics(obs.NewMetrics(obs.NewRegistry()))
	ids := city.Ln.IDs(layer.KindPolygon)
	var windows []timedim.Interval
	for i := 0; i < 64; i++ {
		width := []int{10, 30, 60}[i%3]
		start := lo + timedim.Instant((i*7919)%(90-width+1)*60)
		windows = append(windows, timedim.Interval{Lo: start, Hi: start + timedim.Instant(width*60)})
	}
	ctx := context.Background()
	for _, g := range []struct {
		name  string
		width int64
	}{{"ungrouped", 0}, {"hour", timedim.SecondsPerHour}} {
		b.Run(g.name, func(b *testing.B) {
			q := core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: ids, Granule: g.width}
			for _, w := range windows { // fill the interval cache
				q.Window = w
				if _, err := eng.CountRegionSet(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Window = windows[i%len(windows)]
				if _, err := eng.CountRegionSet(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

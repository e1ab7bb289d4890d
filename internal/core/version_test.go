package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mogis/internal/core"
	"mogis/internal/faultpoint"
	"mogis/internal/fo"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/scenario"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// versionWorkload is a randomized city whose FM table moves through
// versions made by moft.Table.WithAppended, the way live ingest makes
// them, with one long-lived engine over the model context.
type versionWorkload struct {
	w      *robustWorkload
	fctx   *fo.Context
	extent geom.BBox
	rng    *rand.Rand
	newOid moft.Oid
}

func newVersionWorkload(t *testing.T, seed int64) *versionWorkload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	city := workload.GenCity(workload.CityConfig{Seed: seed, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed:    seed * 31,
		Objects: 24 + rng.Intn(16),
		Samples: 8 + rng.Intn(8),
	})
	lo, hi, _ := fm.TimeSpan()
	fctx, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	pg, ok := city.Ln.Polygon(layer.Gid(1 + rng.Intn(8)))
	if !ok {
		t.Fatal("city has no neighborhood polygon")
	}
	return &versionWorkload{
		w: &robustWorkload{
			eng: eng, met: met, pg: pg,
			center: city.Extent.Center(),
			radius: city.Extent.Width() / 4,
			// The window reaches past every instant a batch can add.
			win: timedim.Interval{Lo: lo, Hi: hi + timedim.SecondsPerDay},
			mid: lo + (hi-lo)/2,
		},
		fctx: fctx, extent: city.Extent, rng: rng, newOid: 1000,
	}
}

// batch draws a valid batch for cur: later samples of stored objects,
// objects new to the table with one sample (a later batch may grow
// them), and exact repeats of stored rows, which are no-ops. Now and
// then every row is a repeat, so the batch makes no new version.
func (v *versionWorkload) batch(cur *moft.Table) []moft.Tuple {
	rng := v.rng
	objs := cur.Objects()
	lo, hi, _ := cur.TimeSpan()
	repeatsOnly := rng.Intn(6) == 0
	latest := map[moft.Oid]timedim.Instant{}
	var rows []moft.Tuple
	for n := rng.Intn(8) + 1; n > 0; n-- {
		at := geom.Pt(v.extent.MinX+rng.Float64()*v.extent.Width(), v.extent.MinY+rng.Float64()*v.extent.Height())
		switch r := rng.Intn(10); {
		case r == 0 || repeatsOnly:
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
			ts := l + 1 + timedim.Instant(rng.Intn(900))
			rows = append(rows, moft.Tuple{Oid: o, T: ts, X: at.X, Y: at.Y})
			latest[o] = ts
		}
	}
	return rows
}

// answers runs every per-object entry point on q.
func answers(t *testing.T, w *robustWorkload, q core.Querier) map[string]any {
	t.Helper()
	out := map[string]any{}
	for name, run := range routeQueries(w, q) {
		v, err := run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = v
	}
	return out
}

// TestDerivedCachesMatchFreshBuild is the equivalence gate of the
// per-version caches: along a chain of random batches — new objects,
// single-sample objects that grow, repeat-only batches, versions no
// reader sees — every per-object entry point of the long-lived engine,
// whose caches derive from the previous version's, answers exactly
// (reflect.DeepEqual) like a fresh engine on the same version, and each
// interval column it settled equals the one the fresh engine built.
func TestDerivedCachesMatchFreshBuild(t *testing.T) {
	carried, columns := int64(0), 0
	f := func(seed int64) bool {
		v := newVersionWorkload(t, seed%1000+1)
		answers(t, v.w, v.w.eng) // the first version's caches
		for step := 0; step < 6; step++ {
			cur, err := v.fctx.Table("FM")
			if err != nil {
				t.Fatal(err)
			}
			next, err := cur.WithAppended(v.batch(cur))
			if err != nil {
				t.Logf("seed %d step %d: valid batch rejected: %v", seed, step, err)
				return false
			}
			v.fctx.AddTable(next)
			if v.rng.Intn(4) == 0 {
				continue // a version no reader sees
			}
			got := answers(t, v.w, v.w.eng)
			fresh := core.New(v.fctx)
			want := answers(t, v.w, fresh)
			for name, g := range got {
				if !reflect.DeepEqual(g, want[name]) {
					t.Logf("seed %d step %d %s:\n got %#v\nwant %#v", seed, step, name, g, want[name])
					return false
				}
			}
			// Every interval column the fresh engine built, the
			// long-lived engine has settled to the same column.
			settled := core.IntervalColumns(v.w.eng, "FM")
			for key, want := range core.IntervalColumns(fresh, "FM") {
				if col, ok := settled[key]; !ok || !reflect.DeepEqual(col, want) {
					t.Logf("seed %d step %d: settled=%v column\n got %+v\nwant %+v", seed, step, ok, col, want)
					return false
				}
				columns++
			}
		}
		carried += v.w.met.IntervalObjectsRecomputed.Value()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
	if carried == 0 {
		t.Error("no interval entry was ever carried over to a new version")
	}
	if columns == 0 {
		t.Error("no settled interval column was compared with a fresh build")
	}
}

// TestDerivedCacheWork: after a batch touching k objects, the first
// reader of the new version interpolates exactly those k objects,
// recomputes intervals only for them in each polygon it looks up,
// clipping only their new legs, and answers sampled queries from the
// inherited grid plus a tail: no grid build and no time order. A run of
// batches whose tail passes the compaction bound builds exactly one
// grid.
func TestDerivedCacheWork(t *testing.T) {
	city := workload.GenCity(workload.CityConfig{Seed: 7, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 11, Objects: 64, Samples: 40})
	lo, hi, _ := fm.TimeSpan()
	fctx, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	ids := []layer.Gid{1, 2, 3, 4}
	win := timedim.Interval{Lo: lo, Hi: hi + timedim.SecondsPerHour}
	query := func(ctx context.Context) {
		t.Helper()
		for _, sampled := range []bool{false, true} {
			q := core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: ids, Window: win, SampledOnly: sampled}
			if _, err := eng.CountRegionSet(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	query(context.Background())

	touched := []moft.Oid{3, 9, 17, 33, 60}
	var batch []moft.Tuple
	for i, o := range touched {
		tps := fm.ObjectTuples(o)
		last := tps[len(tps)-1]
		c := city.Extent.Center()
		batch = append(batch,
			moft.Tuple{Oid: o, T: last.T + 60, X: c.X + float64(i), Y: c.Y},
			moft.Tuple{Oid: o, T: last.T + 120, X: last.X, Y: last.Y})
	}
	next, err := fm.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	fctx.AddTable(next)

	interp, recomputed := met.ObjectsInterpolated.Value(), met.IntervalObjectsRecomputed.Value()
	legs, builds := met.IntervalLegsClipped.Value(), met.AggGridBuilds.Value()
	orders := obs.Std.MOFTTimeOrders.Value()
	tr := obs.NewTracer("derive")
	query(obs.WithTracer(context.Background(), tr))
	root := tr.Finish()

	k := int64(len(touched))
	if n := met.ObjectsInterpolated.Value() - interp; n != k {
		t.Errorf("objects interpolated = %d, want %d", n, k)
	}
	if n := met.IntervalObjectsRecomputed.Value() - recomputed; n <= 0 || n > k*int64(len(ids)) {
		t.Errorf("interval objects recomputed = %d, want 1..%d", n, k*int64(len(ids)))
	}
	// Each touched object gained two samples, so two legs.
	if n := met.IntervalLegsClipped.Value() - legs; n <= 0 || n > 2*k*int64(len(ids)) {
		t.Errorf("interval legs clipped = %d, want 1..%d", n, 2*k*int64(len(ids)))
	}
	if n := met.AggGridBuilds.Value() - builds; n != 0 {
		t.Errorf("grid builds = %d, want 0", n)
	}
	if n := obs.Std.MOFTTimeOrders.Value() - orders; n != 0 {
		t.Errorf("time order builds = %d, want 0", n)
	}
	sp := root.Find("derive_cache")
	if sp == nil {
		t.Fatalf("no derive_cache span in\n%s", root.Format())
	}
	if sp.Count("objects") != 64 || sp.Count("changed") != k || sp.Count("entries") != int64(len(ids)) {
		t.Errorf("derive_cache counts objects=%d changed=%d entries=%d, want 64, %d, %d",
			sp.Count("objects"), sp.Count("changed"), sp.Count("entries"), k, len(ids))
	}

	// The version's caches are built: asking again does no work.
	interp, recomputed = met.ObjectsInterpolated.Value(), met.IntervalObjectsRecomputed.Value()
	query(context.Background())
	if met.ObjectsInterpolated.Value() != interp || met.IntervalObjectsRecomputed.Value() != recomputed {
		t.Error("a second reader of the version redid derivation work")
	}

	// Batches of 40 rows grow the tail until it passes the bound: the
	// first reader past it compacts, and only that one.
	cur, tail, base := next, int64(len(batch)), int64(fm.Len())
	builds = met.AggGridBuilds.Value()
	compactions, after := 0, 0
	for i := 0; after < 2; i++ {
		if compactions > 0 {
			after++ // two more batches after the compaction
		}
		if i == 20 {
			t.Fatal("the tail never passed the compaction bound")
		}
		var rows []moft.Tuple
		for o := moft.Oid(1); o <= 20; o++ {
			last := cur.ObjectTuples(o)[len(cur.ObjectTuples(o))-1]
			rows = append(rows,
				moft.Tuple{Oid: o, T: last.T + 30, X: last.X, Y: last.Y},
				moft.Tuple{Oid: o, T: last.T + 60, X: last.X, Y: last.Y})
		}
		if cur, err = cur.WithAppended(rows); err != nil {
			t.Fatal(err)
		}
		fctx.AddTable(cur)
		if tail += int64(len(rows)); tail*core.CompactDivisor > base {
			base, tail = base+tail, 0
			compactions++
		}
		query(context.Background())
	}
	if compactions != 1 {
		t.Fatalf("the batches compacted %d times, want 1", compactions)
	}
	if n := met.AggGridBuilds.Value() - builds; n != 1 {
		t.Errorf("grid builds over a run of batches past the bound = %d, want 1", n)
	}
}

// TestLoadInPlaceSeenWithoutInvalidate: rows loaded into a table that
// queries have read are seen by the next query with no call on the
// engine — loading gives the table a new version, which misses every
// cache of the old one.
func TestLoadInPlaceSeenWithoutInvalidate(t *testing.T) {
	s := sc(t)
	ctx := context.Background()
	berchem, _ := s.Ln.Polygon(scenario.PgBerchem)
	iv := timedim.Interval{Lo: scenario.T(1), Hi: scenario.T(6)}
	before, err := s.Engine.CountSamplesInside(ctx, "FMbus", berchem, iv)
	if err != nil {
		t.Fatal(err)
	}
	lits, err := s.Engine.Trajectories(ctx, "FMbus")
	if err != nil {
		t.Fatal(err)
	}
	c := berchem.Centroid()
	s.FMbus.Add(99, scenario.T(2), c.X, c.Y)
	after, err := s.Engine.CountSamplesInside(ctx, "FMbus", berchem, iv)
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Errorf("count %d after loading a sample inside, want %d", after, before+1)
	}
	got, err := s.Engine.Trajectories(ctx, "FMbus")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[99]; !ok || len(got) != len(lits)+1 {
		t.Errorf("trajectories %d after loading object 99 (present %v), want %d", len(got), ok, len(lits)+1)
	}
}

// TestNoTornReads: queries race the publication of new versions whose
// samples fall inside the query windows. Every answer must be the
// answer of one single version — the oracle, a fresh engine on that
// version — never a mix of the structures of two. The grouped
// interpolated shape catches a mix: its granules span the time extent
// of the version it read first, so intervals from a later version
// count in its total but in none of its granules.
func TestNoTornReads(t *testing.T) {
	city := workload.GenCity(workload.CityConfig{Seed: 5, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 13, Objects: 40, Samples: 12, Step: 300})
	lo, _, _ := fm.TimeSpan()
	inside, ok := city.Ln.Polygon(1)
	if !ok {
		t.Fatal("city has no neighborhood polygon 1")
	}
	c := inside.Centroid()

	// Each version adds objects that sit inside polygon 1 in the ten
	// minutes after the previous version's last instant, so every
	// version reaches later into the windows and counts more objects.
	const versions = 40
	chain := []*moft.Table{fm}
	for i := 1; i <= versions; i++ {
		cur := chain[i-1]
		_, hi, _ := cur.TimeSpan()
		var batch []moft.Tuple
		for k := 0; k < 3; k++ {
			o := moft.Oid(1000 + 3*i + k)
			batch = append(batch,
				moft.Tuple{Oid: o, T: hi + 300, X: c.X, Y: c.Y},
				moft.Tuple{Oid: o, T: hi + 600, X: c.X + 0.1, Y: c.Y})
		}
		next, err := cur.WithAppended(batch)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
	}

	win := timedim.Interval{Lo: lo, Hi: lo + 2*timedim.SecondsPerDay}
	shapes := map[string]core.RegionSetQuery{
		"interpolated-hour": {Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2}, Window: win, Granule: timedim.SecondsPerHour},
		"interpolated":      {Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2}, Window: win},
		"sampled-hour":      {Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 3}, Window: win, Granule: timedim.SecondsPerHour, SampledOnly: true},
	}
	names := make([]string, 0, len(shapes))
	oracle := map[string][]core.RegionSetCount{}
	for name, q := range shapes {
		names = append(names, name)
		for _, tb := range chain {
			_, fresh := city.Context(tb)
			res, err := fresh.CountRegionSet(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			oracle[name] = append(oracle[name], res)
		}
	}
	oneVersion := func(name string, got core.RegionSetCount) bool {
		for _, want := range oracle[name] {
			if reflect.DeepEqual(got, want) {
				return true
			}
		}
		return false
	}

	fctx, eng := city.Context(fm)
	eng.SetMetrics(obs.NewMetrics(obs.NewRegistry()))
	// Stall every trajectory build, so that versions are published
	// while builds are under way.
	faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModeDelay, 300*time.Microsecond)
	defer faultpoint.Reset()
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				name := names[i%len(names)]
				got, err := eng.CountRegionSet(context.Background(), shapes[name])
				if err != nil {
					errs <- err
					return
				}
				if !oneVersion(name, got) {
					errs <- fmt.Errorf("%s: answer %+v is no single version's", name, got)
					return
				}
			}
		}(r)
	}
	for _, tb := range chain[1:] {
		time.Sleep(time.Millisecond)
		fctx.AddTable(tb)
	}
	time.Sleep(time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for _, name := range names {
		got, err := eng.CountRegionSet(context.Background(), shapes[name])
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle[name][versions]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s after the last version: %+v, want %+v", name, got, want)
		}
	}
}

package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mogis/internal/core"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// newFuzzFixture builds one randomized city+trajectory workload (the
// identity and fuzz tests sweep several seeds) with an engine over it
// reporting to isolated metrics.
func newFuzzFixture(t *testing.T, seed int64) (*robustWorkload, *moft.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	city := workload.GenCity(workload.CityConfig{Seed: seed, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed:    seed * 31,
		Objects: 40 + rng.Intn(24),
		Samples: 20 + rng.Intn(16),
	})
	lo, hi, _ := fm.TimeSpan()
	_, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	pg, ok := city.Ln.Polygon(layer.Gid(1 + rng.Intn(8)))
	if !ok {
		t.Fatal("city has no neighborhood polygon")
	}
	w := &robustWorkload{
		eng: eng, met: met, pg: pg,
		center: city.Extent.Center(),
		radius: city.Extent.Width() / 4,
		win:    timedim.Interval{Lo: lo, Hi: hi - (hi-lo)/4},
		mid:    lo + (hi-lo)/2,
	}
	return w, fm
}

// scanEngine returns a second engine over eng's model context with
// the grid disabled: the scan-path oracle every grid route must equal.
func scanEngine(eng *core.Engine) *core.Engine {
	e := core.New(eng.Context())
	e.SetMetrics(obs.NewMetrics(obs.NewRegistry()))
	e.SetAggGrid(-1)
	return e
}

// routeQueries enumerates every per-object trajectory entry point as a
// (name, run) pair returning an arbitrary comparable value;
// reflect.DeepEqual on the values is the byte-identity check (it
// distinguishes nil from empty slices and maps). Every windowed entry
// point runs on the workload window, on a window that ends before the
// table's first sample (the grid's time-skip path) and on a
// zero-width window at the workload's mid instant.
func routeQueries(w *robustWorkload, q core.Querier) map[string]func(ctx context.Context) (any, error) {
	out := map[string]func(ctx context.Context) (any, error){
		"ObjectsSampledAt": func(ctx context.Context) (any, error) {
			v, err := q.ObjectsSampledAt(ctx, "FM", w.mid, w.pg)
			return v, err
		},
		"ObjectsInterpolatedAt": func(ctx context.Context) (any, error) {
			v, err := q.ObjectsInterpolatedAt(ctx, "FM", w.mid, w.pg)
			return v, err
		},
		"Trajectories": func(ctx context.Context) (any, error) {
			lits, err := q.Trajectories(ctx, "FM")
			if err != nil {
				return nil, err
			}
			// Compare content, not cache pointers: per-oid samples.
			out := make(map[moft.Oid]any, len(lits))
			for oid, l := range lits {
				out[oid] = l.Sample()
			}
			return out, nil
		},
		"TrajectoryAggregate": func(ctx context.Context) (any, error) {
			v, err := q.TrajectoryAggregate(ctx, "FM", 7)
			return v, err
		},
	}
	windows := map[string]timedim.Interval{
		"":            w.win,
		"/off-extent": {Lo: w.win.Lo - 500, Hi: w.win.Lo - 1},
		"/zero-width": {Lo: w.mid, Hi: w.mid},
	}
	for suffix, win := range windows {
		windowed := map[string]func(ctx context.Context) (any, error){
			"ObjectsPassingThrough": func(ctx context.Context) (any, error) {
				v, err := q.ObjectsPassingThrough(ctx, "FM", w.pg, win)
				return v, err
			},
			"ObjectsSampledInside": func(ctx context.Context) (any, error) {
				v, err := q.ObjectsSampledInside(ctx, "FM", w.pg, win)
				return v, err
			},
			"CountSamplesInside": func(ctx context.Context) (any, error) {
				v, err := q.CountSamplesInside(ctx, "FM", w.pg, win)
				return v, err
			},
			"TimeSpentInside": func(ctx context.Context) (any, error) {
				v, err := q.TimeSpentInside(ctx, "FM", w.pg, win)
				return v, err
			},
			"ObjectsEverWithinRadius": func(ctx context.Context) (any, error) {
				v, err := q.ObjectsEverWithinRadius(ctx, "FM", w.center, w.radius, win)
				return v, err
			},
			"CountPassingThroughGeometries": func(ctx context.Context) (any, error) {
				v, err := q.CountPassingThroughGeometries(ctx, "FM", "Ln", []layer.Gid{1, 2, 3}, win)
				return v, err
			},
			"CountRegionSet/sampled-hour": func(ctx context.Context) (any, error) {
				v, err := q.CountRegionSet(ctx, regionSetQuery(win, true, timedim.SecondsPerHour))
				return v, err
			},
			"CountRegionSet/interpolated-hour": func(ctx context.Context) (any, error) {
				v, err := q.CountRegionSet(ctx, regionSetQuery(win, false, timedim.SecondsPerHour))
				return v, err
			},
			"CountRegionSet/sampled-ungrouped": func(ctx context.Context) (any, error) {
				v, err := q.CountRegionSet(ctx, regionSetQuery(win, true, 0))
				return v, err
			},
			"ObjectsPossiblyPassingThrough": func(ctx context.Context) (any, error) {
				v, err := q.ObjectsPossiblyPassingThrough(ctx, "FM", w.pg, win, 1.5)
				return v, err
			},
		}
		for name, run := range windowed {
			out[name+suffix] = run
		}
	}
	return out
}

// regionSetQuery is the workload's CountRegionSet shape: neighborhoods
// 1–3 over win.
func regionSetQuery(win timedim.Interval, sampled bool, granule int64) core.RegionSetQuery {
	return core.RegionSetQuery{
		Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2, 3}, Window: win,
		Granule: granule, SampledOnly: sampled,
	}
}

// TestRouteIdentity is the route-independence property test: on
// randomized tables, every entry point must answer byte-identically
// (reflect.DeepEqual, including nil-vs-empty conventions) whichever
// route the engine takes — grid disabled or grid on — and whether the
// per-object fan-out runs serial or on the default worker pool. The
// oracle is a second, grid-off, one-worker engine over the same model.
func TestRouteIdentity(t *testing.T) {
	routes := []struct {
		name  string
		apply func(e *core.Engine)
	}{
		{"grid-off", func(e *core.Engine) { e.SetAggGrid(-1) }},
		{"grid-on", func(e *core.Engine) { e.SetAggGrid(0) }},
	}
	run := func(t *testing.T, w *robustWorkload, q *core.Engine, label string) map[string]any {
		t.Helper()
		q.ResetCache()
		out := map[string]any{}
		for name, run := range routeQueries(w, q) {
			v, err := run(context.Background())
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			out[name] = v
		}
		return out
	}
	for _, seed := range []int64{3, 17, 42} {
		w, _ := newFuzzFixture(t, seed)
		oracle := scanEngine(w.eng)
		oracle.SetWorkers(1)
		want := run(t, w, oracle, "oracle")
		for _, rt := range routes {
			for _, workers := range []int{1, 0} {
				rt.apply(w.eng)
				w.eng.SetWorkers(workers)
				label := rt.name
				if workers == 0 {
					label += "/default-workers"
				} else {
					label += "/1-worker"
				}
				got := run(t, w, w.eng, label)
				for name, v := range got {
					if !reflect.DeepEqual(v, want[name]) {
						t.Errorf("seed %d %s %s diverged:\n got %#v\nwant %#v", seed, label, name, v, want[name])
					}
				}
			}
		}
		if w.met.AggGridTimeSkips.Value() == 0 {
			t.Errorf("seed %d: the off-extent window never took the time-skip path", seed)
		}
	}
}

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

// routeQueries enumerates every per-object trajectory entry point as a
// (name, run) pair returning an arbitrary comparable value;
// reflect.DeepEqual on the values is the byte-identity check (it
// distinguishes nil from empty slices and maps).
func routeQueries(w *robustWorkload, q core.Querier) map[string]func(ctx context.Context) (any, error) {
	return map[string]func(ctx context.Context) (any, error){
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
		"ObjectsPassingThrough": func(ctx context.Context) (any, error) {
			v, err := q.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
			return v, err
		},
		"ObjectsSampledInside": func(ctx context.Context) (any, error) {
			v, err := q.ObjectsSampledInside(ctx, "FM", w.pg, w.win)
			return v, err
		},
		"CountSamplesInside": func(ctx context.Context) (any, error) {
			v, err := q.CountSamplesInside(ctx, "FM", w.pg, w.win)
			return v, err
		},
		"TimeSpentInside": func(ctx context.Context) (any, error) {
			v, err := q.TimeSpentInside(ctx, "FM", w.pg, w.win)
			return v, err
		},
		"ObjectsEverWithinRadius": func(ctx context.Context) (any, error) {
			v, err := q.ObjectsEverWithinRadius(ctx, "FM", w.center, w.radius, w.win)
			return v, err
		},
		"CountPassingThroughGeometries": func(ctx context.Context) (any, error) {
			v, err := q.CountPassingThroughGeometries(ctx, "FM", "Ln", []layer.Gid{1, 2, 3}, w.win)
			return v, err
		},
		"CountRegionSet/sampled-hour": func(ctx context.Context) (any, error) {
			v, err := q.CountRegionSet(ctx, regionSetQuery(w, true, timedim.SecondsPerHour))
			return v, err
		},
		"CountRegionSet/interpolated-hour": func(ctx context.Context) (any, error) {
			v, err := q.CountRegionSet(ctx, regionSetQuery(w, false, timedim.SecondsPerHour))
			return v, err
		},
		"CountRegionSet/sampled-ungrouped": func(ctx context.Context) (any, error) {
			v, err := q.CountRegionSet(ctx, regionSetQuery(w, true, 0))
			return v, err
		},
		"TrajectoryAggregate": func(ctx context.Context) (any, error) {
			v, err := q.TrajectoryAggregate(ctx, "FM", 7)
			return v, err
		},
		"ObjectsPossiblyPassingThrough": func(ctx context.Context) (any, error) {
			v, err := q.ObjectsPossiblyPassingThrough(ctx, "FM", w.pg, w.win, 1.5)
			return v, err
		},
	}
}

// regionSetQuery is the workload's CountRegionSet shape: neighborhoods
// 1–3 over the workload window.
func regionSetQuery(w *robustWorkload, sampled bool, granule int64) core.RegionSetQuery {
	return core.RegionSetQuery{
		Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2, 3}, Window: w.win,
		Granule: granule, SampledOnly: sampled,
	}
}

// TestRouteIdentity is the route-independence property test: on
// randomized tables, every entry point must answer byte-identically
// (reflect.DeepEqual, including nil-vs-empty conventions) whichever
// route the engine takes — grid disabled, grid on, grid on in verify
// mode — and whether the per-object fan-out runs serial or on the
// default worker pool. The oracle is the grid-off, one-worker answer.
func TestRouteIdentity(t *testing.T) {
	routes := []struct {
		name  string
		apply func(e *core.Engine)
	}{
		{"grid-off", func(e *core.Engine) { e.SetAggGrid(-1) }},
		{"grid-on", func(e *core.Engine) { e.SetAggGrid(0) }},
		{"grid-verify", func(e *core.Engine) { e.SetAggGrid(0); e.SetGridVerify(true) }},
	}
	run := func(t *testing.T, w *robustWorkload, label string) map[string]any {
		t.Helper()
		w.eng.ResetCache()
		out := map[string]any{}
		for name, q := range routeQueries(w, w.eng) {
			v, err := q(context.Background())
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			out[name] = v
		}
		return out
	}
	for _, seed := range []int64{3, 17, 42} {
		w, _ := newFuzzFixture(t, seed)
		w.eng.SetAggGrid(-1)
		w.eng.SetWorkers(1)
		want := run(t, w, "oracle")
		for _, rt := range routes {
			for _, workers := range []int{1, 0} {
				w.eng.SetGridVerify(false)
				rt.apply(w.eng)
				w.eng.SetWorkers(workers)
				label := rt.name
				if workers == 0 {
					label += "/default-workers"
				} else {
					label += "/1-worker"
				}
				got := run(t, w, label)
				for name, v := range got {
					if !reflect.DeepEqual(v, want[name]) {
						t.Errorf("seed %d %s %s diverged:\n got %#v\nwant %#v", seed, label, name, v, want[name])
					}
				}
			}
		}
		if n := w.met.AggGridMismatches.Value(); n != 0 {
			t.Errorf("seed %d: verify mode found %d grid/scan mismatches", seed, n)
		}
	}
}

package core_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mogis/internal/core"
	"mogis/internal/faultpoint"
	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/obs"
	"mogis/internal/qerr"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// robustWorkload builds a generated-city engine with isolated metrics
// and enough objects (64 > serialThreshold) to exercise the parallel
// fan-out, plus the query shapes the robustness tests reuse.
type robustWorkload struct {
	eng    *core.Engine
	met    *obs.Metrics
	pg     geom.Polygon
	center geom.Point
	radius float64
	win    timedim.Interval
	mid    timedim.Instant
}

func newRobustWorkload(t *testing.T) *robustWorkload {
	t.Helper()
	city := workload.GenCity(workload.CityConfig{Seed: 7, Cols: 4, Rows: 4})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: 11, Objects: 64, Samples: 40})
	lo, hi, _ := fm.TimeSpan()
	_, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)
	pg, ok := city.Ln.Polygon(1)
	if !ok {
		t.Fatal("city has no neighborhood polygon 1")
	}
	return &robustWorkload{
		eng: eng, met: met, pg: pg,
		center: geom.Pt(city.Extent.MinX+city.Extent.Width()/2, city.Extent.MinY+city.Extent.Height()/2),
		radius: city.Extent.Width() / 4,
		win:    timedim.Interval{Lo: lo, Hi: hi},
		mid:    lo + (hi-lo)/2,
	}
}

// TestPreCancelledContext: a context already cancelled at entry makes
// every trajectory entry point return a cancellation error without
// latching any cache state, and the cancellation counter records it.
func TestPreCancelledContext(t *testing.T) {
	w := newRobustWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	calls := map[string]func() error{
		"Trajectories": func() error {
			_, err := w.eng.Trajectories(ctx, "FM")
			return err
		},
		"ObjectsPassingThrough": func() error {
			_, err := w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
			return err
		},
		"ObjectsSampledInside": func() error {
			_, err := w.eng.ObjectsSampledInside(ctx, "FM", w.pg, w.win)
			return err
		},
		"TimeSpentInside": func() error {
			_, err := w.eng.TimeSpentInside(ctx, "FM", w.pg, w.win)
			return err
		},
		"ObjectsEverWithinRadius": func() error {
			_, err := w.eng.ObjectsEverWithinRadius(ctx, "FM", w.center, w.radius, w.win)
			return err
		},
		"CountSamplesInside": func() error {
			_, err := w.eng.CountSamplesInside(ctx, "FM", w.pg, w.win)
			return err
		},
		"TrajectoryAggregate": func() error {
			_, err := w.eng.TrajectoryAggregate(ctx, "FM", 1)
			return err
		},
		"CountRegionSet/sampled": func() error {
			_, err := w.eng.CountRegionSet(ctx, regionSetQuery(w.win, true, timedim.SecondsPerHour))
			return err
		},
		"CountRegionSet/interpolated": func() error {
			_, err := w.eng.CountRegionSet(ctx, regionSetQuery(w.win, false, timedim.SecondsPerHour))
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !qerr.IsCancel(err) {
			t.Errorf("%s with cancelled ctx: got %v, want cancellation", name, err)
		}
	}
	if tables, objects := w.eng.CacheStats(); tables != 0 || objects != 0 {
		t.Errorf("cancelled queries latched cache state: tables=%d objects=%d", tables, objects)
	}
	if got := w.met.QueriesCancelled.Value(); got < int64(len(calls)) {
		t.Errorf("QueriesCancelled = %d, want >= %d", got, len(calls))
	}
}

// TestCancelDuringBuildAsIfNeverStarted: a deadline that expires
// mid-LIT-build abandons the build without publishing anything, and
// the next query on a live context rebuilds and answers bit-identically
// to an engine that never saw the cancellation.
func TestCancelDuringBuildAsIfNeverStarted(t *testing.T) {
	w := newRobustWorkload(t)
	faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModeDelay, 30*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err := w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
	cancel()
	faultpoint.Reset()
	if !qerr.IsCancel(err) {
		t.Fatalf("deadline mid-build: got %v, want cancellation", err)
	}
	if tables, _ := w.eng.CacheStats(); tables != 0 {
		t.Fatalf("abandoned build latched the LIT cache: tables=%d", tables)
	}

	got, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatalf("retry after abandoned build: %v", err)
	}
	want, err := newRobustWorkload(t).eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	if !eqOids(got, want) {
		t.Errorf("retry after cancel diverged: got %v, want %v", got, want)
	}
	if tables, _ := w.eng.CacheStats(); tables != 1 {
		t.Errorf("retry did not latch the cache: tables=%d", tables)
	}
}

// TestGoroutineLeakAfterCancelledQueries is the leak regression: a
// thousand cancelled queries (pre-cancelled and expiring mid-flight)
// must not strand worker goroutines.
func TestGoroutineLeakAfterCancelledQueries(t *testing.T) {
	w := newRobustWorkload(t)
	// Warm the caches so the loop exercises the fan-out path, not the
	// build path.
	if _, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // pre-cancelled
		} else {
			time.AfterFunc(time.Microsecond, cancel) // races the query
		}
		_, _ = w.eng.ObjectsEverWithinRadius(ctx, "FM", w.center, w.radius, w.win)
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestBudgetMaxRows: a tiny row budget aborts a scan-heavy query with
// a typed *qerr.BudgetError and bumps the rows-exceeded counter.
func TestBudgetMaxRows(t *testing.T) {
	w := newRobustWorkload(t)
	ctx := core.WithBudget(context.Background(), core.Budget{MaxRows: 10})
	_, err := w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
	var be *qerr.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Resource != "rows" {
		t.Errorf("Resource = %q, want rows", be.Resource)
	}
	if !qerr.IsBudget(err) {
		t.Error("IsBudget(err) = false")
	}
	if got := w.met.BudgetRowsExceeded.Value(); got == 0 {
		t.Error("BudgetRowsExceeded not incremented")
	}
	// The same query without a budget succeeds: the abort left the
	// engine coherent.
	if _, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win); err != nil {
		t.Errorf("unbudgeted retry: %v", err)
	}
}

// TestBudgetObjectsInterpolatedAtRows: ObjectsInterpolatedAt charges
// every candidate's trajectory samples, the last partial stride
// included, so a polygon covering the extent charges the whole table
// and a one-row budget aborts the query.
func TestBudgetObjectsInterpolatedAtRows(t *testing.T) {
	w, col, _ := telemetryWorkload(t)
	tbl, err := w.eng.Context().Table("FM")
	if err != nil {
		t.Fatal(err)
	}
	c := tbl.BBox().Expand(1).Corners()
	all := geom.Polygon{Shell: geom.Ring(c[:])}
	if _, err := w.eng.ObjectsInterpolatedAt(context.Background(), "FM", w.mid, all); err != nil {
		t.Fatal(err)
	}
	if rec := col.Recent(1)[0]; rec.RowsScanned != int64(tbl.Len()) {
		t.Errorf("RowsScanned = %d, want every row of the table (%d)", rec.RowsScanned, tbl.Len())
	}
	ctx := core.WithBudget(context.Background(), core.Budget{MaxRows: 1})
	_, err = w.eng.ObjectsInterpolatedAt(ctx, "FM", w.mid, all)
	var be *qerr.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" {
		t.Fatalf("MaxRows 1: got %v, want rows *BudgetError", err)
	}
}

// TestBudgetMaxResults: a one-item result budget aborts a sampled
// object-set query that matches many objects, on the grid and on the
// grid-off scan alike.
func TestBudgetMaxResults(t *testing.T) {
	w := newRobustWorkload(t)
	ctx := context.Background()
	tbl, err := w.eng.Context().Table("FM")
	if err != nil {
		t.Fatal(err)
	}
	// An instant at which several objects are sampled inside pg.
	var at timedim.Instant
	for _, tp := range tbl.ObjectTuples(tbl.Objects()[0]) {
		if out, err := w.eng.ObjectsSampledAt(ctx, "FM", tp.T, w.pg); err == nil && len(out) > 1 {
			at = tp.T
			break
		}
	}
	if at == 0 {
		t.Fatal("no instant samples two objects inside the polygon")
	}
	queries := map[string]func(context.Context) error{
		"ObjectsSampledInside": func(ctx context.Context) error {
			_, err := w.eng.ObjectsSampledInside(ctx, "FM", w.pg, w.win)
			return err
		},
		"ObjectsSampledAt": func(ctx context.Context) error {
			_, err := w.eng.ObjectsSampledAt(ctx, "FM", at, w.pg)
			return err
		},
	}
	for _, route := range []struct {
		name string
		grid int
	}{{"grid", 0}, {"scan", -1}} {
		for name, query := range queries {
			t.Run(route.name+"/"+name, func(t *testing.T) {
				w.eng.SetAggGrid(route.grid)
				before := w.met.BudgetResultsExceeded.Value()
				err := query(core.WithBudget(ctx, core.Budget{MaxResults: 1}))
				var be *qerr.BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("got %v, want *BudgetError", err)
				}
				if be.Resource != "results" {
					t.Errorf("Resource = %q, want results", be.Resource)
				}
				if got := w.met.BudgetResultsExceeded.Value(); got != before+1 {
					t.Errorf("BudgetResultsExceeded moved by %d, want 1", got-before)
				}
			})
		}
	}
}

// TestBudgetResultsIndependentOfCache: Budget.MaxResults is charged
// from the answer, so a query whose answer holds n objects fails under
// MaxResults n-1 and passes under n, whether the engine's caches are
// cold or warm.
func TestBudgetResultsIndependentOfCache(t *testing.T) {
	w := newRobustWorkload(t)
	one := []layer.Gid{1} // w.pg
	calls := map[string]func(context.Context) (int, error){
		"ObjectsPassingThrough": func(ctx context.Context) (int, error) {
			out, err := w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
			return len(out), err
		},
		"TimeSpentInside": func(ctx context.Context) (int, error) {
			out, err := w.eng.TimeSpentInside(ctx, "FM", w.pg, w.win)
			return len(out), err
		},
		"CountRegionSet": func(ctx context.Context) (int, error) {
			res, err := w.eng.CountRegionSet(ctx, core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: one, Window: w.win})
			return res.Total, err
		},
		"CountPassingThroughGeometries": func(ctx context.Context) (int, error) {
			return w.eng.CountPassingThroughGeometries(ctx, "FM", "Ln", one, w.win)
		},
		"ObjectsSampledInside": func(ctx context.Context) (int, error) {
			out, err := w.eng.ObjectsSampledInside(ctx, "FM", w.pg, w.win)
			return len(out), err
		},
	}
	for name, call := range calls {
		for _, cold := range []bool{true, false} {
			cache := "warm"
			if cold {
				cache = "cold"
			}
			t.Run(name+"/"+cache, func(t *testing.T) {
				w.eng.ResetCache()
				n, err := call(context.Background())
				if err != nil || n < 2 {
					t.Fatalf("unbudgeted answer: %d objects, %v; want several", n, err)
				}
				for _, limit := range []int{n - 1, n} {
					if cold {
						w.eng.ResetCache()
					}
					_, err := call(core.WithBudget(context.Background(), core.Budget{MaxResults: int64(limit)}))
					var be *qerr.BudgetError
					switch {
					case limit < n && (!errors.As(err, &be) || be.Resource != "results" || be.Used != int64(n)):
						t.Errorf("MaxResults %d on a %d-object answer: got %v, want results budget (%d > %d)", limit, n, err, n, limit)
					case limit == n && err != nil:
						t.Errorf("MaxResults %d on a %d-object answer: %v", limit, n, err)
					}
				}
			})
		}
	}
}

// TestBudgetTimeout: Budget.Timeout is applied at entry, so an
// already-expired deadline surfaces as a cancellation at the first
// checkpoint.
func TestBudgetTimeout(t *testing.T) {
	w := newRobustWorkload(t)
	ctx := core.WithBudget(context.Background(), core.Budget{Timeout: time.Nanosecond})
	_, err := w.eng.Trajectories(ctx, "FM")
	if !qerr.IsCancel(err) {
		t.Fatalf("got %v, want cancellation", err)
	}
	if got := w.met.QueriesCancelled.Value(); got == 0 {
		t.Error("QueriesCancelled not incremented")
	}
	// The deadline lives on the per-query derived context only: the
	// caller's context is untouched and the engine still answers.
	if _, err := w.eng.Trajectories(context.Background(), "FM"); err != nil {
		t.Errorf("query after budget timeout: %v", err)
	}
}

// TestRetryAfterInjectedFaultBitIdentical: one injected build failure,
// then the identical query succeeds and matches a never-faulted engine
// exactly.
func TestRetryAfterInjectedFaultBitIdentical(t *testing.T) {
	w := newRobustWorkload(t)
	faultpoint.ArmOnce(faultpoint.CoreLITBuild, faultpoint.ModeError, 0, 1)
	defer faultpoint.Reset()

	_, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win)
	var f *faultpoint.Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want injected *faultpoint.Fault", err)
	}
	if f.Site != faultpoint.CoreLITBuild {
		t.Errorf("fault site = %q, want %q", f.Site, faultpoint.CoreLITBuild)
	}

	got, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatalf("retry after injected fault: %v", err)
	}
	want, err := newRobustWorkload(t).eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatal(err)
	}
	if !eqOids(got, want) {
		t.Errorf("retry diverged: got %v, want %v", got, want)
	}
}

// TestPanicIsolation: a panic injected inside a worker chunk surfaces
// as a typed QueryPanicError with a captured stack, siblings drain,
// and the engine keeps answering.
func TestPanicIsolation(t *testing.T) {
	w := newRobustWorkload(t)
	want, err := w.eng.TimeSpentInside(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.ResetCache()

	faultpoint.Arm(faultpoint.CoreFanoutChunk, faultpoint.ModePanic, 0)
	_, err = w.eng.TimeSpentInside(context.Background(), "FM", w.pg, w.win)
	faultpoint.Reset()
	if !qerr.IsPanic(err) {
		t.Fatalf("got %v, want recovered panic", err)
	}
	var pe *qerr.QueryPanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("recovered panic carries no stack: %v", err)
	}
	if got := w.met.QueryPanics.Value(); got == 0 {
		t.Error("QueryPanics not incremented")
	}

	got, err := w.eng.TimeSpentInside(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatalf("engine unusable after recovered panic: %v", err)
	}
	if !eqDurations(got, want) {
		t.Errorf("post-panic result diverged: got %v, want %v", got, want)
	}
}

// TestNilContextMeansBackground: a nil context is accepted and treated
// as context.Background (API leniency for the oldest call sites).
func TestNilContextMeansBackground(t *testing.T) {
	w := newRobustWorkload(t)
	//nolint:staticcheck // deliberately passing nil: the documented leniency
	var nilCtx context.Context
	if _, err := w.eng.Trajectories(nilCtx, "FM"); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
}

// TestCancelReturnsWithinOneStride bounds abort latency: with the
// caches warm, a cancellation mid-query is observed well before the
// query would finish scanning everything.
func TestCancelReturnsWithinOneStride(t *testing.T) {
	w := newRobustWorkload(t)
	if _, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := w.eng.ObjectsEverWithinRadius(ctx, "FM", w.center, w.radius, w.win)
	if !qerr.IsCancel(err) {
		t.Fatalf("got %v, want cancellation", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled query took %v to return", d)
	}
}

// Package core is the paper's primary contribution in executable
// form: a spatio-temporal aggregation engine that integrates GIS
// dimensions, OLAP dimensions (including Time) and moving-object fact
// tables, and evaluates the eight query classes of Section 3.1:
//
//  1. spatial aggregation (geometric integration, Definition 4),
//  2. spatial aggregation with numeric information in the region
//     condition (summable rewriting),
//  3. pure trajectory-sample aggregation over FM and Time,
//  4. trajectory samples under geometric conditions (region C as a
//     first-order formula evaluated to a finite (Oid, t, ...) set),
//  5. regions whose condition itself contains an aggregation
//     ("second-order" aggregation),
//  6. the trajectory as a static spatial object at an instant,
//  7. trajectory queries requiring linear interpolation, and
//  8. aggregation over a single object's trajectory.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mogis/internal/faultpoint"
	"mogis/internal/fo"
	"mogis/internal/geom"
	"mogis/internal/gis"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/olap"
	"mogis/internal/qerr"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
	"mogis/internal/traj"
)

// Engine evaluates spatio-temporal aggregate queries against a model
// context. An Engine is safe for concurrent use: the caches
// (trajectories, spatial prefilter, interval cache, sample grid)
// belong to one version of a table and are built single-flight, and
// the trajectory query hot path fans out over a worker pool (see
// cache.go). Each query reads the one table version it resolved when
// it began. Publishing a new version with fo.Context.AddTable — as
// live ingest does — needs no call on the engine: the next query
// builds the new version's caches, deriving them from the previous
// version's when the new one was made by moft.Table.WithAppended.
// Rows loaded in place (moft.Table.Add) are seen by the next query
// too, but must not race queries in flight.
//
// Every query entry point takes a context.Context first and observes
// cancellation, deadlines and the resource Budget attached with
// WithBudget at cooperative checkpoints (scan strides, fan-out
// chunks, cache builds): a cancel returns context.Canceled /
// DeadlineExceeded within one stride, partial work is discarded, and
// cache state is left as-if-never-started so an immediate retry is
// bit-identical to an uncancelled run. Worker panics are isolated
// into *qerr.QueryPanicError; the engine stays usable.
type Engine struct {
	// mctx is the model context queries evaluate against (distinct
	// from the per-query context.Context threading through the
	// methods).
	mctx *fo.Context
	// met receives engine metrics (cache hits, query-type counts).
	met atomic.Pointer[obs.Metrics]
	// tel, when set, receives one telemetry.QueryRecord per completed
	// query. Nil disables recording entirely (the run bracket
	// then takes no clock reads); unset engines fall back to the
	// process-wide telemetry.Default collector.
	tel      atomic.Pointer[telemetry.Collector]
	telIsSet atomic.Bool

	mu sync.RWMutex
	// litCache holds, per table name, the cache unit of the newest
	// version a query has resolved (LITs, prefilter R-tree, interval
	// cache, grid), built single-flight.
	litCache map[string]*tableCache
	// accTables/accObjects/accEntries are this engine's last
	// contribution to the shared LitCacheTables/LitCacheObjects and
	// IntervalCacheEntries gauges, so several engines can account
	// against one metrics bundle.
	accTables, accObjects, accEntries int

	// workers bounds the per-query fan-out (0 → GOMAXPROCS).
	workers atomic.Int32
	// intervalCap is the interval-cache polygon cap (0 → default,
	// negative → caching disabled).
	intervalCap atomic.Int32
	// gridOff disables the pre-aggregated sample grid (the zero value
	// keeps it on).
	gridOff atomic.Bool
}

// New creates an engine over the model context.
func New(mctx *fo.Context) *Engine {
	e := &Engine{
		mctx:     mctx,
		litCache: make(map[string]*tableCache),
	}
	e.met.Store(obs.Std)
	return e
}

// Context returns the underlying model context.
func (e *Engine) Context() *fo.Context { return e.mctx }

// SetMetrics redirects the engine's metrics to m (nil restores the
// process-wide obs.Std bundle). Useful for isolating counts in tests.
func (e *Engine) SetMetrics(m *obs.Metrics) {
	if m == nil {
		m = obs.Std
	}
	e.met.Store(m)
}

// metrics returns the engine's current instrument bundle.
func (e *Engine) metrics() *obs.Metrics { return e.met.Load() }

// countQuery bumps the per-type query counter.
func (e *Engine) countQuery(n int) { e.metrics().Query(n).Inc() }

// SetTelemetry pins the engine's telemetry collector. A nil collector
// disables recording for this engine even when a process-wide default
// exists; engines that never call SetTelemetry follow
// telemetry.Default.
func (e *Engine) SetTelemetry(c *telemetry.Collector) {
	e.tel.Store(c)
	e.telIsSet.Store(true)
}

// telemetry resolves the collector queries record to (nil = off).
func (e *Engine) telemetry() *telemetry.Collector {
	if e.telIsSet.Load() {
		return e.tel.Load()
	}
	return telemetry.Default()
}

// SetWorkers bounds the worker pool of the trajectory query fan-out:
// 1 forces the serial path, 0 restores the default GOMAXPROCS sizing.
// The one-worker reference engines of bench/check.go and the tests
// use it.
func (e *Engine) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.workers.Store(int32(n))
}

// SetIntervalCacheCap bounds the number of distinct polygons whose
// inside-intervals are memoized per table (the interval cache);
// n <= 0 disables the cache entirely, 0 < n sets the cap (default
// 256). Inserting past the cap evicts the least-recently-used polygon.
func (e *Engine) SetIntervalCacheCap(n int) {
	if n <= 0 {
		e.intervalCap.Store(-1)
		return
	}
	e.intervalCap.Store(int32(n))
}

// intervalCacheCap resolves the configured cap (0 = disabled).
func (e *Engine) intervalCacheCap() int {
	c := e.intervalCap.Load()
	switch {
	case c == 0:
		return defaultIntervalCacheCap
	case c < 0:
		return 0
	default:
		return int(c)
	}
}

// SetAggGrid switches the pre-aggregated sample grid that accelerates
// polygon aggregates over raw samples: n < 0 turns it off (queries take
// the scan path), n >= 0 turns it on (the default). The grid is always
// sized from the data: ~64 samples per cell, time buckets from the
// time extent, sample density and observed query windows. Switching
// takes effect on the next query; an existing grid is kept and reused
// when the grid is switched back on.
func (e *Engine) SetAggGrid(n int) { e.gridOff.Store(n < 0) }

// gridEnabled reports whether sample queries may use the grid.
func (e *Engine) gridEnabled() bool { return !e.gridOff.Load() }

// samples returns the sample index of the query's table version.
// Unlike table(), it never triggers the LIT build — sample-only
// queries don't pay for interpolation.
func (e *Engine) samples(ctx context.Context, qc *qctl) (*sampleIndex, error) {
	_, tc, err := qc.entry()
	if err != nil {
		return nil, err
	}
	ix, err := tc.sampleIndex(ctx, e)
	if err != nil {
		// Drop the failed entry on permanent errors so a later call can
		// retry; transient aborts (cancel, budget, fault, panic) keep
		// the entry — its buildUnit already reset for retry.
		e.dropEntryOnPermanent(tc, err)
		return nil, err
	}
	return ix, nil
}

// --- Type 1: spatial aggregation ------------------------------------

// GeometricAggregate evaluates a Definition-4 geometric aggregation.
func (e *Engine) GeometricAggregate(ctx context.Context, a gis.Aggregation) (float64, error) {
	return run(ctx, e, "geometric_aggregate", "", 1, func(ctx context.Context, qc *qctl) (float64, error) {
		if err := qc.step(ctx); err != nil {
			return 0, err
		}
		return a.Evaluate()
	})
}

// --- Type 2: spatial aggregation over numeric conditions ------------

// SummableOverIDs evaluates the summable rewriting Σ_{g∈ids} measure(g)
// against a GIS fact table.
func (e *Engine) SummableOverIDs(ctx context.Context, ids []layer.Gid, ft *gis.FactTable, measure string) (float64, error) {
	return run(ctx, e, "summable_over_ids", "", 2, func(ctx context.Context, qc *qctl) (float64, error) {
		if err := qc.step(ctx); err != nil {
			return 0, err
		}
		return gis.SummableFromFact(ids, ft, measure).Evaluate()
	})
}

// --- Types 3, 4: region C as a first-order formula -------------------

// RegionC evaluates the formula to the paper's spatio-temporal
// structure C: a finite relation over the named output variables,
// e.g. (Oid, t) pairs.
func (e *Engine) RegionC(ctx context.Context, f fo.Formula, out []fo.Var) (*fo.Relation, error) {
	return run(ctx, e, "region_c", "", 3, func(ctx context.Context, qc *qctl) (*fo.Relation, error) {
		return e.regionC(ctx, qc, f, out)
	})
}

// regionC is RegionC without the Type-3 counter and control bracket,
// for internal reuse by the Type-4 entry points. The first-order
// evaluator itself is not chunked; cancellation is observed before
// and after it.
func (e *Engine) regionC(ctx context.Context, qc *qctl, f fo.Formula, out []fo.Var) (*fo.Relation, error) {
	if err := qc.step(ctx); err != nil {
		return nil, err
	}
	rel, err := fo.Eval(ctx, e.mctx, f, out)
	if err != nil {
		return nil, err
	}
	if err := qc.step(ctx); err != nil {
		return nil, err
	}
	if err := qc.addResults(int64(rel.Len())); err != nil {
		return nil, err
	}
	return rel, nil
}

// AggregateRegion evaluates region C and applies the γ operator of
// Definition 7: Q = γ_{fn,measure,groupBy}(C).
func (e *Engine) AggregateRegion(ctx context.Context, f fo.Formula, out []fo.Var, fn olap.AggFunc, measure fo.Var, groupBy []fo.Var) (*olap.AggResult, error) {
	return run(ctx, e, "aggregate_region", "", 4, func(ctx context.Context, qc *qctl) (*olap.AggResult, error) {
		rel, err := e.regionC(ctx, qc, f, out)
		if err != nil {
			return nil, err
		}
		return e.groupAggregate(ctx, rel, fn, measure, groupBy)
	})
}

// groupAggregate applies γ to region C under an aggregate_group span.
// It is a method of its own because spanend does not look inside the
// function literal AggregateRegion hands to run.
func (e *Engine) groupAggregate(ctx context.Context, rel *fo.Relation, fn olap.AggFunc, measure fo.Var, groupBy []fo.Var) (*olap.AggResult, error) {
	sp := obs.TracerFrom(ctx).Start("aggregate_group")
	defer sp.End()
	res, err := rel.GroupAggregate(fn, measure, groupBy)
	if err == nil {
		sp.SetCount("groups", int64(len(res.Rows)))
	}
	return res, err
}

// CountRegion evaluates region C and returns its cardinality — the
// most common aggregation ("number of buses", "number of cars").
func (e *Engine) CountRegion(ctx context.Context, f fo.Formula, out []fo.Var) (int, error) {
	return run(ctx, e, "count_region", "", 4, func(ctx context.Context, qc *qctl) (int, error) {
		rel, err := e.regionC(ctx, qc, f, out)
		if err != nil {
			return 0, err
		}
		sp := obs.TracerFrom(ctx).Start("aggregate_count")
		sp.SetCount("tuples", int64(rel.Len()))
		sp.End()
		return rel.Len(), nil
	})
}

// RatePerHour divides a region-C cardinality by a time span in hours,
// the "per hour" normalization of the motivating query (Remark 1:
// 4 tuples over a 3-hour morning span give 4/3).
func RatePerHour(count int, hours float64) float64 {
	if hours <= 0 {
		return 0
	}
	return float64(count) / hours
}

// --- Type 5: second-order regions ------------------------------------

// FilterGeometriesByAggregate returns the geometry ids of the given
// kind in the given layer for which the inner aggregate satisfies op
// against threshold. This realizes regions such as "neighborhoods
// where the number of people with low income exceeds 50,000": the
// inner aggregation runs per geometry and gates its membership in C.
func (e *Engine) FilterGeometriesByAggregate(ctx context.Context, layerName string, kind layer.Kind,
	inner func(layer.Gid) (float64, error), op fo.CmpOp, threshold float64) ([]layer.Gid, error) {
	return run(ctx, e, "filter_geometries_by_aggregate", "", 5, func(ctx context.Context, qc *qctl) ([]layer.Gid, error) {
		l, ok := e.mctx.GIS().Layer(layerName)
		if !ok {
			return nil, fmt.Errorf("core: unknown layer %q", layerName)
		}
		var out []layer.Gid
		for _, id := range l.IDs(kind) {
			if err := qc.step(ctx); err != nil {
				return nil, err
			}
			v, err := inner(id)
			if err != nil {
				return nil, fmt.Errorf("core: inner aggregate for %s %d: %w", kind, id, err)
			}
			keep := false
			switch op {
			case fo.LT:
				keep = v < threshold
			case fo.LE:
				keep = v <= threshold
			case fo.EQ:
				keep = v == threshold
			case fo.NE:
				keep = v != threshold
			case fo.GE:
				keep = v >= threshold
			case fo.GT:
				keep = v > threshold
			}
			if keep {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	})
}

// --- Type 6: the trajectory as a static object at an instant ---------

// ObjectsSampledAt returns, ascending, the distinct objects with a
// sample exactly at instant t whose position lies in pg (the
// sample-level semantics of query Q4), nil when there are none: the
// sampled region-set operator over the window [t, t], grid-accelerated
// when the pre-aggregated sample grid is enabled (the default), with
// identical results either way.
//
//moglint:deterministic
func (e *Engine) ObjectsSampledAt(ctx context.Context, table string, t timedim.Instant, pg geom.Polygon) ([]moft.Oid, error) {
	return run(ctx, e, "objects_sampled_at", table, 6, func(ctx context.Context, qc *qctl) ([]moft.Oid, error) {
		return e.objectsIn(ctx, qc, pg, timedim.Interval{Lo: t, Hi: t}, true)
	})
}

// ObjectsInterpolatedAt returns the objects whose interpolated
// position at instant t lies in pg, even between samples.
//
//moglint:deterministic
func (e *Engine) ObjectsInterpolatedAt(ctx context.Context, table string, t timedim.Instant, pg geom.Polygon) ([]moft.Oid, error) {
	return run(ctx, e, "objects_interpolated_at", table, 6, func(ctx context.Context, qc *qctl) ([]moft.Oid, error) {
		tc, err := e.table(ctx, qc)
		if err != nil {
			return nil, err
		}
		cand, err := tc.candidates(ctx, e.metrics(), pg.BBox())
		if err != nil {
			return nil, err
		}
		workers := e.workerCount(len(cand))
		var out []moft.Oid
		parts := make([][]moft.Oid, workers)
		err = forChunks(ctx, workers, len(cand), func(chunk, lo, hi int) error {
			var local []moft.Oid
			rows := int64(0)
			for _, oid := range cand[lo:hi] {
				l := tc.lits[oid]
				if rows += int64(len(l.Sample())); rows >= checkEvery {
					if err := qc.addRows(ctx, rows); err != nil {
						return err
					}
					rows = 0
				}
				if p, ok := l.AtInstant(t); ok && pg.ContainsPoint(p) {
					local = append(local, oid)
				}
			}
			parts[chunk] = local
			if err := qc.addRows(ctx, rows); err != nil {
				return err
			}
			return qc.addResults(int64(len(local)))
		})
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			out = append(out, p...)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	})
}

// --- Type 7: trajectory queries (interpolation) ----------------------

// Trajectories returns (and caches) the linear-interpolation
// trajectory of every object in the table. The returned map is
// shared with the cache; callers must not mutate it.
func (e *Engine) Trajectories(ctx context.Context, table string) (map[moft.Oid]*traj.LIT, error) {
	return run(ctx, e, "trajectories", table, 0, func(ctx context.Context, qc *qctl) (map[moft.Oid]*traj.LIT, error) {
		tc, err := e.table(ctx, qc)
		if err != nil {
			return nil, err
		}
		return tc.lits, nil
	})
}

// view resolves the current version of a table and the cache entry
// of exactly that version, so that everything one query reads comes
// from one version. A version no query has resolved yet gets a fresh
// entry whose parent is the entry it replaces (or, when that was never
// built, that entry's parent): the first reader derives from it. The
// fresh entry inherits the replaced entry's sample base the same way.
// Resolving an unchanged table takes only read locks and one version
// compare.
func (e *Engine) view(table string) (*moft.Table, *tableCache, error) {
	e.mu.RLock()
	tbl, err := e.mctx.Table(table)
	tc := e.litCache[table]
	e.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	if tc != nil && tc.tbl == tbl && tc.current() {
		return tbl, tc, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if tbl, err = e.mctx.Table(table); err != nil {
		return nil, nil, err
	}
	tc = e.litCache[table]
	if tc != nil && tc.tbl == tbl && tc.current() {
		return tbl, tc, nil
	}
	next := &tableCache{tbl: tbl, ver: tbl.Version()}
	if tc != nil {
		parent := tc
		if !tc.lit.ok() {
			parent = tc.parent.Load()
		}
		next.parent.Store(parent)
		next.base = tc.handOn()
	}
	e.litCache[table] = next
	e.updateCacheGaugesLocked()
	return tbl, next, nil
}

// dropEntryOnPermanent removes a cache entry whose build failed with
// a permanent error (malformed samples), so a later call can retry.
// Transient aborts — cancel, deadline, budget, injected fault,
// recovered panic — keep the entry: its buildUnit already reset, and
// any sibling cache (e.g. a built grid next to an aborted LIT build)
// survives.
func (e *Engine) dropEntryOnPermanent(tc *tableCache, err error) {
	if qerr.IsCancel(err) || qerr.IsPanic(err) || qerr.IsBudget(err) || faultpoint.IsFault(err) {
		return
	}
	e.mu.Lock()
	if table := tc.tbl.Name(); e.litCache[table] == tc {
		delete(e.litCache, table)
		e.updateCacheGaugesLocked()
	}
	e.mu.Unlock()
}

// table returns the cache unit of the query's table version, building
// it single-flight on first use: concurrent queries against a cold
// version interpolate (or derive) its trajectories exactly once, with
// every caller waiting on the same build. A build abandoned mid-flight
// (cancel, budget, fault) resets its unit so the next caller retries.
func (e *Engine) table(ctx context.Context, qc *qctl) (*tableCache, error) {
	_, tc, err := qc.entry()
	if err != nil {
		return nil, err
	}
	met := e.metrics()
	hit := tc.lit.ok()
	qc.cacheHit(hit)
	if hit {
		met.LitCacheHits.Inc()
	} else {
		met.LitCacheMisses.Inc()
	}
	builtNow, err := tc.lit.run(ctx, "core/lit-build", func() error {
		return tc.build(ctx, e)
	})
	if err != nil {
		e.dropEntryOnPermanent(tc, err)
		return nil, err
	}
	if builtNow {
		tc.parent.Store(nil)
		e.updateCacheGauges()
	}
	return tc, nil
}

// updateCacheGauges is updateCacheGaugesLocked under e.mu.
func (e *Engine) updateCacheGauges() {
	e.mu.Lock()
	e.updateCacheGaugesLocked()
	e.mu.Unlock()
}

// updateCacheGaugesLocked re-derives this engine's cache gauge
// contribution from the entries queries can still reach and applies
// the delta, so gauges stay exact across builds, new versions,
// invalidations and resets. Caller holds e.mu.
func (e *Engine) updateCacheGaugesLocked() {
	tables, objects, entries := 0, 0, 0
	for _, tc := range e.litCache {
		if tc.lit.ok() {
			tables++
			objects += len(tc.lits)
		}
		tc.imu.RLock()
		entries += len(tc.intervals)
		tc.imu.RUnlock()
	}
	met := e.metrics()
	met.LitCacheTables.Add(int64(tables - e.accTables))
	met.LitCacheObjects.Add(int64(objects - e.accObjects))
	met.IntervalCacheEntries.Add(int64(entries - e.accEntries))
	e.accTables, e.accObjects, e.accEntries = tables, objects, entries
}

// InvalidateTrajectories forgets every cache of the table —
// trajectories, the prefilter R-tree, memoized intervals and the
// sample index with the base grid it inherited — and so forces the
// next query to rebuild them from scratch.
// Publishing a new table version needs no call: caches belong to a
// version (see view). Queries already in flight finish on the state
// they began with.
func (e *Engine) InvalidateTrajectories(table string) {
	e.mu.Lock()
	delete(e.litCache, table)
	e.updateCacheGaugesLocked()
	e.mu.Unlock()
}

// ResetCache drops every cached table. The caches grow without bound
// as distinct (possibly derived) tables and polygons are queried;
// long-lived processes can call this to reclaim the memory.
func (e *Engine) ResetCache() {
	e.mu.Lock()
	e.litCache = make(map[string]*tableCache)
	e.updateCacheGaugesLocked()
	e.mu.Unlock()
}

// CacheStats reports the current litCache footprint: the number of
// cached tables and the total number of cached object trajectories.
func (e *Engine) CacheStats() (tables, objects int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, tc := range e.litCache {
		if tc.lit.ok() {
			tables++
			objects += len(tc.lits)
		}
	}
	return tables, objects
}

// ObjectsPassingThrough returns, ascending, the objects whose
// interpolated trajectory intersects pg at some time in iv
// (interpolation-aware semantics; the paper's O6 counts here even
// though it was never sampled inside), nil when there are none: the
// interpolated region-set operator over one polygon.
//
//moglint:deterministic
func (e *Engine) ObjectsPassingThrough(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error) {
	return run(ctx, e, "objects_passing_through", table, 7, func(ctx context.Context, qc *qctl) ([]moft.Oid, error) {
		qc.noteWindow(iv)
		return e.objectsPassingThrough(ctx, qc, pg, iv)
	})
}

// objectsPassingThrough is ObjectsPassingThrough inside an already
// open bracket.
func (e *Engine) objectsPassingThrough(ctx context.Context, qc *qctl, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error) {
	// Temporal prefilter: interpolated trajectories live inside the
	// version's sample time extent, so a window strictly disjoint from
	// [minT, maxT] cannot intersect any trajectory — answer empty
	// without building LITs or inside-intervals. Exact even for the
	// boundary-graze semantics: clampTotal's closed clamp requires the
	// window to touch the trajectory's time domain. Gated on the grid
	// knob so SetAggGrid(-1) still measures the pure scan path.
	if e.gridEnabled() {
		tbl, terr := qc.table()
		if terr != nil {
			return nil, terr
		}
		if lo, hi, ok := tbl.TimeSpan(); ok && (iv.Hi < lo || iv.Lo > hi) {
			e.metrics().AggGridTimeSkips.Inc()
			return nil, nil
		}
	}
	return e.objectsIn(ctx, qc, pg, iv, false)
}

// ObjectsSampledInside returns, ascending, the objects with at least
// one raw sample in pg during iv (the sample-only counterpart of
// ObjectsPassingThrough; the two differ exactly on objects like O6),
// an empty non-nil slice when there are none: the sampled region-set
// operator over one polygon, grid-accelerated when the pre-aggregated
// sample grid is enabled (the default), with identical results either
// way.
//
//moglint:deterministic
func (e *Engine) ObjectsSampledInside(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error) {
	return run(ctx, e, "objects_sampled_inside", table, 7, func(ctx context.Context, qc *qctl) ([]moft.Oid, error) {
		qc.noteWindow(iv)
		return e.objectsSampledInside(ctx, qc, pg, iv)
	})
}

// objectsSampledInside is ObjectsSampledInside inside an already open
// bracket.
func (e *Engine) objectsSampledInside(ctx context.Context, qc *qctl, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error) {
	out, err := e.objectsIn(ctx, qc, pg, iv, true)
	if out == nil && err == nil {
		out = []moft.Oid{}
	}
	return out, err
}

// CountSamplesInside returns the number of MOFT samples positioned
// inside pg during iv — the polygon aggregate behind the motivating
// query (Remark 1: bus samples in low-income neighborhoods per hour).
// Grid-accelerated when the pre-aggregated sample grid is enabled
// (the default); results are identical either way.
//
//moglint:deterministic
func (e *Engine) CountSamplesInside(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) (int, error) {
	return run(ctx, e, "count_samples_inside", table, 4, func(ctx context.Context, qc *qctl) (int, error) {
		qc.noteWindow(iv)
		tbl, err := qc.table()
		if err != nil {
			return 0, err
		}
		if e.gridEnabled() {
			ix, err := e.samples(ctx, qc)
			if err != nil {
				return 0, err
			}
			if err := qc.step(ctx); err != nil {
				return 0, err
			}
			n, gst := ix.countSamples(pg, int64(iv.Lo), int64(iv.Hi), e.metrics())
			if err := qc.addRows(ctx, gst.Rows); err != nil {
				return 0, err
			}
			return n, nil
		}
		return e.countSamplesScan(ctx, qc, tbl, pg, iv)
	})
}

// countSamplesScan is the unaccelerated CountSamplesInside: the
// grid-off scan of the window's rows with a per-sample
// point-in-polygon test.
func (e *Engine) countSamplesScan(ctx context.Context, qc *qctl, tbl *moft.Table, pg geom.Polygon, iv timedim.Interval) (int, error) {
	cols, err := tbl.ColumnsCtx(ctx)
	if err != nil {
		return 0, err
	}
	box, n := pg.BBox(), 0
	err = e.scanWindow(ctx, qc, cols, iv, func(_, r int) {
		if p := geom.Pt(cols.X[r], cols.Y[r]); box.ContainsPoint(p) && pg.ContainsPoint(p) {
			n++
		}
	})
	return n, err
}

// clampTotal intersects the intervals with the query window [lo, hi]
// and returns the total remaining duration plus whether any interval
// touches the window at all (a tangential graze touches with duration
// 0; both Type-7 duration queries share these boundary semantics).
func clampTotal(ivs []traj.TimeInterval, lo, hi float64) (sum float64, touched bool) {
	for _, ti := range ivs {
		a, b := ti.Lo, ti.Hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b >= a {
			sum += b - a
			touched = true
		}
	}
	return sum, touched
}

// TimeSpentInside returns, per object, the total interpolated time
// (seconds) spent inside pg within iv — the paper's Q5 ("total amount
// of time spent continuously by cars in Antwerp"). An object appears
// in the result iff its interpolated trajectory is inside pg
// (boundary included) at some instant of iv; a trajectory that only
// grazes the boundary appears with duration 0, symmetric with
// ObjectsEverWithinRadius.
//
//moglint:deterministic
func (e *Engine) TimeSpentInside(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) (map[moft.Oid]float64, error) {
	return run(ctx, e, "time_spent_inside", table, 7, func(ctx context.Context, qc *qctl) (map[moft.Oid]float64, error) {
		qc.noteWindow(iv)
		tc, err := e.table(ctx, qc)
		if err != nil {
			return nil, err
		}
		col, err := e.polygonIntervals(ctx, qc, tc, pg)
		if err != nil {
			return nil, err
		}
		// clampTotal along the column: an object's entries come in its
		// own interval order, so each sum adds in the same order.
		out := make(map[moft.Oid]float64)
		lo, hi := float64(iv.Lo), float64(iv.Hi)
		cur := col.window(lo, hi)
		defer func() { e.metrics().IntervalEntriesScanned.Add(int64(cur.scanned)) }()
		for run := cur.next(); run != nil; run = cur.next() {
			if cur.fresh >= checkEvery {
				if err := qc.step(ctx); err != nil {
					return nil, err
				}
				cur.fresh = 0
			}
			for _, en := range run {
				if a, b := max(en.lo, lo), min(en.hi, hi); b >= a {
					out[en.oid] += b - a
				}
			}
		}
		return out, qc.addResults(int64(len(out)))
	})
}

// ObjectsEverWithinRadius returns objects whose interpolated
// trajectory comes within distance r of center during iv, with the
// total time spent within (the paper's Q6, interpolated variant). An
// object appears iff its trajectory is within distance r at some
// instant of iv; a trajectory exactly tangent to the circle appears
// with duration 0, symmetric with TimeSpentInside.
//
//moglint:deterministic
func (e *Engine) ObjectsEverWithinRadius(ctx context.Context, table string, center geom.Point, r float64, iv timedim.Interval) (map[moft.Oid]float64, error) {
	return run(ctx, e, "objects_ever_within_radius", table, 7, func(ctx context.Context, qc *qctl) (map[moft.Oid]float64, error) {
		qc.noteWindow(iv)
		tc, err := e.table(ctx, qc)
		if err != nil {
			return nil, err
		}
		met := e.metrics()
		box := geom.BBox{MinX: center.X - r, MinY: center.Y - r, MaxX: center.X + r, MaxY: center.Y + r}
		cand, err := tc.candidates(ctx, met, box)
		if err != nil {
			return nil, err
		}
		workers := e.workerCount(len(cand))
		parts := make([]map[moft.Oid]float64, workers)
		err = forChunks(ctx, workers, len(cand), func(chunk, lo, hi int) error {
			local := make(map[moft.Oid]float64)
			rows := int64(0)
			for _, oid := range cand[lo:hi] {
				l := tc.lits[oid]
				if rows += int64(len(l.Sample())); rows >= checkEvery {
					if err := qc.addRows(ctx, rows); err != nil {
						return err
					}
					rows = 0
				}
				ivs := l.WithinRadiusIntervals(center, r)
				if sum, touched := clampTotal(ivs, float64(iv.Lo), float64(iv.Hi)); touched {
					local[oid] = sum
				}
			}
			parts[chunk] = local
			if err := qc.addRows(ctx, rows); err != nil {
				return err
			}
			return qc.addResults(int64(len(local)))
		})
		if err != nil {
			return nil, err
		}
		out := make(map[moft.Oid]float64)
		merged := 0
		for _, local := range parts {
			for oid, sum := range local {
				if merged%checkEvery == 0 {
					if err := qc.step(ctx); err != nil {
						return nil, err
					}
				}
				merged++
				out[oid] = sum
			}
		}
		return out, nil
	})
}

// CountPassingThroughGeometries counts the objects whose interpolated
// trajectory intersects at least one of the given polygons of a layer
// during iv: the ungrouped interpolated CountRegionSet, answered from
// the cached, prefiltered per-polygon interval columns.
//
//moglint:deterministic
func (e *Engine) CountPassingThroughGeometries(ctx context.Context, table, layerName string, ids []layer.Gid, iv timedim.Interval) (int, error) {
	return run(ctx, e, "count_passing_through_geometries", table, 7, func(ctx context.Context, qc *qctl) (int, error) {
		qc.noteWindow(iv)
		res, err := e.countRegionSet(ctx, qc, RegionSetQuery{Table: table, Layer: layerName, IDs: ids, Window: iv})
		return res.Total, err
	})
}

// --- Type 8: aggregation over one trajectory -------------------------

// TrajectoryStats summarizes one object's interpolated trajectory.
type TrajectoryStats struct {
	Oid      moft.Oid
	Samples  int
	Length   float64 // image length
	Duration float64 // seconds from first to last sample
	AvgSpeed float64 // Length / Duration
	MaxSpeed float64 // maximum leg speed
	Closed   bool
}

// TrajectoryAggregate computes the Type-8 aggregation for one object.
func (e *Engine) TrajectoryAggregate(ctx context.Context, table string, oid moft.Oid) (TrajectoryStats, error) {
	return run(ctx, e, "trajectory_aggregate", table, 8, func(ctx context.Context, qc *qctl) (TrajectoryStats, error) {
		tc, err := e.table(ctx, qc)
		if err != nil {
			return TrajectoryStats{}, err
		}
		l, ok := tc.lits[oid]
		if !ok {
			return TrajectoryStats{}, fmt.Errorf("core: no trajectory for object O%d", oid)
		}
		s := l.Sample()
		st := TrajectoryStats{
			Oid:      oid,
			Samples:  len(s),
			Length:   s.Length(),
			Duration: float64(s.TimeDomain().Duration()),
			MaxSpeed: l.MaxSpeed(),
			Closed:   s.IsClosed(),
		}
		if st.Duration > 0 {
			st.AvgSpeed = st.Length / st.Duration
		}
		return st, nil
	})
}

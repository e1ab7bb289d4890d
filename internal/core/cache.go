package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mogis/internal/agggrid"
	"mogis/internal/faultpoint"
	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/qerr"
	"mogis/internal/sindex"
	"mogis/internal/traj"
)

// This file implements the engine's per-table cache hierarchy and the
// worker pool behind the trajectory query hot path. Three caches hang
// off each fact table, built single-flight and dropped whole on
// invalidation:
//
//  1. the LIT cache — every object's interpolated trajectory,
//  2. the spatial prefilter — an STR-packed R-tree over trajectory
//     bounding boxes, so a polygon or radius query only evaluates
//     objects whose envelope can intersect the query region,
//  3. the interval cache — memoized per-(table, polygon)
//     InsidePolygonIntervals results (the GeoBlocks-style
//     query-result cache), keyed by an exact fingerprint of the
//     polygon's coordinates and evicted least-recently-used at the
//     configured cap,
//  4. the pre-aggregated sample grid (internal/agggrid) — built
//     independently of the LIT build (sample-only queries never pay
//     for interpolation) from the table's columnar snapshot.
//
// Builds are cancellable: each cache unit is a buildUnit (a resettable
// single-flight latch) whose builder runs under the triggering query's
// context. A build abandoned by cancel, deadline, budget or an
// injected fault publishes nothing and resets the unit, so the next
// caller retries from scratch; waiters whose own context dies stop
// waiting without affecting the in-flight build.
//
// Invalidation rules: InvalidateTrajectories(table) and ResetCache
// drop all four for the affected tables. A query racing an
// invalidation may still be answered from the generation it started
// on; the next query sees fresh data.

// serialThreshold is the object count below which the per-object
// fan-out stays on the calling goroutine: goroutine startup dwarfs
// the per-object work for small tables (the paper's six-bus example
// always runs serial).
const serialThreshold = 32

// defaultIntervalCacheCap bounds the memoized polygons per table.
const defaultIntervalCacheCap = 256

// buildUnit is a resettable single-flight latch: the first caller
// becomes the builder and runs fn; concurrent callers wait on the
// in-flight channel. A successful build latches permanently; any
// failure (cancel, deadline, budget, error, recovered panic) leaves
// the unit exactly as-if-never-started so the next caller retries.
// It replaces sync.Once, whose one-shot semantics would poison the
// cache after an abandoned build.
type buildUnit struct {
	mu       sync.Mutex
	done     bool
	inflight chan struct{} // non-nil while a build runs; closed when it ends
}

// run returns immediately when the unit is built; otherwise it joins
// the in-flight build or becomes the builder. builtNow reports that
// this caller executed fn successfully (the gauge-update trigger). A
// waiter whose ctx dies returns ctx.Err() without killing the build;
// when a build it waited on is abandoned, it retries as the builder.
func (u *buildUnit) run(ctx context.Context, op string, fn func() error) (builtNow bool, err error) {
	for {
		u.mu.Lock()
		if u.done {
			u.mu.Unlock()
			return false, nil
		}
		if ch := u.inflight; ch != nil {
			u.mu.Unlock()
			select {
			case <-ch:
				continue // build ended: latched, or reset for retry
			case <-ctx.Done():
				return false, ctx.Err()
			}
		}
		ch := make(chan struct{})
		u.inflight = ch
		u.mu.Unlock()

		err = runProtected(op, fn)
		u.mu.Lock()
		u.inflight = nil
		u.done = err == nil
		u.mu.Unlock()
		close(ch)
		return err == nil, err
	}
}

// ok reports whether the unit has latched a successful build.
func (u *buildUnit) ok() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.done
}

// runProtected runs fn with panic isolation: a panic becomes a
// *qerr.QueryPanicError carrying the stack, so one poisoned build
// cannot take the process down or wedge its waiters.
func runProtected(op string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = qerr.NewPanic(op, v)
		}
	}()
	return fn()
}

// tableCache is the per-table cache unit. lits, oids and tree are
// written by the lit buildUnit's builder before the unit latches and
// read-only afterwards; the interval cache mutates under imu; the
// sample grid builds under its own buildUnit so sample-only queries
// never trigger trajectory interpolation.
type tableCache struct {
	lit  buildUnit
	lits map[moft.Oid]*traj.LIT
	oids []moft.Oid // sorted; the deterministic fan-out order
	tree *sindex.RTree

	gridUnit buildUnit
	grid     *agggrid.Grid

	imu       sync.RWMutex
	dead      bool // set on invalidation; stops new interval-cache inserts
	intervals map[string]*intervalEntry
	// ivGen issues strictly increasing recency stamps. A hit only takes
	// the read lock and bumps its entry's stamp — no recency-list splice
	// under an exclusive lock — so read-mostly workloads don't
	// serialize; the insert path orders entries lazily, scanning for
	// the minimum stamp when it must evict.
	ivGen atomic.Int64
}

// intervalEntry is one memoized (polygon → per-object intervals) set.
// stamp is its recency: stamps are unique and monotonic (ivGen), so
// min-stamp eviction reproduces exact LRU order.
type intervalEntry struct {
	key   string
	m     map[moft.Oid][]traj.TimeInterval
	stamp atomic.Int64
}

// build interpolates every object of the table and packs the
// trajectory bounding boxes into the prefilter R-tree. It publishes
// to tc only at the very end, so an abandoned build (cancel, budget,
// fault) leaves no partial state behind.
func (tc *tableCache) build(ctx context.Context, e *Engine, table string) error {
	if err := faultpoint.Hit(faultpoint.CoreLITBuild); err != nil {
		return err
	}
	tbl, err := e.mctx.Table(table)
	if err != nil {
		return err
	}
	sp := e.mctx.Tracer().Start("interpolate")
	defer sp.End()
	// Interpolate from the columnar snapshot: per-object samples come
	// from contiguous ranges of the flat T/X/Y arrays instead of
	// walking Tuple structs.
	cols, err := tbl.ColumnsCtx(ctx)
	if err != nil {
		return err
	}
	oids := make([]moft.Oid, len(cols.Oids))
	copy(oids, cols.Oids)
	lits := make(map[moft.Oid]*traj.LIT, len(oids))
	entries := make([]sindex.Entry, 0, len(oids))
	for i, oid := range oids {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		lo, hi := cols.ObjectRange(i)
		s := traj.SampleFromColumns(cols.T[lo:hi], cols.X[lo:hi], cols.Y[lo:hi])
		l, err := traj.NewLIT(s)
		if err != nil {
			return fmt.Errorf("core: object O%d: %w", oid, err)
		}
		lits[oid] = l
		entries = append(entries, sindex.Entry{Box: sindex.Box(l.BBox()), ID: int64(oid)})
	}
	sp.SetCount("objects", int64(len(lits)))
	sp.SetCount("samples", int64(cols.Len()))
	tc.lits = lits
	tc.oids = oids
	tc.tree = sindex.BulkLoad(entries, sindex.DefaultFanout)
	return nil
}

// ordinal returns the index of a cached object in tc.oids. Object ids
// are usually dense, so the direct guess oid - oids[0] almost always
// hits; otherwise a binary search finds it.
func (tc *tableCache) ordinal(oid moft.Oid) int {
	if i := int(oid - tc.oids[0]); i >= 0 && i < len(tc.oids) && tc.oids[i] == oid {
		return i
	}
	return sort.Search(len(tc.oids), func(i int) bool { return tc.oids[i] >= oid })
}

// aggGrid returns the table's pre-aggregated sample grid, building it
// single-flight from the columnar snapshot on first use. Independent
// of the LIT build: sample-only queries pay only for the grid.
func (tc *tableCache) aggGrid(ctx context.Context, e *Engine, table string) (*agggrid.Grid, error) {
	_, err := tc.gridUnit.run(ctx, "core/grid-build", func() error {
		if err := faultpoint.Hit(faultpoint.CoreGridBuild); err != nil {
			return err
		}
		tbl, err := e.mctx.Table(table)
		if err != nil {
			return err
		}
		sp := e.mctx.Tracer().Start("agggrid_build")
		defer sp.End()
		cols, err := tbl.ColumnsCtx(ctx)
		if err != nil {
			return err
		}
		n := int(e.gridCells.Load())
		cfg := agggrid.Config{NX: n, NY: n, TimeBuckets: int(e.timeBuckets.Load())}
		if cfg.TimeBuckets == 0 {
			// Adaptive bucket sizing consults the observed query
			// windows of the interval-taking grid ops (GeoBlocks-style
			// query-driven refinement); with no telemetry or no
			// windowed queries yet, the hint stays 0 and sizing falls
			// back to extent + density.
			cfg.WindowHint = e.telemetry().MeanWindow(windowHintOps...)
		}
		g, err := agggrid.BuildCtx(ctx, cols, cfg)
		if err != nil {
			return err
		}
		tc.grid = g
		sp.SetCount("cells", int64(g.Cells()))
		sp.SetCount("samples", int64(cols.Len()))
		sp.SetCount("time_buckets", int64(g.TimeBuckets()))
		e.metrics().AggGridBuilds.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tc.grid, nil
}

// windowHintOps are the ops whose observed query windows feed the
// grid's adaptive time-bucket sizing: the interval-taking queries the
// sample grid answers.
var windowHintOps = []string{"count_samples_inside", "objects_sampled_inside", "count_region_set"}

// candidates returns, in sorted oid order, the objects whose
// trajectory bounding box intersects box — the spatial prefilter —
// and records the candidate/skip split in the engine metrics.
//
//moglint:deterministic
func (tc *tableCache) candidates(ctx context.Context, met *obs.Metrics, box geom.BBox) ([]moft.Oid, error) {
	if err := faultpoint.Hit(faultpoint.CorePrefilter); err != nil {
		return nil, err
	}
	ids, err := tc.tree.SearchCtx(ctx, box, nil)
	if err != nil {
		return nil, err
	}
	out := make([]moft.Oid, len(ids))
	for i, id := range ids {
		out[i] = moft.Oid(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	met.PrefilterCandidates.Add(int64(len(out)))
	met.PrefilterSkipped.Add(int64(len(tc.oids) - len(out)))
	return out, nil
}

// drainIntervals empties the interval cache (on invalidation) and
// keeps the entries gauge consistent.
func (tc *tableCache) drainIntervals(met *obs.Metrics) {
	tc.imu.Lock()
	n := len(tc.intervals)
	tc.dead = true
	tc.intervals = nil
	tc.imu.Unlock()
	met.IntervalCacheEntries.Add(-int64(n))
}

// polygonKey is an exact fingerprint of a polygon's coordinates: the
// raw float64 bits of every vertex, rings separated by a NaN marker
// (no finite coordinate collides with it). Two polygons share a key
// iff they are vertex-identical, so cache hits are never wrong.
func polygonKey(pg geom.Polygon) string {
	n := len(pg.Shell)
	for _, h := range pg.Holes {
		n += len(h) + 1
	}
	buf := make([]byte, 0, 16*n)
	var tmp [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
		buf = append(buf, tmp[:]...)
	}
	for _, p := range pg.Shell {
		put(p.X)
		put(p.Y)
	}
	for _, h := range pg.Holes {
		put(math.NaN())
		for _, p := range h {
			put(p.X)
			put(p.Y)
		}
	}
	return string(buf)
}

// polygonIntervals returns, for every object that can intersect pg,
// the merged time intervals its interpolated trajectory spends inside
// pg over its whole time domain (unclamped — callers clamp to their
// query window, which keeps the cache window-independent). The result
// map is shared with the cache; callers must not mutate it. Absent
// objects spend no time inside. An aborted computation (cancel,
// budget, fault) is never inserted into the cache.
//
//moglint:deterministic
func (e *Engine) polygonIntervals(ctx context.Context, qc *qctl, tc *tableCache, pg geom.Polygon) (map[moft.Oid][]traj.TimeInterval, error) {
	met := e.metrics()
	cacheCap := e.intervalCacheCap()
	var key string
	if cacheCap > 0 {
		key = polygonKey(pg)
		tc.imu.RLock()
		if en, ok := tc.intervals[key]; ok {
			en.stamp.Store(tc.ivGen.Add(1)) // most recently used
			m := en.m
			tc.imu.RUnlock()
			met.IntervalCacheHits.Inc()
			qc.cacheHit(true)
			return m, nil
		}
		tc.imu.RUnlock()
		met.IntervalCacheMisses.Inc()
		qc.cacheHit(false)
	}

	cand, err := tc.candidates(ctx, met, pg.BBox())
	if err != nil {
		return nil, err
	}
	workers := e.workerCount(len(cand))
	parts := make([]map[moft.Oid][]traj.TimeInterval, workers)
	err = forChunks(ctx, workers, len(cand), func(chunk, lo, hi int) error {
		m := make(map[moft.Oid][]traj.TimeInterval)
		rows, results := int64(0), int64(0)
		for _, oid := range cand[lo:hi] {
			l := tc.lits[oid]
			if rows += int64(len(l.Sample())); rows >= checkEvery {
				if err := qc.addRows(ctx, rows); err != nil {
					return err
				}
				rows = 0
			}
			if ivs := l.InsidePolygonIntervals(pg); len(ivs) > 0 {
				m[oid] = ivs
				results += int64(len(ivs))
			}
		}
		parts[chunk] = m
		if err := qc.addRows(ctx, rows); err != nil {
			return err
		}
		return qc.addResults(results)
	})
	if err != nil {
		return nil, err
	}
	out := parts[0]
	if out == nil {
		out = make(map[moft.Oid][]traj.TimeInterval)
	}
	merged := 0
	for _, m := range parts[1:] {
		for oid, ivs := range m {
			if merged%checkEvery == 0 {
				if err := qc.step(ctx); err != nil {
					return nil, err
				}
			}
			merged++
			out[oid] = ivs
		}
	}

	if cacheCap > 0 {
		if err := faultpoint.Hit(faultpoint.CoreIntervalInsert); err != nil {
			return nil, err
		}
		tc.imu.Lock()
		if !tc.dead {
			if tc.intervals == nil {
				tc.intervals = make(map[string]*intervalEntry)
			}
			if _, dup := tc.intervals[key]; !dup {
				// Evict least-recently-used entries until the new one
				// fits within the cap: the minimum stamp is the LRU
				// entry (stamps are unique, so there are no ties).
				for len(tc.intervals) >= cacheCap {
					var oldest *intervalEntry
					for _, en := range tc.intervals {
						if oldest == nil || en.stamp.Load() < oldest.stamp.Load() {
							oldest = en
						}
					}
					delete(tc.intervals, oldest.key)
					met.IntervalCacheEvictions.Inc()
					met.IntervalCacheEntries.Add(-1)
				}
				en := &intervalEntry{key: key, m: out}
				en.stamp.Store(tc.ivGen.Add(1))
				tc.intervals[key] = en
				met.IntervalCacheEntries.Add(1)
			}
		}
		tc.imu.Unlock()
	}
	return out, nil
}

// workerCount sizes the pool for a fan-out over n objects: the
// engine's configured width (GOMAXPROCS when unset), clamped to n,
// and 1 below the serial threshold.
func (e *Engine) workerCount(n int) int {
	if n < serialThreshold {
		return 1
	}
	w := int(e.workers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forChunks splits [0, n) into one contiguous chunk per worker and
// runs fn(chunk, lo, hi) concurrently. Chunk indices let callers
// merge per-chunk results in a deterministic order regardless of
// goroutine scheduling; workers <= 1 runs inline. Every worker is
// panic-isolated (a panic becomes a *qerr.QueryPanicError) and checks
// ctx before starting; all workers drain before the first error — in
// chunk order, so the reported error is scheduling-independent — is
// returned.
//
//moglint:deterministic
func forChunks(ctx context.Context, workers, n int, fn func(chunk, lo, hi int) error) error {
	if workers <= 1 {
		return runChunk(0, 0, n, fn)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		lo := c * n / workers
		hi := (c + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[c] = err
				return
			}
			errs[c] = runChunk(c, lo, hi, fn)
		}(c, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runChunk executes one worker chunk with panic isolation and the
// fan-out faultpoint.
func runChunk(c, lo, hi int, fn func(chunk, lo, hi int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = qerr.NewPanic("core/fanout", v)
		}
	}()
	if err := faultpoint.Hit(faultpoint.CoreFanoutChunk); err != nil {
		return err
	}
	return fn(c, lo, hi)
}

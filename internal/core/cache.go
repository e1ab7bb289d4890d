package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mogis/internal/faultpoint"
	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/qerr"
	"mogis/internal/sindex"
	"mogis/internal/traj"
)

// This file implements the engine's per-table-version cache hierarchy
// and the worker pool behind the trajectory query hot path. Four
// caches hang off each version of a fact table, each built
// single-flight:
//
//  1. the LIT cache — every object's interpolated trajectory,
//  2. the spatial prefilter — an STR-packed R-tree over trajectory
//     bounding boxes, so a polygon or radius query only evaluates
//     objects whose envelope can intersect the query region,
//  3. the interval cache — memoized per-(table, polygon)
//     InsidePolygonIntervals results (the GeoBlocks-style
//     query-result cache), keyed by an exact fingerprint of the
//     polygon's coordinates and evicted least-recently-used at the
//     configured cap; each entry is an interval column (intervals.go),
//     flat and sorted by interval start, so a reader scans only the
//     entries its window reaches,
//  4. the sample index (sampleindex.go) — a sealed base, the
//     pre-aggregated grid (internal/agggrid) of an ancestor version,
//     plus a tail of the rows appended since; built independently of
//     the LIT build, so sample-only queries never pay for
//     interpolation.
//
// Builds are cancellable: each cache unit is a buildUnit (a resettable
// single-flight latch) whose builder runs under the triggering query's
// context. A build abandoned by cancel, deadline, budget or an
// injected fault publishes nothing and resets the unit, so the next
// caller retries from scratch; waiters whose own context dies stop
// waiting without affecting the in-flight build.
//
// Version rules: a tableCache belongs to one moft.Table version, and a
// query reads the version and the cache it resolved in run, never a
// mix. Publishing a new version of a table (fo.Context.AddTable) is the
// invalidation: the next query makes a fresh entry for it. When the
// new version descends from the old one (moft.Table.Since), the first
// reader derives the entry's LITs and R-tree from its parent's,
// interpolating only the changed objects, and carries every interval
// entry over with those objects pending; settling an entry clips only
// their new legs and merges their sorted entries with the rest of the
// earlier column in one pass. The sample index keeps the inherited
// base and gathers the appended rows as its tail, until the tail is
// large enough to compact. Anything else — an unrelated table under the same
// name, rows loaded in place into a table that was read — builds from
// scratch. InvalidateTrajectories and ResetCache forget cached state
// outright, inherited sample base included, forcing a full rebuild.

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

// tableCache is the cache unit of one table version. lits, oids and
// tree are written by the lit buildUnit's builder before the unit
// latches and read-only afterwards; the interval cache mutates under
// imu; the sample index builds under its own buildUnit so sample-only
// queries never trigger trajectory interpolation.
type tableCache struct {
	// tbl is the version every structure below is built from, and ver
	// its Version when the entry was made: rows loaded into tbl in
	// place change tbl.Version() and retire the entry.
	tbl *moft.Table
	ver moft.Version
	// parent is a built entry of an earlier version that the LIT build
	// may derive from; cleared once the LIT build has latched.
	parent atomic.Pointer[tableCache]

	lit  buildUnit
	lits map[moft.Oid]*traj.LIT
	oids []moft.Oid // sorted; the deterministic fan-out order
	tree *sindex.RTree

	// base is the sample base inherited from the entry this one
	// replaced (see Engine.view); nil makes the sample index build its
	// own.
	base       *sampleBase
	sampleUnit buildUnit
	samp       *sampleIndex

	imu       sync.RWMutex
	intervals map[string]*intervalEntry
	// ivGen issues strictly increasing recency stamps. A hit only takes
	// the read lock and bumps its entry's stamp — no recency-list splice
	// under an exclusive lock — so read-mostly workloads don't
	// serialize; the insert path orders entries lazily, scanning for
	// the minimum stamp when it must evict.
	ivGen atomic.Int64
}

// current reports whether the entry still matches its table.
func (tc *tableCache) current() bool { return tc.tbl.Version() == tc.ver }

// intervalEntry is one memoized (polygon → interval column) set.
// stamp is its recency: stamps are unique and monotonic (ivGen), so
// min-stamp eviction reproduces exact LRU order.
type intervalEntry struct {
	key   string
	state atomic.Pointer[ivState]
	// fix brings a carried-over entry up to its version, single-flight.
	fix   buildUnit
	stamp atomic.Int64
}

// ivState is an interval entry's content. col is final for the entry's
// version when pending is empty; otherwise col is exact for the
// earlier version from (whose Version was fromVer) and pending lists,
// ascending, the objects whose intervals must be recomputed before it
// answers.
type ivState struct {
	col     ivColumn
	from    *moft.Table
	fromVer moft.Version
	pending []moft.Oid
}

// build interpolates the version's objects and packs the trajectory
// bounding boxes into the prefilter R-tree: by derivation from the
// parent entry when this version descends from the parent's, else from
// scratch. It publishes to tc only at the very end, so an abandoned
// build (cancel, budget, fault) leaves no partial state behind.
func (tc *tableCache) build(ctx context.Context, e *Engine) error {
	if err := faultpoint.Hit(faultpoint.CoreLITBuild); err != nil {
		return err
	}
	if p := tc.parent.Load(); p != nil && p.lit.ok() && p.current() {
		if changed, ok := tc.tbl.Since(p.tbl); ok {
			return tc.derive(ctx, e, p, changed)
		}
	}
	sp := obs.TracerFrom(ctx).Start("interpolate")
	defer sp.End()
	// Interpolate from the columnar snapshot: per-object samples come
	// from contiguous ranges of the flat T/X/Y arrays instead of
	// walking Tuple structs.
	cols, err := tc.tbl.ColumnsCtx(ctx)
	if err != nil {
		return err
	}
	oids := make([]moft.Oid, len(cols.Oids))
	copy(oids, cols.Oids)
	lits := make(map[moft.Oid]*traj.LIT, len(oids))
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
	}
	e.metrics().ObjectsInterpolated.Add(int64(len(lits)))
	sp.SetCount("objects", int64(len(lits)))
	sp.SetCount("samples", int64(cols.Len()))
	tc.lits = lits
	tc.oids = oids
	tc.tree = bboxTree(oids, lits)
	return nil
}

// derive builds tc from the entry of an ancestor version: the LITs of
// unchanged objects are shared, the changed ones are interpolated from
// their runs, the R-tree is packed again, and every interval entry is
// carried over with the changed objects pending.
func (tc *tableCache) derive(ctx context.Context, e *Engine, p *tableCache, changed []moft.Oid) error {
	sp := obs.TracerFrom(ctx).Start("derive_cache")
	defer sp.End()
	lits := maps.Clone(p.lits)
	var added []moft.Oid
	for i, oid := range changed {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rows := tc.tbl.ObjectTuples(oid)
		s := make(traj.Sample, len(rows))
		for k, tp := range rows {
			s[k] = traj.TimePoint{T: tp.T, P: tp.Point()}
		}
		l, err := traj.NewLIT(s)
		if err != nil {
			return fmt.Errorf("core: object O%d: %w", oid, err)
		}
		if _, ok := lits[oid]; !ok {
			added = append(added, oid)
		}
		lits[oid] = l
	}
	oids := p.oids
	if len(added) > 0 {
		oids = append(slices.Clone(oids), added...)
		slices.Sort(oids)
	}

	p.imu.RLock()
	intervals := make(map[string]*intervalEntry, len(p.intervals))
	for key, en := range p.intervals {
		st := en.state.Load()
		pending := changed
		if len(st.pending) > 0 {
			pending = mergeOids(st.pending, changed)
		}
		carried := &intervalEntry{key: key}
		carried.state.Store(&ivState{col: st.col, from: st.from, fromVer: st.fromVer, pending: pending})
		carried.stamp.Store(en.stamp.Load())
		intervals[key] = carried
	}
	gen := p.ivGen.Load()
	p.imu.RUnlock()

	e.metrics().ObjectsInterpolated.Add(int64(len(changed)))
	sp.SetCount("objects", int64(len(oids)))
	sp.SetCount("changed", int64(len(changed)))
	sp.SetCount("entries", int64(len(intervals)))
	tc.lits = lits
	tc.oids = oids
	tc.tree = bboxTree(oids, lits)
	tc.imu.Lock()
	tc.intervals = intervals
	tc.ivGen.Store(gen)
	tc.imu.Unlock()
	return nil
}

// bboxTree packs the trajectory bounding boxes, in oid order, into the
// prefilter R-tree.
func bboxTree(oids []moft.Oid, lits map[moft.Oid]*traj.LIT) *sindex.RTree {
	entries := make([]sindex.Entry, len(oids))
	for i, oid := range oids {
		entries[i] = sindex.Entry{Box: sindex.Box(lits[oid].BBox()), ID: int64(oid)}
	}
	return sindex.BulkLoad(entries, sindex.DefaultFanout)
}

// mergeOids returns the ascending union of two oid lists.
func mergeOids(a, b []moft.Oid) []moft.Oid {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// ordinal returns the index of a cached object in tc.oids. Object ids
// are usually dense, so the direct guess oid - oids[0] almost always
// hits; otherwise a binary search finds it. Written out so that it
// inlines into the interval scans, which call it per entry.
func (tc *tableCache) ordinal(oid moft.Oid) int {
	oids := tc.oids
	if i := int(oid - oids[0]); uint(i) < uint(len(oids)) && oids[i] == oid {
		return i
	}
	lo, hi := 0, len(oids)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); oids[m] < oid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

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

// appendPolygonKey appends pg's interval-cache key to dst: an exact
// fingerprint of the polygon's coordinates, the raw float64 bits of
// every vertex, rings separated by a NaN marker (no finite coordinate
// collides with it). Two polygons share a key iff they are
// vertex-identical, so cache hits are never wrong. A lookup writes the
// key into a stack buffer and indexes the cache with m[string(buf)],
// which Go does without allocating, so a hit builds no key string.
func appendPolygonKey(dst []byte, pg geom.Polygon) []byte {
	put := func(f float64) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
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
	return dst
}

// polygonIntervals returns the interval column of pg: for every object
// that can intersect pg, the merged time intervals its interpolated
// trajectory spends inside pg over its whole time domain (unclamped —
// readers scan only what their window reaches, which keeps the cache
// window-independent). The column is shared with the cache; callers
// must not mutate it. Absent objects spend no time inside. An aborted
// computation (cancel, budget, fault) is never inserted into the
// cache.
//
//moglint:deterministic
func (e *Engine) polygonIntervals(ctx context.Context, qc *qctl, tc *tableCache, pg geom.Polygon) (*ivColumn, error) {
	met := e.metrics()
	cacheCap := e.intervalCacheCap()
	var kbuf [1024]byte
	var key []byte
	if cacheCap > 0 {
		key = appendPolygonKey(kbuf[:0], pg)
		tc.imu.RLock()
		en, ok := tc.intervals[string(key)]
		if ok {
			en.stamp.Store(tc.ivGen.Add(1)) // most recently used
		}
		tc.imu.RUnlock()
		if ok {
			met.IntervalCacheHits.Inc()
			qc.cacheHit(true)
			return e.settle(ctx, qc, tc, en, pg)
		}
		met.IntervalCacheMisses.Inc()
		qc.cacheHit(false)
	}

	cand, err := tc.candidates(ctx, met, pg.BBox())
	if err != nil {
		return nil, err
	}
	workers := e.workerCount(len(cand))
	parts := make([][]ivEntry, workers)
	err = forChunks(ctx, workers, len(cand), func(chunk, lo, hi int) error {
		var ents []ivEntry
		rows, legs := int64(0), int64(0)
		for _, oid := range cand[lo:hi] {
			l := tc.lits[oid]
			if rows += int64(len(l.Sample())); rows >= checkEvery {
				if err := qc.addRows(ctx, rows); err != nil {
					return err
				}
				rows = 0
			}
			legs += int64(l.NumLegs())
			ents = appendIvEntries(ents, oid, l.InsidePolygonIntervals(pg))
		}
		slices.SortFunc(ents, cmpIvEntry)
		parts[chunk] = ents
		met.IntervalLegsClipped.Add(legs)
		return qc.addRows(ctx, rows)
	})
	if err != nil {
		return nil, err
	}
	// Each chunk is sorted; merge them in chunk order.
	ents := parts[0]
	for _, part := range parts[1:] {
		if err := qc.step(ctx); err != nil {
			return nil, err
		}
		ents = mergeIvEntries(ents, nil, part)
	}
	st := &ivState{col: newIvColumn(ents), from: tc.tbl, fromVer: tc.ver}

	if cacheCap > 0 {
		if err := faultpoint.Hit(faultpoint.CoreIntervalInsert); err != nil {
			return nil, err
		}
		tc.imu.Lock()
		if tc.intervals == nil {
			tc.intervals = make(map[string]*intervalEntry)
		}
		if _, dup := tc.intervals[string(key)]; !dup {
			// Evict least-recently-used entries until the new one fits
			// within the cap: the minimum stamp is the LRU entry (stamps
			// are unique, so there are no ties).
			for len(tc.intervals) >= cacheCap {
				var oldest *intervalEntry
				for _, en := range tc.intervals {
					if oldest == nil || en.stamp.Load() < oldest.stamp.Load() {
						oldest = en
					}
				}
				delete(tc.intervals, oldest.key)
				met.IntervalCacheEvictions.Inc()
			}
			en := &intervalEntry{key: string(key)}
			en.state.Store(st)
			en.stamp.Store(tc.ivGen.Add(1))
			tc.intervals[en.key] = en
		}
		tc.imu.Unlock()
		e.updateCacheGauges()
	}
	return &st.col, nil
}

// settle returns a cached entry's column for tc's version. An entry
// carried over from an earlier version first recomputes, single-flight,
// the intervals of its pending objects: the same prefilter a fresh
// computation applies, then a clip of only the legs the object gained
// since (runs only grow forward in a lineage, so its earlier legs'
// intervals stand). An object that had fewer than two samples, or
// whose earlier version was since reloaded in place, is clipped in
// full. One pass over the earlier column collects the pending objects'
// intervals, and a second merges the rest with their sorted
// recomputed entries into the new column; when no pending object is
// inside pg, before or after, the earlier column stands as it is.
//
//moglint:deterministic
func (e *Engine) settle(ctx context.Context, qc *qctl, tc *tableCache, en *intervalEntry, pg geom.Polygon) (*ivColumn, error) {
	if st := en.state.Load(); len(st.pending) == 0 {
		return &st.col, nil
	}
	_, err := en.fix.run(ctx, "core/interval-fix", func() error {
		st := en.state.Load()
		if len(st.pending) == 0 {
			return nil
		}
		// pending as a bitset over tc's ordinals: every oid of the
		// earlier column and every pending oid is an object of tc.
		isPending := make([]uint64, (len(tc.oids)+63)/64)
		for i, oid := range st.pending {
			if i%checkEvery == 0 {
				if err := qc.step(ctx); err != nil {
					return err
				}
			}
			o := tc.ordinal(oid)
			isPending[o>>6] |= 1 << uint(o&63)
		}
		kept := func(oid moft.Oid) bool {
			o := tc.ordinal(oid)
			return isPending[o>>6]&(1<<uint(o&63)) == 0
		}
		prior := make([][]traj.TimeInterval, len(st.pending))
		dropped := false
		for i, x := range st.col.ents {
			if i%checkEvery == 0 {
				if err := qc.step(ctx); err != nil {
					return err
				}
			}
			if !kept(x.oid) {
				j, _ := slices.BinarySearch(st.pending, x.oid)
				prior[j] = append(prior[j], traj.TimeInterval{Lo: x.lo, Hi: x.hi})
				dropped = true
			}
		}
		box := pg.BBox()
		from := st.from
		if from.Version() != st.fromVer {
			from = nil
		}
		var fresh []ivEntry
		rows, legs := int64(0), int64(0)
		for j, oid := range st.pending {
			l := tc.lits[oid]
			if !l.BBox().Intersects(box) {
				continue
			}
			// The first leg the object gained since from: the leg from
			// its last sample there to the next.
			leg := 0
			if from != nil {
				leg = len(from.ObjectTuples(oid)) - 1
			}
			if rows += int64(len(l.Sample()) - max(leg, 0)); rows >= checkEvery {
				if err := qc.addRows(ctx, rows); err != nil {
					return err
				}
				rows = 0
			}
			var ivs []traj.TimeInterval
			if leg >= 1 {
				ivs = l.InsidePolygonIntervalsFrom(pg, leg, prior[j])
				legs += int64(l.NumLegs() - leg)
			} else {
				ivs = l.InsidePolygonIntervals(pg)
				legs += int64(l.NumLegs())
			}
			fresh = appendIvEntries(fresh, oid, ivs)
		}
		if err := qc.addRows(ctx, rows); err != nil {
			return err
		}
		slices.SortFunc(fresh, cmpIvEntry)
		met := e.metrics()
		met.IntervalObjectsRecomputed.Add(int64(len(st.pending)))
		met.IntervalLegsClipped.Add(legs)
		col := st.col // no pending object is inside pg: the column stands
		if dropped || len(fresh) > 0 {
			col = newIvColumn(mergeIvEntries(st.col.ents, kept, fresh))
		}
		en.state.Store(&ivState{col: col, from: tc.tbl, fromVer: tc.ver})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &en.state.Load().col, nil
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

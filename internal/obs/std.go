package obs

import (
	"fmt"
	"io"
	"sync"
)

// Metrics bundles the engine's standard instruments, resolved against
// one registry. The global Std bundle (bound to Default) is what the
// hot paths in geom, sindex, moft, overlay, core and pietql
// increment; components wanting isolated accounting build their own
// bundle with NewMetrics and inject it (core.Engine.SetMetrics).
type Metrics struct {
	// Section-5 evaluation strategy: precomputed-overlay lookups
	// versus naive geometry fallbacks.
	OverlayHits   *Counter
	OverlayMisses *Counter

	// Engine litCache (per-table interpolated trajectories).
	LitCacheHits    *Counter
	LitCacheMisses  *Counter
	LitCacheObjects *Gauge // cached trajectories across all tables
	LitCacheTables  *Gauge // tables currently cached

	// Work of the per-version caches: trajectories interpolated (every
	// object on a first build, only the changed ones when a version's
	// cache derives from its parent's) and per-object inside-intervals
	// recomputed when a carried-over interval entry is first used.
	ObjectsInterpolated       *Counter
	IntervalObjectsRecomputed *Counter
	// Trajectory legs clipped against a polygon for the interval
	// cache: every leg on a miss, only the legs an object gained since
	// the entry's version when a carried-over entry settles.
	IntervalLegsClipped *Counter
	// Interval-column entries the interpolated readers scanned: every
	// entry of the blocks a query window reaches, up to the first entry
	// starting after the window.
	IntervalEntriesScanned *Counter

	// Geometry predicate evaluations.
	GeomPointInPolygon *Counter
	GeomClip           *Counter
	GeomDistance       *Counter

	// Spatial index and fact-table scan volume.
	SindexNodeVisits  *Counter
	MOFTTuplesScanned *Counter
	MOFTSorts         *Counter // (Oid, t) sorts of loaded rows; ingest never sorts
	MOFTTimeOrders    *Counter // (instant, row) orders of a columnar snapshot built

	// Trajectory-query spatial prefilter: per-table R-tree over
	// trajectory bounding boxes. Candidates survive the envelope test
	// and are evaluated exactly; skipped objects are proven disjoint.
	PrefilterCandidates *Counter
	PrefilterSkipped    *Counter

	// GeoBlocks-style interval cache: memoized per-(table, polygon)
	// InsidePolygonIntervals results.
	IntervalCacheHits      *Counter
	IntervalCacheMisses    *Counter
	IntervalCacheEvictions *Counter
	IntervalCacheEntries   *Gauge // cached (table, polygon) entries

	// GeoBlocks-style pre-aggregated sample grid (internal/agggrid):
	// polygon aggregates answer fully-covered interior cells from
	// per-cell pre-aggregates and refine only boundary cells with exact
	// point-in-polygon tests.
	AggGridBuilds          *Counter
	AggGridQueries         *Counter
	AggGridInteriorCells   *Counter
	AggGridBoundaryCells   *Counter
	AggGridInteriorSamples *Counter // samples accepted without a point-in-polygon test
	AggGridRefinedSamples  *Counter // samples tested exactly in boundary cells
	AggGridTemporalQueries *Counter // non-vacuous windows answered via the per-cell temporal index
	AggGridFringeSamples   *Counter // interior-cell rows examined in fringe time buckets
	AggGridTimeSkips       *Counter // queries answered empty from the snapshot's time extent

	// Overlay precomputation (most recent build).
	OverlayPairs        *Gauge
	OverlayRelations    *Gauge
	OverlayCells        *Gauge
	OverlayBuildSeconds *Histogram

	// Queries by the paper's Section-3.1 type (index 1..8; index 0 is
	// unused).
	Queries [9]*Counter

	QueryDuration *Histogram

	// Robustness: cancellation, panic isolation and resource budgets.
	QueriesCancelled      *Counter // queries ended by cancel or deadline
	QueryPanics           *Counter // worker panics recovered into QueryPanicError
	BudgetRowsExceeded    *Counter // queries aborted at the scanned-rows budget
	BudgetResultsExceeded *Counter // queries aborted at the result-size budget
}

// NewMetrics registers (or resolves) the standard instruments in r.
func NewMetrics(r *Registry) *Metrics {
	m := &Metrics{
		OverlayHits:   r.Counter("mogis_overlay_hits_total", "geometric predicates answered from the precomputed overlay"),
		OverlayMisses: r.Counter("mogis_overlay_misses_total", "geometric predicates computed naively (no overlay attached)"),

		LitCacheHits:    r.Counter("mogis_litcache_hits_total", "trajectory-cache lookups served from the engine litCache"),
		LitCacheMisses:  r.Counter("mogis_litcache_misses_total", "trajectory-cache lookups that had to interpolate a table"),
		LitCacheObjects: r.Gauge("mogis_litcache_objects", "interpolated trajectories currently cached"),
		LitCacheTables:  r.Gauge("mogis_litcache_tables", "fact tables with a cached trajectory set"),

		ObjectsInterpolated:       r.Counter("mogis_core_objects_interpolated_total", "object trajectories interpolated by cache builds and derivations"),
		IntervalObjectsRecomputed: r.Counter("mogis_core_interval_objects_recomputed_total", "per-object inside-intervals recomputed for a carried-over interval entry"),
		IntervalLegsClipped:       r.Counter("mogis_core_interval_legs_clipped_total", "trajectory legs clipped against a polygon for the interval cache"),
		IntervalEntriesScanned:    r.Counter("mogis_core_interval_entries_scanned_total", "interval-column entries scanned by interpolated queries"),

		GeomPointInPolygon: r.Counter("mogis_geom_point_in_polygon_total", "point-in-polygon locations evaluated"),
		GeomClip:           r.Counter("mogis_geom_clip_total", "convex ring clips evaluated"),
		GeomDistance:       r.Counter("mogis_geom_distance_total", "distance predicates evaluated"),

		SindexNodeVisits:  r.Counter("mogis_sindex_node_visits_total", "R-tree nodes visited during searches"),
		MOFTTuplesScanned: r.Counter("mogis_moft_tuples_scanned_total", "MOFT tuples delivered by scans"),
		MOFTSorts:         r.Counter("mogis_moft_sorts_total", "MOFT pending-row sorts on first read after loading"),
		MOFTTimeOrders:    r.Counter("mogis_moft_time_order_builds_total", "time orders of a columnar snapshot built"),

		PrefilterCandidates: r.Counter("mogis_prefilter_candidates_total", "objects surviving the trajectory-bbox prefilter"),
		PrefilterSkipped:    r.Counter("mogis_prefilter_skipped_total", "objects skipped by the trajectory-bbox prefilter"),

		IntervalCacheHits:      r.Counter("mogis_intervalcache_hits_total", "polygon queries answered from the interval cache"),
		IntervalCacheMisses:    r.Counter("mogis_intervalcache_misses_total", "polygon queries that computed inside-intervals"),
		IntervalCacheEvictions: r.Counter("mogis_intervalcache_evictions_total", "least-recently-used interval-cache entries evicted at the cap"),
		IntervalCacheEntries:   r.Gauge("mogis_intervalcache_entries", "memoized (table, polygon) interval sets"),

		AggGridBuilds:          r.Counter("mogis_agggrid_builds_total", "pre-aggregated sample grids built"),
		AggGridQueries:         r.Counter("mogis_agggrid_queries_total", "polygon aggregates answered by the pre-aggregated grid"),
		AggGridInteriorCells:   r.Counter("mogis_agggrid_interior_cells_total", "fully-covered cells aggregated without refinement"),
		AggGridBoundaryCells:   r.Counter("mogis_agggrid_boundary_cells_total", "boundary cells refined with exact point-in-polygon tests"),
		AggGridInteriorSamples: r.Counter("mogis_agggrid_interior_samples_total", "samples accepted from interior cells without a point-in-polygon test"),
		AggGridRefinedSamples:  r.Counter("mogis_agggrid_refined_samples_total", "boundary-cell samples tested with exact point-in-polygon"),
		AggGridTemporalQueries: r.Counter("mogis_agggrid_temporal_queries_total", "non-vacuous time windows answered via the per-cell temporal index"),
		AggGridFringeSamples:   r.Counter("mogis_agggrid_fringe_samples_total", "interior-cell rows examined one by one in fringe time buckets"),
		AggGridTimeSkips:       r.Counter("mogis_agggrid_time_skips_total", "interval queries answered empty because the window misses the snapshot's time extent"),

		OverlayPairs:        r.Gauge("mogis_overlay_pairs", "layer pairs in the most recent overlay build"),
		OverlayRelations:    r.Gauge("mogis_overlay_relations", "directed relation entries in the most recent overlay build"),
		OverlayCells:        r.Gauge("mogis_overlay_cells", "polygon-polygon intersection cells in the most recent overlay build"),
		OverlayBuildSeconds: r.Histogram("mogis_overlay_build_seconds", "wall time of overlay precomputation", nil),

		QueryDuration: r.Histogram("mogis_query_duration_seconds", "wall time of Piet-QL query evaluation", nil),

		QueriesCancelled:      r.Counter("mogis_queries_cancelled_total", "queries ended early by context cancel or deadline"),
		QueryPanics:           r.Counter("mogis_query_panics_total", "worker panics recovered into QueryPanicError"),
		BudgetRowsExceeded:    r.Counter("mogis_budget_rows_exceeded_total", "queries aborted at the max-rows-scanned budget"),
		BudgetResultsExceeded: r.Counter("mogis_budget_results_exceeded_total", "queries aborted at the max-result-size budget"),
	}
	// One literal per series: metric names must be untyped constants
	// (enforced by moglint's metricname analyzer) so the full series
	// set is greppable and collision-checked statically.
	const queriesHelp = "queries evaluated, by paper query type (1-8)"
	m.Queries[1] = r.Counter(`mogis_queries_total{type="1"}`, queriesHelp)
	m.Queries[2] = r.Counter(`mogis_queries_total{type="2"}`, queriesHelp)
	m.Queries[3] = r.Counter(`mogis_queries_total{type="3"}`, queriesHelp)
	m.Queries[4] = r.Counter(`mogis_queries_total{type="4"}`, queriesHelp)
	m.Queries[5] = r.Counter(`mogis_queries_total{type="5"}`, queriesHelp)
	m.Queries[6] = r.Counter(`mogis_queries_total{type="6"}`, queriesHelp)
	m.Queries[7] = r.Counter(`mogis_queries_total{type="7"}`, queriesHelp)
	m.Queries[8] = r.Counter(`mogis_queries_total{type="8"}`, queriesHelp)
	return m
}

// Std is the global instrument bundle, registered in Default.
var Std = NewMetrics(Default)

// Query returns the counter for the given paper query type, or nil
// for an out-of-range type (nil counters are safe to increment).
func (m *Metrics) Query(typ int) *Counter {
	if m == nil || typ < 1 || typ > 8 {
		return nil
	}
	return m.Queries[typ]
}

// --- logging ----------------------------------------------------------

var (
	logMu sync.Mutex
	logW  io.Writer = io.Discard
)

// SetLogOutput directs the package's progress log (overlay builds,
// cache resets) to w; nil silences it again. Returns the previous
// writer.
func SetLogOutput(w io.Writer) io.Writer {
	logMu.Lock()
	defer logMu.Unlock()
	prev := logW
	if w == nil {
		w = io.Discard
	}
	logW = w
	if prev == io.Discard {
		return nil
	}
	return prev
}

// Logf writes one progress line to the configured log output.
func Logf(format string, args ...any) {
	logMu.Lock()
	defer logMu.Unlock()
	if logW == io.Discard {
		return
	}
	fmt.Fprintf(logW, "obs: "+format+"\n", args...)
}

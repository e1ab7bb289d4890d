package core

import (
	"context"

	"mogis/internal/fo"
	"mogis/internal/geom"
	"mogis/internal/gis"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/olap"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
	"mogis/internal/traj"
)

// Querier is the engine surface callers program against: the 18 query
// entry points plus the configuration and cache-lifecycle knobs that
// pietql, the server, the benchmarks and the experiments need. *Engine
// implements it; callers that wrap the engine (tracing, test doubles)
// embed the interface rather than the concrete type.
type Querier interface {
	// Model context and configuration. SetAggGrid switches the
	// pre-aggregated sample grid off (n < 0) or on (n >= 0); the grid
	// always sizes itself from the data.
	Context() *fo.Context
	SetMetrics(*obs.Metrics)
	SetTelemetry(*telemetry.Collector)
	SetWorkers(int)
	SetIntervalCacheCap(int)
	SetAggGrid(int)

	// Cache lifecycle. Caches belong to a table version, so publishing
	// a new version needs neither call: InvalidateTrajectories forgets
	// one table's cached state and forces a rebuild from scratch,
	// ResetCache does so for every table to reclaim memory.
	InvalidateTrajectories(table string)
	ResetCache()
	CacheStats() (tables, objects int)

	// Types 1–2: geometric and summable aggregation.
	GeometricAggregate(ctx context.Context, a gis.Aggregation) (float64, error)
	SummableOverIDs(ctx context.Context, ids []layer.Gid, ft *gis.FactTable, measure string) (float64, error)

	// Types 3–4: region C as a first-order formula.
	RegionC(ctx context.Context, f fo.Formula, out []fo.Var) (*fo.Relation, error)
	AggregateRegion(ctx context.Context, f fo.Formula, out []fo.Var, fn olap.AggFunc, measure fo.Var, groupBy []fo.Var) (*olap.AggResult, error)
	CountRegion(ctx context.Context, f fo.Formula, out []fo.Var) (int, error)

	// Type 5: second-order regions.
	FilterGeometriesByAggregate(ctx context.Context, layerName string, kind layer.Kind,
		inner func(layer.Gid) (float64, error), op fo.CmpOp, threshold float64) ([]layer.Gid, error)

	// Type 6: the trajectory as a static object at an instant.
	ObjectsSampledAt(ctx context.Context, table string, t timedim.Instant, pg geom.Polygon) ([]moft.Oid, error)
	ObjectsInterpolatedAt(ctx context.Context, table string, t timedim.Instant, pg geom.Polygon) ([]moft.Oid, error)

	// Type 7: trajectory queries under interpolation.
	Trajectories(ctx context.Context, table string) (map[moft.Oid]*traj.LIT, error)
	ObjectsPassingThrough(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error)
	ObjectsSampledInside(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) ([]moft.Oid, error)
	CountSamplesInside(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) (int, error)
	TimeSpentInside(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval) (map[moft.Oid]float64, error)
	ObjectsEverWithinRadius(ctx context.Context, table string, center geom.Point, r float64, iv timedim.Interval) (map[moft.Oid]float64, error)
	CountPassingThroughGeometries(ctx context.Context, table, layerName string, ids []layer.Gid, iv timedim.Interval) (int, error)
	CountRegionSet(ctx context.Context, q RegionSetQuery) (RegionSetCount, error)
	ObjectsPossiblyPassingThrough(ctx context.Context, table string, pg geom.Polygon, iv timedim.Interval, speedFactor float64) (PossiblyResult, error)

	// Type 8: aggregation over one trajectory.
	TrajectoryAggregate(ctx context.Context, table string, oid moft.Oid) (TrajectoryStats, error)
}

var _ Querier = (*Engine)(nil)

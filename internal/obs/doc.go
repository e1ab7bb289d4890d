// Package obs is the engine's observability layer: a dependency-free
// tracing and metrics subsystem threaded through the whole query path
// (parse → plan → overlay lookup → FO evaluation → interpolation →
// aggregation).
//
// Two instruments are provided:
//
//   - Metrics — atomic counters, gauges and histograms registered in a
//     Registry. The package-level Default registry carries the
//     engine's standard instruments (the Std bundle): overlay cache
//     hits/misses, litCache hits/misses and size, geometry predicate
//     evaluations, R-tree node visits, MOFT tuples scanned and queries
//     by paper type (1–8). A registry renders itself as expvar-style
//     JSON (WriteJSON) or Prometheus text format (WritePrometheus).
//
//   - Traces — a Tracer producing nestable spans, one trace per query,
//     carried in the query's context.Context (WithTracer, read back
//     with TracerFrom). Spans record wall time, tuple counts and
//     parent/child structure; FormatExplain renders a span tree plus
//     counter deltas as the EXPLAIN ANALYZE output of cmd/pietql.
//
// Instrumentation is zero-alloc when disabled: a nil *Tracer returns
// nil *Span values whose methods are no-ops, and counters are single
// atomic adds (see BenchmarkRemark1 in internal/core for the measured
// overhead).
package obs

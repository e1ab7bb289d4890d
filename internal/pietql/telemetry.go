package pietql

import (
	"time"

	"mogis/internal/telemetry"
)

// Telemetry integration for the Piet-QL pipeline. Every System.Run
// produces one telemetry.QueryRecord for the whole pipeline (parse +
// geo + OLAP + moving objects), on top of the per-entry-point records
// the core engine emits for the MO part. Sampled queries additionally
// run under a retained tracer, so /debug/traces serves EXPLAIN
// ANALYZE-quality span trees for a recent cross-section of real
// traffic without tracing every query.

// The Piet-QL pipeline op names in the telemetry QueryStats table.
const (
	opQuery          = "pietql_query"
	opExplain        = "pietql_explain"
	opExplainAnalyze = "pietql_explain_analyze"
)

// telemetry resolves the collector the system records to: the
// explicitly injected one, else the process-wide default (nil = off).
func (s *System) telemetry() *telemetry.Collector {
	if s.Telemetry != nil {
		return s.Telemetry
	}
	return telemetry.Default()
}

// queryRecord assembles the pipeline-level record for one Run.
func queryRecord(op, table string, start time.Time, err error) telemetry.QueryRecord {
	rec := telemetry.QueryRecord{
		Op:       op,
		Table:    table,
		Start:    start,
		Duration: time.Since(start),
		Outcome:  telemetry.OutcomeOf(err),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}

// moTable names the fact table of the query's moving-objects part
// ("" when the query has none or failed to parse).
func moTable(q *Query) string {
	if q == nil || q.MO == nil {
		return ""
	}
	return q.MO.Table
}

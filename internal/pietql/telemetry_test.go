package pietql_test

import (
	"context"
	"testing"

	"mogis/internal/obs"
	"mogis/internal/telemetry"
)

// moQuery extends the paper example with a moving-objects part so the
// pipeline record carries a fact table.
const moQuery = paperQuery + `| | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln`

// TestSystemTelemetryRecords drives Run through its four shapes —
// plain query, EXPLAIN, EXPLAIN ANALYZE, parse error — against an
// injected collector and checks the per-op stats rows, the pipeline
// records, and the retained traces.
func TestSystemTelemetryRecords(t *testing.T) {
	sys := system(t, true)
	col := telemetry.New(telemetry.Config{
		Registry:    obs.NewRegistry(),
		SampleEvery: 1, // trace every eligible query
	})
	sys.Telemetry = col
	ctx := context.Background()

	if _, err := sys.Run(ctx, moQuery); err != nil {
		t.Fatalf("query: %v", err)
	}
	if _, err := sys.Run(ctx, "EXPLAIN "+moQuery); err != nil {
		t.Fatalf("explain: %v", err)
	}
	if _, err := sys.Run(ctx, "EXPLAIN ANALYZE "+moQuery); err != nil {
		t.Fatalf("explain analyze: %v", err)
	}
	if _, err := sys.Run(ctx, "SELECT bogus"); err == nil {
		t.Fatal("malformed query did not error")
	}

	wantOps := map[string]int64{
		"pietql_query":           2, // one ok, one parse error
		"pietql_explain":         1,
		"pietql_explain_analyze": 1,
	}
	stats := sys.Telemetry.Stats()
	if len(stats.Ops) != len(wantOps) {
		t.Fatalf("ops = %+v", stats.Ops)
	}
	for _, row := range stats.Ops {
		if row.Queries != wantOps[row.Op] {
			t.Errorf("%s queries = %d, want %d", row.Op, row.Queries, wantOps[row.Op])
		}
	}

	recent := col.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent = %d records, want 4", len(recent))
	}
	// Newest first: the parse error leads; the successful pipeline runs
	// carry the MO fact table.
	if recent[0].Outcome != telemetry.OutcomeParseError || recent[0].Err == "" {
		t.Errorf("parse-error record = %+v", recent[0])
	}
	for _, i := range []int{1, 2, 3} {
		if recent[i].Table != "FMbus" || recent[i].Outcome != telemetry.OutcomeOK {
			t.Errorf("recent[%d] = %+v, want ok over FMbus", i, recent[i])
		}
	}
	// The parse error is also pinned in the slow/failed set.
	slow := col.Slow(0)
	if len(slow) != 1 || slow[0].Outcome != telemetry.OutcomeParseError {
		t.Errorf("slow = %+v", slow)
	}

	// Traces: the plain run and the parse error are sampled; EXPLAIN
	// ANALYZE always retains its trace; bare EXPLAIN never traces.
	traces := col.Traces(false)
	if len(traces) != 3 {
		t.Fatalf("retained traces = %d, want 3", len(traces))
	}
	byOp := map[string]int{}
	for _, tr := range traces {
		byOp[string(tr.Rec.Op)]++
		if tr.Root == nil || tr.Query == "" {
			t.Errorf("trace %d incomplete: %+v", tr.ID, tr.Rec)
		}
		if got, ok := col.TraceByID(tr.ID); !ok || got.ID != tr.ID {
			t.Errorf("TraceByID(%d) lost the trace", tr.ID)
		}
	}
	if byOp["pietql_query"] != 2 || byOp["pietql_explain_analyze"] != 1 {
		t.Errorf("traced ops = %v", byOp)
	}
}

// TestSystemTelemetryDisabled pins the default: a System with no
// collector (and no process default) records nothing and does not
// trace. Its run starts no span on a finished tracer and leaves
// nothing behind: the next run, with a collector, retains exactly its
// own trace.
func TestSystemTelemetryDisabled(t *testing.T) {
	prev := telemetry.SetDefault(nil)
	defer telemetry.SetDefault(prev)
	const postFinish = "mogis_tracer_post_finish_starts_total"

	sys := system(t, false)
	before := obs.Default.Snapshot().Value(postFinish)
	if _, err := sys.Run(context.Background(), paperQuery); err != nil {
		t.Fatal(err)
	}
	if d := obs.Default.Snapshot().Value(postFinish) - before; d != 0 {
		t.Errorf("%s moved by %g", postFinish, d)
	}

	col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry(), SampleEvery: 1})
	sys.Telemetry = col
	if _, err := sys.Run(context.Background(), paperQuery); err != nil {
		t.Fatal(err)
	}
	traces := col.Traces(false)
	if len(traces) != 1 || count(traces[0].Root, "geo") != 1 {
		t.Errorf("retained %d traces after the disabled run, want 1 with one geo span", len(traces))
	}
}

// TestMOPartIsOneEngineCall: every moving-objects shape — sampled or
// interpolated, grouped or not — reaches the engine as exactly one
// count_region_set record, whose windows feed the grid's time-bucket
// hint.
func TestMOPartIsOneEngineCall(t *testing.T) {
	sys := system(t, false)
	col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry(), SampleEvery: -1})
	sys.Engine.SetTelemetry(col)
	sys.Telemetry = col
	ctx := context.Background()
	shapes := []string{"", " SAMPLED ONLY", " GROUP BY hour", " SAMPLED ONLY GROUP BY day"}
	for _, shape := range shapes {
		if _, err := sys.Run(ctx, paperQuery+`| | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln
			DURING '2006-01-09 09:00' TO '2006-01-09 12:00'`+shape); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range col.Stats().Ops {
		switch row.Op {
		case "pietql_query":
		case "count_region_set":
			if row.Queries != int64(len(shapes)) {
				t.Errorf("count_region_set queries = %d, want %d", row.Queries, len(shapes))
			}
			if row.MeanWindow != 3*3600+1 {
				t.Errorf("count_region_set mean window = %d, want %d", row.MeanWindow, 3*3600+1)
			}
		default:
			t.Errorf("unexpected engine op %s (%d queries)", row.Op, row.Queries)
		}
	}
}

package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mogis/internal/obs"
	"mogis/internal/qerr"
)

// newTestCollector builds a collector on an isolated registry so
// counter assertions don't race other tests touching obs.Default.
func newTestCollector(t *testing.T, cfg Config) *Collector {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	return New(cfg)
}

func mkRec(op string, d time.Duration, out Outcome) QueryRecord {
	return QueryRecord{
		Op:          op,
		Table:       "cars",
		Start:       time.Now().Add(-d),
		Duration:    d,
		Outcome:     out,
		RowsScanned: 100,
		Results:     10,
		CacheHits:   3,
		CacheMisses: 1,
	}
}

func TestRecordAggregatesPerOp(t *testing.T) {
	c := newTestCollector(t, Config{SlowThreshold: time.Second})
	c.Record(mkRec("scan", time.Millisecond, OutcomeOK))
	c.Record(mkRec("scan", 2*time.Millisecond, OutcomeOK))
	c.Record(mkRec("scan", time.Millisecond, OutcomeCancelled))
	c.Record(mkRec("scan", time.Millisecond, OutcomeBudgetRows))
	c.Record(mkRec("scan", time.Millisecond, OutcomeBudgetResults))
	c.Record(mkRec("scan", time.Millisecond, OutcomePanic))
	c.Record(mkRec("scan", time.Millisecond, Outcome("parse_error"))) // unknown → errors
	c.Record(mkRec("other", time.Millisecond, OutcomeOK))

	stats := c.Stats()
	if len(stats.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(stats.Ops))
	}
	// Sorted by op name: "other" then "scan".
	if stats.Ops[0].Op != "other" || stats.Ops[1].Op != "scan" {
		t.Fatalf("op order = %s, %s", stats.Ops[0].Op, stats.Ops[1].Op)
	}
	scan := stats.Ops[1]
	if scan.Queries != 7 || scan.Cancelled != 1 || scan.BudgetRows != 1 ||
		scan.BudgetResults != 1 || scan.Panics != 1 || scan.Errors != 1 {
		t.Errorf("scan row wrong: %+v", scan)
	}
	if scan.RowsScanned != 700 || scan.Results != 70 {
		t.Errorf("resource totals wrong: rows=%d results=%d", scan.RowsScanned, scan.Results)
	}
	if scan.CacheHits != 21 || scan.CacheMisses != 7 {
		t.Errorf("cache totals wrong: hits=%d misses=%d", scan.CacheHits, scan.CacheMisses)
	}
	if want := 21.0 / 28.0; scan.CacheHitRatio != want {
		t.Errorf("cache hit ratio = %g, want %g", scan.CacheHitRatio, want)
	}
	if scan.Window.Queries != 7 {
		t.Errorf("window queries = %d, want 7", scan.Window.Queries)
	}
	if scan.Window.P50Secs <= 0 || scan.Window.MaxSecs < scan.Window.P99Secs {
		t.Errorf("window quantiles implausible: %+v", scan.Window)
	}
}

func TestRecentAndSlowRings(t *testing.T) {
	c := newTestCollector(t, Config{
		RecentQueries: 4,
		SlowQueries:   2,
		SlowThreshold: 50 * time.Millisecond,
	})
	for i := 0; i < 6; i++ {
		d := time.Duration(i+1) * time.Millisecond
		c.Record(mkRec("q", d, OutcomeOK))
	}
	recent := c.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent = %d, want ring size 4", len(recent))
	}
	// Newest first: durations 6,5,4,3 ms.
	for i, want := range []time.Duration{6, 5, 4, 3} {
		if recent[i].Duration != want*time.Millisecond {
			t.Errorf("recent[%d].Duration = %s, want %dms", i, recent[i].Duration, want)
		}
	}
	if got := c.Recent(2); len(got) != 2 || got[0].Duration != 6*time.Millisecond {
		t.Errorf("Recent(2) = %v", got)
	}

	if len(c.Slow(0)) != 0 {
		t.Fatalf("fast ok queries must not enter the slow set")
	}
	// Slow and failed queries are retained; the ring overwrites oldest.
	c.Record(mkRec("q", 60*time.Millisecond, OutcomeOK))        // slow
	c.Record(mkRec("q", time.Millisecond, OutcomeError))        // failed
	c.Record(mkRec("q", 70*time.Millisecond, OutcomeCancelled)) // both
	slow := c.Slow(0)
	if len(slow) != 2 {
		t.Fatalf("slow = %d, want ring size 2", len(slow))
	}
	if slow[0].Duration != 70*time.Millisecond || slow[1].Outcome != OutcomeError {
		t.Errorf("slow ring contents wrong: %+v", slow)
	}
}

func TestNilCollectorIsDisabled(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Record(mkRec("q", time.Millisecond, OutcomeOK)) // must not panic
	if c.Recent(0) != nil || c.Slow(0) != nil || c.Traces(false) != nil {
		t.Error("nil collector returned records")
	}
	if got := c.Stats(); len(got.Ops) != 0 {
		t.Errorf("nil collector stats = %+v", got)
	}
	if tr := c.MaybeTrace(); tr != nil {
		t.Error("nil collector sampled a trace")
	}
	if id := c.RetainTrace(nil, QueryRecord{}, ""); id != 0 {
		t.Error("nil collector retained a trace")
	}
	if _, ok := c.TraceByID(1); ok {
		t.Error("nil collector resolved a trace")
	}
	var buf bytes.Buffer
	if err := c.WriteStatsJSON(&buf); err != nil {
		t.Errorf("WriteStatsJSON on nil collector: %v", err)
	}
}

func TestTraceSamplingCadence(t *testing.T) {
	c := newTestCollector(t, Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 40; i++ {
		if tr := c.MaybeTrace(); tr != nil {
			sampled++
			rec := mkRec("q", time.Millisecond, OutcomeOK)
			if id := c.RetainTrace(tr, rec, "SELECT ..."); id == 0 {
				t.Fatal("RetainTrace returned id 0 for a live trace")
			}
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 40 with SampleEvery=4, want 10", sampled)
	}
	if got := len(c.Traces(false)); got != 10 {
		t.Errorf("retained %d traces, want 10", got)
	}

	off := newTestCollector(t, Config{SampleEvery: -1})
	for i := 0; i < 10; i++ {
		if off.MaybeTrace() != nil {
			t.Fatal("SampleEvery<0 must disable sampling")
		}
	}
}

func TestTraceRetentionAndLookup(t *testing.T) {
	c := newTestCollector(t, Config{
		SampleEvery:   1,
		RecentTraces:  2,
		SlowTraces:    2,
		SlowThreshold: 50 * time.Millisecond,
	})
	var ids []uint64
	for i := 0; i < 3; i++ {
		tr := c.MaybeTrace()
		tr.Start("stage").End()
		ids = append(ids, c.RetainTrace(tr, mkRec("q", time.Millisecond, OutcomeOK), "fast"))
	}
	// Ring size 2: the first trace is evicted.
	if _, ok := c.TraceByID(ids[0]); ok {
		t.Error("evicted trace still resolvable")
	}
	if tr, ok := c.TraceByID(ids[2]); !ok || tr.Root.Find("stage") == nil {
		t.Errorf("trace %d lost or missing its span tree", ids[2])
	}

	// A slow trace survives in the slow set even after the recent ring
	// cycles past it.
	slowID := func() uint64 {
		tr := c.MaybeTrace()
		return c.RetainTrace(tr, mkRec("q", time.Second, OutcomeOK), "slow one")
	}()
	for i := 0; i < 4; i++ {
		tr := c.MaybeTrace()
		c.RetainTrace(tr, mkRec("q", time.Millisecond, OutcomeOK), "fast")
	}
	if tr, ok := c.TraceByID(slowID); !ok || tr.Query != "slow one" {
		t.Error("slow trace evicted by fast traffic")
	}
	if got := len(c.Traces(true)); got != 1 {
		t.Errorf("slow trace set = %d, want 1", got)
	}
}

func TestQueryLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	c := newTestCollector(t, Config{LogWriter: &buf})
	c.Record(mkRec("scan", 1500*time.Microsecond, OutcomeOK))
	rec := mkRec("scan", time.Millisecond, OutcomeBudgetRows)
	rec.Err = "core: query exceeded its rows budget (5 > 4)"
	c.Record(rec)

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2", len(lines))
	}
	first := lines[0]
	for _, key := range []string{"op", "outcome", "duration_us", "rows_scanned", "results", "cache_hits", "cache_misses", "start", "table"} {
		if _, ok := first[key]; !ok {
			t.Errorf("log record missing key %q: %v", key, first)
		}
	}
	if first["op"] != "scan" || first["outcome"] != "ok" || first["duration_us"] != float64(1500) {
		t.Errorf("log record wrong: %v", first)
	}
	if _, ok := first["error"]; ok {
		t.Error("ok record must omit the error key")
	}
	second := lines[1]
	if second["outcome"] != "budget_rows" || !strings.Contains(second["error"].(string), "rows budget") {
		t.Errorf("failed record wrong: %v", second)
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	c := newTestCollector(t, Config{
		Registry:      reg,
		LogWriter:     &buf,
		SlowThreshold: 50 * time.Millisecond,
		SampleEvery:   1,
		RecentTraces:  1,
	})
	c.Record(mkRec("q", time.Millisecond, OutcomeOK))
	c.Record(mkRec("q", time.Second, OutcomeOK)) // slow
	for i := 0; i < 2; i++ {
		tr := c.MaybeTrace()
		c.RetainTrace(tr, mkRec("q", time.Millisecond, OutcomeOK), "x")
	}

	want := map[string]float64{
		"mogis_telemetry_records_total":        2,
		"mogis_telemetry_log_records_total":    2,
		"mogis_telemetry_slow_queries_total":   1,
		"mogis_telemetry_traces_sampled_total": 2,
		"mogis_telemetry_traces_evicted_total": 1, // ring of 1, second evicts first
	}
	snap := reg.Snapshot()
	for name, v := range want {
		if got := snap.Value(name); got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
}

func TestDefaultCollector(t *testing.T) {
	prev := SetDefault(nil)
	defer SetDefault(prev)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not clear the default")
	}
	c := newTestCollector(t, Config{})
	SetDefault(c)
	if Default() != c {
		t.Fatal("Default() did not return the installed collector")
	}
}

// TestRecordZeroAllocWarm: the hot-path recording contract. After the
// op row exists, Record must not allocate (the rings are preallocated,
// the histogram is fixed buckets); a nil collector must cost nothing.
func TestRecordZeroAllocWarm(t *testing.T) {
	c := newTestCollector(t, Config{SampleEvery: -1}) // no LogWriter
	rec := mkRec("hot", time.Millisecond, OutcomeOK)
	c.Record(rec) // create the op row
	allocs := testing.AllocsPerRun(1000, func() {
		c.Record(rec)
	})
	if allocs != 0 {
		t.Errorf("warm Record allocated %.1f times per op, want 0", allocs)
	}

	var off *Collector
	allocs = testing.AllocsPerRun(1000, func() {
		off.Record(rec)
		if off.Enabled() {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled Record allocated %.1f times per op, want 0", allocs)
	}
}

// TestOutcomeOfCancelBudgetPanic pins the one error-to-outcome mapping
// the engine, the Piet-QL pipeline and the HTTP layer share, including
// its precedence: parse, then cancel, then budget, then panic.
func TestOutcomeOfCancelBudgetPanic(t *testing.T) {
	rows := &qerr.BudgetError{Resource: "rows", Limit: 1, Used: 2}
	results := &qerr.BudgetError{Resource: "results", Limit: 1, Used: 2}
	parse := &qerr.ParseError{Err: errors.New("unexpected token")}
	panicked := qerr.NewPanic("test/op", "boom")
	for _, tc := range []struct {
		name string
		err  error
		want Outcome
	}{
		{"nil", nil, OutcomeOK},
		{"plain", errors.New("unknown table"), OutcomeError},
		{"parse", parse, OutcomeParseError},
		{"cancel", context.Canceled, OutcomeCancelled},
		{"deadline", fmt.Errorf("query: %w", context.DeadlineExceeded), OutcomeCancelled},
		{"budget rows", rows, OutcomeBudgetRows},
		{"budget results", fmt.Errorf("scan: %w", results), OutcomeBudgetResults},
		{"panic", fmt.Errorf("fanout: %w", panicked), OutcomePanic},
		{"parse before cancel", errors.Join(context.Canceled, parse), OutcomeParseError},
		{"cancel before budget", errors.Join(rows, context.Canceled), OutcomeCancelled},
		{"budget before panic", errors.Join(panicked, results), OutcomeBudgetResults},
	} {
		if got := OutcomeOf(tc.err); got != tc.want {
			t.Errorf("%s: OutcomeOf(%v) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}
}

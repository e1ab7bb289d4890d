package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mogis/internal/core"
	"mogis/internal/faultpoint"
	"mogis/internal/layer"
	"mogis/internal/obs"
	"mogis/internal/qerr"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
)

// telemetryWorkload attaches an isolated collector (own registry, JSONL
// log into buf, trace sampling off) to a robust workload's engine.
func telemetryWorkload(t *testing.T) (*robustWorkload, *telemetry.Collector, *bytes.Buffer) {
	t.Helper()
	w := newRobustWorkload(t)
	var buf bytes.Buffer
	col := telemetry.New(telemetry.Config{
		Registry:    obs.NewRegistry(),
		LogWriter:   &buf,
		SampleEvery: -1,
	})
	w.eng.SetTelemetry(col)
	return w, col, &buf
}

// opRow finds one op's row in the stats table.
func opRow(t *testing.T, col *telemetry.Collector, op string) telemetry.OpStats {
	t.Helper()
	for _, row := range col.Stats().Ops {
		if row.Op == op {
			return row
		}
	}
	t.Fatalf("no stats row for op %q", op)
	return telemetry.OpStats{}
}

// TestChaosTelemetryOutcomes drives one query shape through every
// faultpoint error class — injected error, recovered panic,
// cancellation, row budget, result budget, plus a clean run — and
// asserts each class surfaces in both the /debug/stats table and the
// structured query log.
func TestChaosTelemetryOutcomes(t *testing.T) {
	w, col, buf := telemetryWorkload(t)
	pass := func(ctx context.Context) error {
		_, err := w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
		return err
	}

	if err := pass(context.Background()); err != nil {
		t.Fatalf("baseline query: %v", err)
	}

	w.eng.ResetCache()
	faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModeError, 0)
	err := pass(context.Background())
	faultpoint.Reset()
	if err == nil {
		t.Fatal("injected fault did not surface")
	}

	w.eng.ResetCache()
	faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModePanic, 0)
	err = pass(context.Background())
	faultpoint.Reset()
	if !qerr.IsPanic(err) {
		t.Fatalf("got %v, want recovered panic", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pass(ctx); !qerr.IsCancel(err) {
		t.Fatalf("got %v, want cancellation", err)
	}

	w.eng.ResetCache()
	if err := pass(core.WithBudget(context.Background(), core.Budget{MaxRows: 1})); !qerr.IsBudget(err) {
		t.Fatalf("got %v, want rows budget abort", err)
	}
	if err := pass(core.WithBudget(context.Background(), core.Budget{MaxResults: 1})); !qerr.IsBudget(err) {
		t.Fatalf("got %v, want results budget abort", err)
	}

	row := opRow(t, col, "objects_passing_through")
	if row.Queries != 6 {
		t.Errorf("queries = %d, want 6", row.Queries)
	}
	if row.Errors != 1 || row.Panics != 1 || row.Cancelled != 1 ||
		row.BudgetRows != 1 || row.BudgetResults != 1 {
		t.Errorf("outcome tallies wrong: %+v", row)
	}

	// Every class appears in the JSONL query log, with the error text
	// attached to the non-ok records.
	outcomes := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Op      string `json:"op"`
			Outcome string `json:"outcome"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("query log line is not JSON: %v\n%s", err, line)
		}
		outcomes[rec.Outcome]++
		if rec.Outcome != "ok" && rec.Error == "" {
			t.Errorf("non-ok log record without error text: %s", line)
		}
	}
	for _, want := range []string{"ok", "error", "panic", "cancelled", "budget_rows", "budget_results"} {
		if outcomes[want] != 1 {
			t.Errorf("query log has %d %q records, want 1 (all: %v)", outcomes[want], want, outcomes)
		}
	}
}

// TestEveryQueryRecordsOnce calls every Querier query method — each
// method taking a context first and returning an error last, so one
// added later is covered too — with zero-valued arguments, once under
// a live and once under a cancelled context. Each call must record
// exactly one QueryRecord whose outcome is the returned error's, a
// panic provoked by a zero argument must come back as a panic record
// rather than escape, and no two methods may share an op name.
func TestEveryQueryRecordsOnce(t *testing.T) {
	w := newRobustWorkload(t)
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	errType := reflect.TypeOf((*error)(nil)).Elem()
	qt := reflect.TypeOf((*core.Querier)(nil)).Elem()
	eng := reflect.ValueOf(w.eng)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, run := range []struct {
		name string
		ctx  context.Context
	}{{"live", context.Background()}, {"cancelled", cancelled}} {
		ops := map[string]string{}
		outcomes := map[telemetry.Outcome]int{}
		for i := 0; i < qt.NumMethod(); i++ {
			m := qt.Method(i)
			if m.Type.NumIn() == 0 || m.Type.In(0) != ctxType ||
				m.Type.NumOut() == 0 || m.Type.Out(m.Type.NumOut()-1) != errType {
				continue
			}
			col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry(), SampleEvery: -1})
			w.eng.SetTelemetry(col)
			args := []reflect.Value{reflect.ValueOf(run.ctx)}
			for j := 1; j < m.Type.NumIn(); j++ {
				args = append(args, reflect.Zero(m.Type.In(j)))
			}
			err := callQuery(eng.MethodByName(m.Name), args)
			recs := col.Recent(0)
			if len(recs) != 1 {
				t.Errorf("%s/%s: %d query records, want 1", run.name, m.Name, len(recs))
				continue
			}
			rec := recs[0]
			if want := telemetry.OutcomeOf(err); rec.Outcome != want {
				t.Errorf("%s/%s: recorded outcome %q, returned error %v (%q)", run.name, m.Name, rec.Outcome, err, want)
			}
			if other, dup := ops[rec.Op]; dup {
				t.Errorf("%s and %s share op name %q", other, m.Name, rec.Op)
			}
			ops[rec.Op] = m.Name
			outcomes[rec.Outcome]++
		}
		if len(ops) == 0 {
			t.Fatal("no Querier query methods found")
		}
		// RegionC evaluates its nil formula, among others: the panic
		// path must stay covered.
		if run.name == "live" && outcomes[telemetry.OutcomePanic] == 0 {
			t.Errorf("%s: no zero-argument call panicked (outcomes %v)", run.name, outcomes)
		}
	}
	w.eng.SetTelemetry(nil)
}

// callQuery calls one query method and returns its error result; a
// panic escaping the method becomes an error that matches no record.
func callQuery(fn reflect.Value, args []reflect.Value) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic escaped the query: %v", v)
		}
	}()
	out := fn.Call(args)
	err, _ = out[len(out)-1].Interface().(error)
	return err
}

// TestEngineTelemetryPerOpRecords checks the engine bracket fills the
// whole record: op name, table, duration, rows scanned, and the cache
// hit/miss tally across a cold-then-warm LIT cache pair.
func TestEngineTelemetryPerOpRecords(t *testing.T) {
	w, col, _ := telemetryWorkload(t)
	ctx := context.Background()

	if _, err := w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win); err != nil {
		t.Fatal(err)
	}
	if _, err := w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win); err != nil {
		t.Fatal(err)
	}
	if _, err := w.eng.CountSamplesInside(ctx, "FM", w.pg, w.win); err != nil {
		t.Fatal(err)
	}

	recent := col.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("recent = %d records, want 3", len(recent))
	}
	// Newest first: [CountSamplesInside, warm pass, cold pass].
	cold, warm := recent[2], recent[1]
	for _, rec := range recent {
		if rec.Table != "FM" || rec.Duration <= 0 || rec.Outcome != telemetry.OutcomeOK {
			t.Errorf("incomplete record: %+v", rec)
		}
	}
	if cold.Op != "objects_passing_through" || warm.Op != "objects_passing_through" ||
		recent[0].Op != "count_samples_inside" {
		t.Fatalf("op order wrong: %v %v %v", recent[0].Op, recent[1].Op, recent[2].Op)
	}
	if cold.RowsScanned == 0 {
		t.Error("cold pass scanned no rows")
	}
	if cold.CacheMisses == 0 {
		t.Errorf("cold pass should miss the LIT cache: %+v", cold)
	}
	if warm.CacheHits == 0 {
		t.Errorf("warm pass should hit the LIT cache: %+v", warm)
	}

	if got := opRow(t, col, "objects_passing_through").Queries; got != 2 {
		t.Errorf("objects_passing_through queries = %d, want 2", got)
	}
	if got := opRow(t, col, "count_samples_inside").Queries; got != 1 {
		t.Errorf("count_samples_inside queries = %d, want 1", got)
	}

	// Detaching the collector silences the engine even though the
	// collector itself stays alive.
	w.eng.SetTelemetry(nil)
	if _, err := w.eng.CountSamplesInside(ctx, "FM", w.pg, w.win); err != nil {
		t.Fatal(err)
	}
	if got := len(col.Recent(0)); got != 3 {
		t.Errorf("detached engine still recorded: %d records", got)
	}
}

// TestScanRoutesChargeEveryRow: with the grid off, each sampled scan
// route charges the query's row budget with every row it counts in
// mogis_moft_tuples_scanned_total, the last partial stride included,
// so the telemetry record's RowsScanned equals the counter's delta;
// and every route reads the same rows, exactly those of the table
// inside the query window.
func TestScanRoutesChargeEveryRow(t *testing.T) {
	w, col, _ := telemetryWorkload(t)
	w.eng.SetAggGrid(-1)
	ctx := context.Background()
	tbl, err := w.eng.Context().Table("FM")
	if err != nil {
		t.Fatal(err)
	}
	at := tbl.ObjectTuples(tbl.Objects()[0])[5].T // an instant some object is sampled at
	narrow := timedim.Interval{Lo: w.mid, Hi: w.mid + 600}
	inWindow := func(iv timedim.Interval) int64 {
		n := int64(0)
		for _, oid := range tbl.Objects() {
			for _, tp := range tbl.ObjectTuples(oid) {
				if tp.T >= iv.Lo && tp.T <= iv.Hi {
					n++
				}
			}
		}
		return n
	}
	cases := []struct {
		op  string
		win timedim.Interval
		run func() error
	}{
		{"count_samples_inside", narrow, func() error {
			_, err := w.eng.CountSamplesInside(ctx, "FM", w.pg, narrow)
			return err
		}},
		{"objects_sampled_inside", narrow, func() error {
			_, err := w.eng.ObjectsSampledInside(ctx, "FM", w.pg, narrow)
			return err
		}},
		{"objects_sampled_at", timedim.Interval{Lo: at, Hi: at}, func() error {
			_, err := w.eng.ObjectsSampledAt(ctx, "FM", at, w.pg)
			return err
		}},
		{"count_region_set", narrow, func() error {
			q := core.RegionSetQuery{Table: "FM", Layer: "Ln", IDs: []layer.Gid{1, 2, 3, 4}, Window: narrow, SampledOnly: true}
			_, err := w.eng.CountRegionSet(ctx, q)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.op, func(t *testing.T) {
			before := w.met.MOFTTuplesScanned.Value()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			delta := w.met.MOFTTuplesScanned.Value() - before
			rec := col.Recent(1)[0]
			if rec.Op != c.op {
				t.Fatalf("newest record is %s, want %s", rec.Op, c.op)
			}
			if delta == 0 || rec.RowsScanned != delta {
				t.Errorf("RowsScanned = %d, tuples scanned delta = %d; want equal and nonzero", rec.RowsScanned, delta)
			}
			if want := inWindow(c.win); rec.RowsScanned != want {
				t.Errorf("RowsScanned = %d, want the %d rows inside %v", rec.RowsScanned, want, c.win)
			}
		})
	}
}

// TestTelemetryBracketAllocRegression pins the hot-path budget from
// the issue: recording a query must not add heap allocations to the
// bracket beyond the query's own work (one windowed-histogram insert
// plus atomic adds, all allocation-free when warm).
func TestTelemetryBracketAllocRegression(t *testing.T) {
	w := newRobustWorkload(t)
	ctx := context.Background()
	query := func() {
		if _, err := w.eng.TrajectoryAggregate(ctx, "FM", 1); err != nil {
			t.Fatal(err)
		}
	}

	w.eng.SetTelemetry(nil)
	query() // warm caches
	disabled := testing.AllocsPerRun(200, query)

	col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry(), SampleEvery: -1})
	w.eng.SetTelemetry(col)
	query() // create the op's stats row
	enabled := testing.AllocsPerRun(200, query)

	if delta := enabled - disabled; delta > 1 {
		t.Errorf("telemetry adds %.1f allocs/query (disabled %.1f, enabled %.1f), want <= 1",
			delta, disabled, enabled)
	}
}

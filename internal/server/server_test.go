package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mogis/internal/faultpoint"
	"mogis/internal/obs"
	"mogis/internal/telemetry"
)

// Test queries against the paper scenario. The MO query traverses the
// engine's LIT-build path, so arming core faultpoints drives the
// typed-error status mapping end to end.
const (
	geoQuery = `SELECT layer.Ln; FROM PietSchema;`
	moQuery  = `SELECT layer.Ln; FROM PietSchema; | | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln`
)

// newTestServer builds a Server over the paper scenario (no overlay —
// naive geometry keeps setup fast) with an isolated telemetry
// collector and metrics registry, mutated by mod before assembly.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *telemetry.Collector) {
	t.Helper()
	tel := telemetry.New(telemetry.Config{})
	sys, err := NewSystem(SystemConfig{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		System:        sys,
		Telemetry:     tel,
		Registry:      obs.NewRegistry(),
		GeofenceLayer: "Ln",
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, tel
}

// do runs one request through the full mux and returns the recorder.
func do(s *Server, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", w.Body.String(), err)
	}
	return e
}

func TestQueryOK(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := do(s, "POST", "/query", geoQuery, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.GeoIDs["Ln"]) == 0 {
		t.Errorf("no geo ids in %+v", resp)
	}
	if resp.ID == 0 {
		t.Error("query id missing")
	}
}

func TestQueryJSONBodyAndBudgets(t *testing.T) {
	s, _ := newTestServer(t, nil)
	body := `{"query": "SELECT layer.Ln; FROM PietSchema;", "max_rows": 100000, "timeout_ms": 5000}`
	w := do(s, "POST", "/query", body, map[string]string{"Content-Type": "application/json"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// TestQueryStatusMapping pins the typed-error → status-code contract
// from DESIGN.md §15, and the telemetry outcome each error class
// records: on the request's http_query record and, when the request
// reached the pipeline, the same outcome on its pietql_query record.
func TestQueryStatusMapping(t *testing.T) {
	s, tel := newTestServer(t, nil)

	cases := []struct {
		name    string
		target  string
		body    string
		arm     func()
		status  int
		code    string
		outcome telemetry.Outcome
	}{
		{
			name: "parse error", target: "/query",
			body:   `MOVING COUNT(*) FROM FMbus`,
			status: http.StatusBadRequest, code: "parse_error", outcome: telemetry.OutcomeParseError,
		},
		{
			name: "eval error", target: "/query",
			body:   `SELECT layer.Ln; FROM WrongSchema;`,
			status: http.StatusUnprocessableEntity, code: "eval_error", outcome: telemetry.OutcomeError,
		},
		{
			name: "empty query", target: "/query",
			body:   "",
			status: http.StatusBadRequest, code: "bad_request", outcome: telemetry.OutcomeParseError,
		},
		{
			name: "bad format", target: "/query?format=xml",
			body:   geoQuery,
			status: http.StatusBadRequest, code: "bad_request", outcome: telemetry.OutcomeParseError,
		},
		{
			name: "budget rows", target: "/query?max_rows=1",
			body:   moQuery,
			status: http.StatusUnprocessableEntity, code: "budget_rows", outcome: telemetry.OutcomeBudgetRows,
		},
		{
			name: "budget results", target: "/query?max_results=1",
			body:   moQuery,
			status: http.StatusRequestEntityTooLarge, code: "budget_results", outcome: telemetry.OutcomeBudgetResults,
		},
		{
			name: "deadline", target: "/query?timeout_ms=5",
			body:   moQuery,
			arm:    func() { faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModeDelay, 50*time.Millisecond) },
			status: http.StatusRequestTimeout, code: "deadline", outcome: telemetry.OutcomeCancelled,
		},
		{
			name: "engine panic", target: "/query",
			body:   moQuery,
			arm:    func() { faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModePanic, 0) },
			status: http.StatusInternalServerError, code: "panic", outcome: telemetry.OutcomePanic,
		},
		{
			name: "injected fault", target: "/query",
			body:   moQuery,
			arm:    func() { faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModeError, 0) },
			status: http.StatusInternalServerError, code: "injected_fault", outcome: telemetry.OutcomeError,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Cached trajectories would skip the armed build site.
			s.sys.Engine.ResetCache()
			if tc.arm != nil {
				tc.arm()
				defer faultpoint.Reset()
			}
			w := do(s, "POST", tc.target, tc.body, nil)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.code, e.Error)
			}
			httpRec, pietRec := lastRequestRecords(tel)
			if httpRec == nil || httpRec.Outcome != tc.outcome {
				t.Fatalf("http_query record %+v, want outcome %q", httpRec, tc.outcome)
			}
			if pietRec != nil && pietRec.Outcome != httpRec.Outcome {
				t.Errorf("pietql_query outcome %q, http_query outcome %q", pietRec.Outcome, httpRec.Outcome)
			}
		})
	}

	// After every failure mode: disarmed retry answers correctly.
	faultpoint.Reset()
	w := do(s, "POST", "/query", moQuery, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("retry after faults: status %d: %s", w.Code, w.Body.String())
	}
}

// lastRequestRecords returns the newest http_query record and the
// pietql_query record the same request produced, if any: the pipeline
// records before the endpoint does, so it sits between the newest
// http_* record and the one before it.
func lastRequestRecords(tel *telemetry.Collector) (httpRec, pietRec *telemetry.QueryRecord) {
	for _, rec := range tel.Recent(0) {
		switch {
		case strings.HasPrefix(rec.Op, "http_"):
			if httpRec != nil {
				return httpRec, pietRec
			}
			if rec.Op == opHTTPQuery {
				httpRec = &rec
			}
		case rec.Op == "pietql_query" && httpRec != nil && pietRec == nil:
			pietRec = &rec
		}
	}
	return httpRec, pietRec
}

func TestQueryClientCancel499(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest("POST", "/query", strings.NewReader(moQuery)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != statusCodeClientClosed {
		t.Fatalf("status %d, want 499: %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Code != "client_closed_request" {
		t.Errorf("code %q", e.Code)
	}
}

func TestQueryCSV(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := do(s, "POST", "/query?format=csv", geoQuery, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rows, err := csv.NewReader(w.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 || rows[0][0] != "section" {
		t.Fatalf("csv rows: %v", rows)
	}
	geo := 0
	for _, row := range rows[1:] {
		if row[0] == "geo" && row[1] == "Ln" {
			geo++
		}
	}
	if geo == 0 {
		t.Errorf("no geo rows in %v", rows)
	}
}

func TestQueryTextFormat(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := do(s, "POST", "/query?format=text", geoQuery, nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "Ln:") {
		t.Fatalf("status %d body %q", w.Code, w.Body.String())
	}
}

// TestIngestInvalidatesCaches proves live ingest is visible to
// queries: the MO count changes after new trajectory rows arrive,
// which requires the copy-on-write table swap AND the
// trajectory-cache invalidation to both work. The case runs on the
// one engine shape the system has, under its established subtest name.
func TestIngestInvalidatesCaches(t *testing.T) {
	t.Run("unsharded", func(t *testing.T) {
		s, _ := newTestServer(t, nil)

		count := func() int {
			w := do(s, "POST", "/query", moQuery, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("query: %d %s", w.Code, w.Body.String())
			}
			var resp queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.HasMO {
				t.Fatal("no MO result")
			}
			return resp.MOCount
		}

		before := count()
		// A brand-new object crossing neighborhood polygons.
		batch := "9001,10,0.5,0.5\n9001,20,3.5,0.5\n9001,30,3.5,3.5\n"
		w := do(s, "POST", "/ingest?table=FMbus", batch, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
		}
		var ir ingestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Rows != 3 {
			t.Errorf("rows = %d, want 3", ir.Rows)
		}
		after := count()
		if after <= before {
			t.Errorf("MO count %d -> %d; ingest invisible to queries (stale caches?)", before, after)
		}
	})
}

func TestIngestErrors(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, tc := range []struct {
		name, target, body string
		status             int
		code               string
	}{
		{"unknown table", "/ingest?table=Nope", "1,2,3,4\n", http.StatusNotFound, "unknown_table"},
		{"missing table", "/ingest", "1,2,3,4\n", http.StatusBadRequest, "bad_request"},
		{"bad line", "/ingest?table=FMbus", "1,2,three,4\n", http.StatusBadRequest, "bad_request"},
		{"empty batch", "/ingest?table=FMbus", "# nothing\n", http.StatusBadRequest, "bad_request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, "POST", tc.target, tc.body, nil)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != tc.code {
				t.Errorf("code %q, want %q", e.Code, tc.code)
			}
		})
	}
}

// TestIngestRejectsNonFinite: NaN and ±Inf coordinates (in any spelling
// strconv accepts) and out-of-range literals are a typed 400 naming the
// offending line, and the rejected batch leaves no trace — the table
// is not replaced and the geofence hub publishes nothing, even for the
// valid rows ahead of the bad one.
func TestIngestRejectsNonFinite(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, tc := range []struct{ name, x, y string }{
		{"NaN x", "NaN", "0.5"},
		{"lowercase nan y", "0.5", "nan"},
		{"+Inf x", "+Inf", "0.5"},
		{"-inf y", "0.5", "-inf"},
		{"1e400 overflow", "1e400", "0.5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, err := s.sys.Ctx.Table("FMbus")
			if err != nil {
				t.Fatal(err)
			}
			seq := s.hub.seq.Load()
			// Line 1 is valid and would publish an enter event; line 2
			// carries the bad coordinate.
			body := "9101,10,0.5,0.5\n9101,20," + tc.x + "," + tc.y + "\n"
			w := do(s, "POST", "/ingest?table=FMbus", body, nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			e := decodeError(t, w)
			if e.Code != "bad_request" {
				t.Errorf("code %q, want bad_request", e.Code)
			}
			if !strings.Contains(e.Error, "line 2") {
				t.Errorf("error %q does not name line 2", e.Error)
			}
			after, err := s.sys.Ctx.Table("FMbus")
			if err != nil {
				t.Fatal(err)
			}
			if after != before {
				t.Error("rejected batch replaced the table")
			}
			if got := s.hub.seq.Load(); got != seq {
				t.Errorf("rejected batch published %d geofence events", got-seq)
			}
		})
	}
}

// TestIngestKeepsMOFTAFunction: a batch that gives a stored (oid, t)
// a new position, or an object an instant not after its latest sample,
// is a typed 422 naming the line, and it is rejected whole — the valid
// rows ahead of the bad one are not applied, the table version and the
// engine caches stay, and the geofence hub publishes nothing.
func TestIngestKeepsMOFTAFunction(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if w := do(s, "POST", "/ingest?table=FMbus", "9201,10,0.5,0.5\n9201,20,3.5,0.5\n", nil); w.Code != http.StatusOK {
		t.Fatalf("seed ingest: %d %s", w.Code, w.Body.String())
	}
	if w := do(s, "POST", "/query", moQuery, nil); w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	for _, tc := range []struct{ name, bad, code string }{
		{"new position for a stored sample", "9201,10,1.5,0.5", "conflicting_sample"},
		{"before the latest stored sample", "9201,15,0.5,0.5", "out_of_order"},
		{"not after an earlier row of the batch", "9203,30,0.5,0.5\n9203,25,0.5,0.5", "out_of_order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, err := s.sys.Ctx.Table("FMbus")
			if err != nil {
				t.Fatal(err)
			}
			tables, objects := s.sys.Engine.CacheStats()
			seq := s.hub.seq.Load()
			rejected := s.met.ingestRejected.Value()
			// Line 1 is valid and would publish an enter event.
			w := do(s, "POST", "/ingest?table=FMbus", "9202,10,0.5,0.5\n"+tc.bad+"\n", nil)
			if w.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422: %s", w.Code, w.Body.String())
			}
			e := decodeError(t, w)
			if e.Code != tc.code {
				t.Errorf("code %q, want %q", e.Code, tc.code)
			}
			if !strings.Contains(e.Error, "line ") {
				t.Errorf("error %q names no line", e.Error)
			}
			after, err := s.sys.Ctx.Table("FMbus")
			if err != nil {
				t.Fatal(err)
			}
			if after != before {
				t.Error("rejected batch replaced the table")
			}
			if tb, ob := s.sys.Engine.CacheStats(); tb != tables || ob != objects {
				t.Errorf("rejected batch dropped engine caches: (%d, %d) -> (%d, %d)", tables, objects, tb, ob)
			}
			if got := s.hub.seq.Load(); got != seq {
				t.Errorf("rejected batch published %d geofence events", got-seq)
			}
			if got := s.met.ingestRejected.Value(); got != rejected+1 {
				t.Errorf("rejected counter %d -> %d", rejected, got)
			}
		})
	}
}

// TestIngestRetryIsNoop: rows repeating stored samples are no-ops, so
// a retried batch applies nothing, keeps the table version, counts no
// rows and publishes no events.
func TestIngestRetryIsNoop(t *testing.T) {
	s, _ := newTestServer(t, nil)
	batch := "9301,10,0.5,0.5\n9301,20,-50,-50\n"
	ingest := func() ingestResponse {
		t.Helper()
		w := do(s, "POST", "/ingest?table=FMbus", batch, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
		}
		var ir ingestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}
	first := ingest()
	if first.Rows != 2 || first.Events == 0 {
		t.Fatalf("first ingest = %+v, want 2 rows and events", first)
	}
	tbl, err := s.sys.Ctx.Table("FMbus")
	if err != nil {
		t.Fatal(err)
	}
	seq := s.hub.seq.Load()
	if retry := ingest(); retry.Rows != 0 || retry.Events != 0 {
		t.Errorf("retry = %+v, want 0 rows and 0 events", retry)
	}
	if again, _ := s.sys.Ctx.Table("FMbus"); again != tbl {
		t.Error("a retry of applied rows replaced the table")
	}
	if got := s.hub.seq.Load(); got != seq {
		t.Errorf("retry published %d events", got-seq)
	}
	if got := s.met.ingestRows.Value(); got != 2 {
		t.Errorf("ingest rows counter = %d, want 2", got)
	}
}

// TestIngestNeverSorts is the deterministic work gate for O(batch)
// ingest: once the loaded table has been read, neither ingest nor the
// queries after it sort a MOFT again.
func TestIngestNeverSorts(t *testing.T) {
	s, _ := newTestServer(t, nil)
	query := func() {
		t.Helper()
		if w := do(s, "POST", "/query", moQuery, nil); w.Code != http.StatusOK {
			t.Fatalf("query: %d %s", w.Code, w.Body.String())
		}
	}
	query()
	sorts := obs.Std.MOFTSorts.Value()
	for i := 1; i <= 3; i++ {
		body := fmt.Sprintf("9401,%d,0.5,0.5\n9402,%d,3.5,0.5\n", i*10, i*10)
		if w := do(s, "POST", "/ingest?table=FMbus", body, nil); w.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	query()
	if d := obs.Std.MOFTSorts.Value() - sorts; d != 0 {
		t.Errorf("3 ingests and a query sorted the MOFT %d times; want 0", d)
	}
}

// TestTelemetryPerRequest pins the one-QueryRecord-per-request
// contract, including shed requests.
func TestTelemetryPerRequest(t *testing.T) {
	s, tel := newTestServer(t, nil)
	do(s, "POST", "/query", geoQuery, nil)
	do(s, "POST", "/query", "MOVING nonsense", nil)
	do(s, "POST", "/ingest?table=FMbus", "77,5,0.1,0.1\n", nil)

	// The pipeline emits its own pietql_query records to the same
	// collector; only the per-request http_* records are under test.
	ops := map[string]int{}
	outcomes := map[telemetry.Outcome]int{}
	for _, rec := range tel.Recent(0) {
		if !strings.HasPrefix(rec.Op, "http_") {
			continue
		}
		ops[rec.Op]++
		outcomes[rec.Outcome]++
	}
	if ops[opHTTPQuery] != 2 || ops[opHTTPIngest] != 1 {
		t.Errorf("ops = %v, want 2 http_query + 1 http_ingest", ops)
	}
	if outcomes[telemetry.OutcomeOK] != 2 || outcomes["parse_error"] != 1 {
		t.Errorf("outcomes = %v", outcomes)
	}
}

// TestPanicIsolation: a panicking handler yields a typed 500 carrying
// the query id and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	s.sys.Engine.ResetCache()
	faultpoint.Arm(faultpoint.CoreLITBuild, faultpoint.ModePanic, 0)
	w := do(s, "POST", "/query", moQuery, nil)
	faultpoint.Reset()
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", w.Code)
	}
	e := decodeError(t, w)
	if e.ID == 0 {
		t.Error("500 body does not carry the query id")
	}
	// The daemon is still alive and correct.
	if w := do(s, "POST", "/query", moQuery, nil); w.Code != http.StatusOK {
		t.Fatalf("after panic: %d %s", w.Code, w.Body.String())
	}
}

// TestTelemetrySurfaceSameMux: /metrics and /debug/* ride the daemon
// mux.
func TestTelemetrySurfaceSameMux(t *testing.T) {
	s, _ := newTestServer(t, nil)
	do(s, "POST", "/query", geoQuery, nil)
	for _, target := range []string{"/metrics", "/debug/stats", "/debug/queries", "/debug/vars", "/healthz"} {
		w := do(s, "GET", target, "", nil)
		if w.Code != http.StatusOK {
			t.Errorf("%s: status %d", target, w.Code)
		}
	}
	w := do(s, "GET", "/debug/stats", "", nil)
	if !strings.Contains(w.Body.String(), "goroutines") {
		t.Errorf("/debug/stats missing runtime view: %s", w.Body.String())
	}
}

// TestDrainingRejects: after Shutdown begins, new work is shed with
// 503/draining.
func TestDrainingRejects(t *testing.T) {
	s, tel := newTestServer(t, nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := do(s, "POST", "/query", geoQuery, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if e := decodeError(t, w); e.Code != "draining" {
		t.Errorf("code %q", e.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	found := false
	for _, rec := range tel.Recent(0) {
		if rec.Outcome == OutcomeShed {
			found = true
		}
	}
	if !found {
		t.Error("shed request not recorded in telemetry")
	}
}

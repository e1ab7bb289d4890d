package telhttp

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mogis/internal/obs"
	"mogis/internal/telemetry"
)

func testCollector(t *testing.T) *telemetry.Collector {
	t.Helper()
	c := telemetry.New(telemetry.Config{
		Registry:      obs.NewRegistry(),
		SampleEvery:   1,
		SlowThreshold: 50 * time.Millisecond,
	})
	c.Record(telemetry.QueryRecord{
		Op: "objects_passing_through", Table: "cars",
		Start: time.Now().Add(-3 * time.Millisecond), Duration: 3 * time.Millisecond,
		Outcome: telemetry.OutcomeOK, RowsScanned: 500, CacheHits: 1,
	})
	c.Record(telemetry.QueryRecord{
		Op: "objects_passing_through", Table: "cars",
		Start: time.Now().Add(-80 * time.Millisecond), Duration: 80 * time.Millisecond,
		Outcome: telemetry.OutcomeCancelled, Err: "context canceled",
	})
	return c
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	c := testCollector(t)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, w := range []string{
		"mogis_telemetry_records_total 2",
		`mogis_query_window_seconds{op="objects_passing_through",quantile="0.99"}`,
		`mogis_query_window_seconds_count{op="objects_passing_through"} 2`,
		"# TYPE mogis_query_window_seconds summary",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q:\n%s", w, body)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	c := testCollector(t)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	code, body := get(t, srv, "/debug/stats")
	if code != http.StatusOK {
		t.Fatalf("/debug/stats status = %d", code)
	}
	var stats telemetry.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/debug/stats is not JSON: %v", err)
	}
	if len(stats.Ops) != 1 || stats.Ops[0].Op != "objects_passing_through" {
		t.Fatalf("stats ops = %+v", stats.Ops)
	}
	row := stats.Ops[0]
	if row.Queries != 2 || row.Cancelled != 1 || row.RowsScanned != 500 {
		t.Errorf("stats row wrong: %+v", row)
	}
	if stats.Runtime.Goroutines <= 0 || stats.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime view empty: %+v", stats.Runtime)
	}
}

func TestQueriesEndpoint(t *testing.T) {
	c := testCollector(t)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	code, body := get(t, srv, "/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", code)
	}
	var doc struct {
		Enabled bool                    `json:"enabled"`
		Recent  []telemetry.QueryRecord `json:"recent"`
		Slow    []telemetry.QueryRecord `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/queries is not JSON: %v", err)
	}
	if !doc.Enabled || len(doc.Recent) != 2 {
		t.Fatalf("queries doc = %+v", doc)
	}
	// Newest first: the cancelled slow query leads both lists.
	if doc.Recent[0].Outcome != telemetry.OutcomeCancelled || doc.Recent[0].Err == "" {
		t.Errorf("recent[0] = %+v", doc.Recent[0])
	}
	if len(doc.Slow) != 1 || doc.Slow[0].Duration != 80*time.Millisecond {
		t.Errorf("slow = %+v", doc.Slow)
	}

	if _, body := get(t, srv, "/debug/queries?max=1"); strings.Count(body, `"op"`) != 2 {
		t.Errorf("max=1 should cap both lists at one record each:\n%s", body)
	}
}

func TestTracesEndpoints(t *testing.T) {
	c := testCollector(t)
	tr := c.MaybeTrace()
	tr.Start("geo").End()
	id := c.RetainTrace(tr, telemetry.QueryRecord{
		Op: "pietql_query", Start: time.Now(), Duration: time.Millisecond,
		Outcome: telemetry.OutcomeOK,
	}, "SELECT GIS districts FROM schema;")
	if id == 0 {
		t.Fatal("trace not retained")
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	code, body := get(t, srv, "/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, `"op": "pietql_query"`) {
		t.Fatalf("/debug/traces status=%d body:\n%s", code, body)
	}

	code, body = get(t, srv, fmt.Sprintf("/debug/traces/%d", id))
	if code != http.StatusOK {
		t.Fatalf("/debug/traces/%d status = %d", id, code)
	}
	for _, w := range []string{"SELECT GIS districts", "└─ geo", "outcome=ok"} {
		if !strings.Contains(body, w) {
			t.Errorf("trace page missing %q:\n%s", w, body)
		}
	}

	if code, _ := get(t, srv, "/debug/traces/999999"); code != http.StatusNotFound {
		t.Errorf("missing trace status = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/debug/traces/xyz"); code != http.StatusBadRequest {
		t.Errorf("bad trace id status = %d, want 400", code)
	}
}

func TestExpvarEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(testCollector(t)))
	defer srv.Close()
	code, body := get(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", code)
	}
	if !strings.Contains(body, "memstats") || !strings.Contains(body, "mogis_telemetry") {
		t.Errorf("/debug/vars missing expected vars:\n%.400s", body)
	}
}

func TestNilCollectorHandler(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/stats", "/debug/queries", "/debug/traces"} {
		code, body := get(t, srv, path)
		if code != http.StatusOK {
			t.Errorf("%s with nil collector status = %d", path, code)
		}
		if strings.Contains(body, "panic") {
			t.Errorf("%s body suggests a panic:\n%s", path, body)
		}
	}
	code, body := get(t, srv, "/debug/queries")
	if code != http.StatusOK || !strings.Contains(body, `"enabled": false`) {
		t.Errorf("nil collector must report enabled=false, got:\n%s", body)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testCollector(t))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/debug/stats")
	if err != nil {
		t.Fatalf("GET via Serve listener: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	// Close must release the port. Re-binding the address proves it
	// without racing another test process grabbing the freed port
	// (which is what a "GET now fails" assertion would race with).
	if ln, err := net.Listen("tcp", srv.Addr); err != nil {
		t.Errorf("address not released after Close: %v", err)
	} else {
		ln.Close()
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil server Close: %v", err)
	}
}

// TestShutdownDrainsInFlight pins the graceful half of the Serve
// lifecycle: a request already being read when Shutdown begins still
// gets its complete response, and Shutdown returns cleanly after.
func TestShutdownDrainsInFlight(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testCollector(t))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Open the connection and send only part of the request, so the
	// server sees an active conn that Shutdown must wait for.
	conn, err := net.Dial("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /debug/stats HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	// Give the server a beat to accept and start reading the header.
	time.Sleep(20 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Complete the request mid-drain; it must be answered in full.
	if _, err := io.WriteString(conn, "Connection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutines") {
		t.Errorf("drained response: status %d body %q", resp.StatusCode, body)
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	var nilSrv *Server
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := nilSrv.Shutdown(ctx); err != nil {
		t.Errorf("nil server Shutdown: %v", err)
	}
}

// TestServeCloseCycleNoLeak churns the listener lifecycle: 100
// Serve/Close rounds must not accrete goroutines (each round spawns
// one Serve goroutine that must exit with its listener).
func TestServeCloseCycleNoLeak(t *testing.T) {
	c := testCollector(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		srv, err := Serve("127.0.0.1:0", c)
		if err != nil {
			t.Fatalf("cycle %d: Serve: %v", i, err)
		}
		// Odd cycles exercise a served request before teardown.
		if i%2 == 1 {
			resp, err := http.Get("http://" + srv.Addr + "/metrics")
			if err != nil {
				t.Fatalf("cycle %d: GET: %v", i, err)
			}
			resp.Body.Close()
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("cycle %d: Close: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines grew across 100 Serve/Close cycles: before=%d after=%d", before, n)
	}
}

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"mogis/internal/layer"
)

func TestDiffZones(t *testing.T) {
	for _, tc := range []struct {
		prev, next, entered, left []layer.Gid
	}{
		{nil, []layer.Gid{1}, []layer.Gid{1}, nil},
		{[]layer.Gid{1}, nil, nil, []layer.Gid{1}},
		{[]layer.Gid{1, 2}, []layer.Gid{2, 3}, []layer.Gid{3}, []layer.Gid{1}},
		{[]layer.Gid{1, 2}, []layer.Gid{1, 2}, nil, nil},
		{nil, nil, nil, nil},
	} {
		entered, left := diffZones(tc.prev, tc.next)
		if !eqGids(entered, tc.entered) || !eqGids(left, tc.left) {
			t.Errorf("diffZones(%v, %v) = %v, %v; want %v, %v",
				tc.prev, tc.next, entered, left, tc.entered, tc.left)
		}
	}
}

func eqGids(a, b []layer.Gid) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSubscriberDropOldest pins the bounded-queue overflow policy at
// the unit level: oldest events go first, the dropped count survives
// until the next drain.
func TestSubscriberDropOldest(t *testing.T) {
	s := &subscriber{cap: 3, wake: make(chan struct{}, 1)}
	for i := 1; i <= 5; i++ {
		s.push(Event{Type: "enter", Seq: uint64(i)})
	}
	evs, dropped := s.drain()
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if len(evs) != 3 || evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("queue kept %v, want seqs 3..5", evs)
	}
	if evs, dropped := s.drain(); len(evs) != 0 || dropped != 0 {
		t.Errorf("second drain = %v, %d; want empty", evs, dropped)
	}
}

// sseClient reads one /events stream over a real connection.
type sseClient struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func dialSSE(t *testing.T, base, extra string) *sseClient {
	t.Helper()
	resp, err := http.Get(base + "/events" + extra)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("/events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	return &sseClient{resp: resp, sc: bufio.NewScanner(resp.Body)}
}

func (c *sseClient) close() { c.resp.Body.Close() }

// next returns the next event frame (type, decoded data).
func (c *sseClient) next(t *testing.T) (string, Event) {
	t.Helper()
	var typ string
	for c.sc.Scan() {
		line := c.sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("frame %q: %v", line, err)
			}
			return typ, ev
		}
	}
	t.Fatalf("stream ended early: %v", c.sc.Err())
	return "", Event{}
}

// startServer runs a full daemon on a loopback listener.
func startServer(t *testing.T, mod func(*Config)) (*Server, string) {
	t.Helper()
	s, _ := newTestServer(t, mod)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + s.Addr()
}

// TestGeofenceEnterLeave drives the full path: ingest moves an object
// into neighborhood polygon 1 and then out; the SSE subscriber sees
// the matching enter and leave events.
func TestGeofenceEnterLeave(t *testing.T) {
	s, base := startServer(t, nil)
	c := dialSSE(t, base, "")
	defer c.close()
	if typ, _ := c.next(t); typ != "hello" {
		t.Fatalf("first frame %q, want hello", typ)
	}

	// Wait for the subscription to register before publishing.
	deadline := time.Now().Add(2 * time.Second)
	for s.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	// Scenario neighborhoods are unit squares: n1 = [0,1)x[0,1).
	post(t, base+"/ingest?table=FMbus", "8001,10,0.5,0.5\n")
	typ, ev := c.next(t)
	if typ != "enter" || ev.Oid != 8001 || ev.Zone == 0 {
		t.Fatalf("frame %s %+v, want enter for oid 8001", typ, ev)
	}
	zone := ev.Zone

	post(t, base+"/ingest?table=FMbus", "8001,20,-50.0,-50.0\n")
	typ, ev = c.next(t)
	if typ != "leave" || ev.Oid != 8001 || ev.Zone != zone {
		t.Fatalf("frame %s %+v, want leave from zone %d", typ, ev, zone)
	}
}

// TestGeofenceSeededFromTable: the hub's containment state for an
// object it has not seen since start comes from the object's last
// sample in the table. Objects 8101 and 8102 were loaded inside
// neighborhood 1; a new row still inside publishes nothing, and a
// first ingested row outside publishes exactly one leave.
func TestGeofenceSeededFromTable(t *testing.T) {
	s, base := startServer(t, func(cfg *Config) {
		tbl, err := cfg.System.Ctx.Table("FMbus")
		if err != nil {
			t.Fatal(err)
		}
		tbl.Add(8101, 10, 0.5, 0.5)
		tbl.Add(8102, 10, 0.5, 0.5)
	})
	c := dialSSE(t, base, "")
	defer c.close()
	if typ, _ := c.next(t); typ != "hello" {
		t.Fatalf("first frame %q, want hello", typ)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	ingest := func(body string) int {
		t.Helper()
		resp, err := http.Post(base+"/ingest?table=FMbus", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %q: status %d, %v", body, resp.StatusCode, err)
		}
		return r.Events
	}
	if n := ingest("8101,20,0.6,0.6\n"); n != 0 {
		t.Fatalf("row still inside the loaded zone published %d events, want 0", n)
	}
	for _, oid := range []int64{8102, 8101} {
		if n := ingest(fmt.Sprintf("%d,30,-50,-50\n", oid)); n != 1 {
			t.Fatalf("oid %d: row outside the loaded zone published %d events, want 1", oid, n)
		}
		typ, ev := c.next(t)
		if typ != "leave" || int64(ev.Oid) != oid || ev.Zone == 0 {
			t.Fatalf("frame %s %+v, want leave for oid %d", typ, ev, oid)
		}
	}
}

// TestEventsShutdownFrame: a draining server sends the shutdown event
// before closing the stream.
func TestEventsShutdownFrame(t *testing.T) {
	s, base := startServer(t, nil)
	c := dialSSE(t, base, "")
	defer c.close()
	c.next(t) // hello

	deadline := time.Now().Add(2 * time.Second)
	for s.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if typ, _ := c.next(t); typ != "shutdown" {
		t.Fatalf("frame %q, want shutdown", typ)
	}
	if n := s.Subscribers(); n != 0 {
		t.Errorf("%d subscribers after drain", n)
	}
}

// TestEventsMaxEvents: the stream ends cleanly after max_events.
func TestEventsMaxEvents(t *testing.T) {
	_, base := startServer(t, nil)
	c := dialSSE(t, base, "?max_events=1")
	defer c.close()
	c.next(t) // hello
	post(t, base+"/ingest?table=FMbus", "8002,10,0.5,0.5\n")
	if typ, _ := c.next(t); typ != "enter" {
		t.Fatalf("frame %q", typ)
	}
	// Stream must now end.
	if c.sc.Scan() && strings.HasPrefix(c.sc.Text(), "event: ") {
		t.Fatalf("stream kept going: %q", c.sc.Text())
	}
}

// TestEventsLagged: a consumer that cannot keep up gets drop-oldest
// plus one lagged event carrying the dropped count.
func TestEventsLagged(t *testing.T) {
	s, base := startServer(t, func(c *Config) {
		c.SubscriberQueue = 2
	})
	c := dialSSE(t, base, "")
	defer c.close()
	c.next(t) // hello

	deadline := time.Now().Add(2 * time.Second)
	for s.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	// Publish a burst directly into the hub while the client's flush
	// loop has no chance to run between pushes (single lock hold).
	s.hub.mu.Lock()
	for i := 0; i < 10; i++ {
		s.hub.publishLocked(Event{Type: "enter", Table: "FMbus", Oid: 9100, Zone: layer.Gid(i + 1)})
	}
	s.hub.mu.Unlock()

	sawLagged := false
	droppedTotal := 0
	received := 0
	for received < 2 {
		typ, ev := c.next(t)
		if typ == "lagged" {
			sawLagged = true
			droppedTotal += ev.Dropped
			continue
		}
		received++
	}
	if !sawLagged || droppedTotal == 0 {
		t.Errorf("lagged=%v dropped=%d; slow consumer not notified", sawLagged, droppedTotal)
	}
	if got := s.met.eventsDropped.Value(); got == 0 {
		t.Error("dropped events not counted")
	}
}

// TestEventsNoGeofence: /events 404s when no layer is configured.
func TestEventsNoGeofence(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.GeofenceLayer = "" })
	w := do(s, "GET", "/events", "", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", w.Code)
	}
}

// TestSubscriberLimit: the (admission-free) /events endpoint is capped
// by MaxSubscribers.
func TestSubscriberLimit(t *testing.T) {
	s, base := startServer(t, func(c *Config) { c.MaxSubscribers = 1 })
	c := dialSSE(t, base, "")
	defer c.close()
	c.next(t) // hello
	deadline := time.Now().Add(2 * time.Second)
	for s.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second subscriber: status %d, want 503", resp.StatusCode)
	}
}

func post(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, buf[:n])
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mogis/internal/layer"
	"mogis/internal/olap"
)

// post sends one request over the world's client and reads the whole
// response. With tracing on it is the http.roundtrip span.
func (w *world) post(ctx context.Context, tr *tracer, path, body string) (status int, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("building request: %w", err)
	}
	req.Header.Set("Content-Type", "text/plain")
	sp := tr.start(spanRoundtrip, 0, path)
	defer sp.end()
	if sp != nil {
		req.Header.Set(spanHeader, fmt.Sprint(sp.id()))
	}
	res, err := w.client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("POST %s: %w", path, err)
	}
	defer res.Body.Close()
	resp, err = io.ReadAll(res.Body)
	if err != nil {
		return res.StatusCode, nil, fmt.Errorf("reading %s response: %w", path, err)
	}
	return res.StatusCode, resp, nil
}

// tally counts requests and the ones that failed or answered wrongly.
type tally struct {
	attempted, failed int
}

// fail counts a failure and reports the first few on standard error.
func (t *tally) fail(format string, args ...any) {
	if t.failed++; t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", args...)
	}
}

// queryAnswer is the part of mogisd's /query JSON the harness reads.
type queryAnswer struct {
	GeoIDs  map[string][]layer.Gid `json:"geo_ids"`
	MOCount int                    `json:"mo_count"`
	HasMO   bool                   `json:"has_mo"`
	MOGroup *olap.AggResult        `json:"mo_groups"`
	Text    string                 `json:"text"`
}

// queryLoad is one closed-loop query client: it sends request next of
// its stream only after the previous one completed, and checks every
// answer against the first answer to the same text.
type queryLoad struct {
	tally
	w    *world
	tr   *tracer
	gen  func(seed int64, i int) string
	seed int64
	next int

	first map[string]string // query text → first answer
	texts []string          // distinct texts in first-seen order
	lat   []float64         // ms, measured requests only
	at    []float64         // seconds into the window each one completed
	alloc []float64         // KB the process allocated while each one ran
	last  queryAnswer       // decoded answer of the latest request
}

func newQueryLoad(w *world, tr *tracer, seed int64, gen func(int64, int) string) *queryLoad {
	return &queryLoad{w: w, tr: tr, gen: gen, seed: seed, first: make(map[string]string)}
}

// one sends the next request and returns its text and latency.
func (q *queryLoad) one(ctx context.Context) (string, time.Duration) {
	text := q.gen(q.seed, q.next)
	q.next++
	q.attempted++
	begin := time.Now()
	status, body, err := q.w.post(ctx, q.tr, "/query", text)
	d := time.Since(begin)
	q.last = queryAnswer{}
	switch {
	case err != nil:
		q.fail("query %d: %v", q.next-1, err)
	case status != http.StatusOK:
		q.fail("query %d: status %d: %s", q.next-1, status, bytes.TrimSpace(body))
	default:
		if err := json.Unmarshal(body, &q.last); err != nil {
			q.fail("query %d: decoding answer: %v", q.next-1, err)
		} else if prev, seen := q.first[text]; !seen {
			q.first[text] = q.last.Text
			q.texts = append(q.texts, text)
		} else if prev != q.last.Text {
			q.fail("query %d: answer changed for %q: %q, first %q", q.next-1, text, q.last.Text, prev)
		}
	}
	return text, d
}

// warm sends n unmeasured requests.
func (q *queryLoad) warm(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		q.one(ctx)
	}
}

// runUntil measures requests that start before end.
func (q *queryLoad) runUntil(ctx context.Context, end time.Time) {
	start := time.Now()
	probe := newMemProbe()
	for time.Now().Before(end) && ctx.Err() == nil {
		var d time.Duration
		n := probe.around(func() { _, d = q.one(ctx) })
		q.lat = append(q.lat, ms(d))
		q.at = append(q.at, time.Since(start).Seconds())
		q.alloc = append(q.alloc, float64(n)/1024)
	}
}

// clock is the time source of the open-loop scheduler.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// openLoop calls op(i, due) on a fixed schedule, due = start + i·period,
// for n requests (n > 0) or until due reaches end. op is never called
// before its due time; when op overruns, later calls start late and the
// caller times them from due, which charges them the wait.
func (c clock) openLoop(start time.Time, period time.Duration, n int, end time.Time, op func(i int, due time.Time)) {
	for i := 0; n <= 0 || i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if n <= 0 && !due.Before(end) {
			return
		}
		if wait := due.Sub(c.now()); wait > 0 {
			c.sleep(wait)
		}
		op(i, due)
	}
}

// ingestAnswer is mogisd's /ingest JSON.
type ingestAnswer struct {
	Rows   int `json:"rows"`
	Events int `json:"events"`
}

// ingestLoad posts the ingest stream batch by batch over one
// connection.
type ingestLoad struct {
	tally
	w    *world
	tr   *tracer
	next int // next batch of the stream

	measuredFrom int         // first measured batch
	due          []time.Time // per batch sent, its due time
	lat          []float64   // ms from due time to response
	service      []float64   // ms from send to response
	late         []float64   // ms from due time to send
	at           []float64   // seconds into the schedule each was due
	start        time.Time   // of the open-loop schedule
	alloc        []float64   // KB the process allocated while each ran
	events       int         // events the server reports having published
}

func newIngestLoad(w *world, tr *tracer) *ingestLoad { return &ingestLoad{w: w, tr: tr} }

// send posts the next batch, which was due at due.
func (l *ingestLoad) send(ctx context.Context, due time.Time, measured bool) {
	body := batchBody(l.w.stream, l.next)
	l.next++
	l.attempted++
	l.due = append(l.due, due)
	sent := time.Now()
	status, resp, err := l.w.post(ctx, l.tr, "/ingest?table="+table, body)
	done := time.Now()
	var ans ingestAnswer
	switch {
	case err != nil:
		l.fail("batch %d: %v", l.next-1, err)
	case status != http.StatusOK:
		l.fail("batch %d: status %d: %s", l.next-1, status, bytes.TrimSpace(resp))
	case json.Unmarshal(resp, &ans) != nil || ans.Rows != batchRows:
		l.fail("batch %d: unexpected answer %s", l.next-1, bytes.TrimSpace(resp))
	}
	l.events += ans.Events
	if measured {
		l.lat = append(l.lat, ms(done.Sub(due)))
		l.service = append(l.service, ms(done.Sub(sent)))
		l.late = append(l.late, ms(sent.Sub(due)))
		l.at = append(l.at, due.Sub(l.start).Seconds())
	}
}

// warm sends n unmeasured batches back to back.
func (l *ingestLoad) warm(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		l.send(ctx, time.Now(), false)
	}
	l.measuredFrom = l.next
}

// run sends measured batches on the open-loop schedule.
func (l *ingestLoad) run(ctx context.Context, period time.Duration, n int, end time.Time) {
	l.start = time.Now()
	probe := newMemProbe()
	wallClock.openLoop(l.start, period, n, end, func(_ int, due time.Time) {
		if ctx.Err() == nil {
			n := probe.around(func() { l.send(ctx, due, true) })
			l.alloc = append(l.alloc, float64(n)/1024)
		}
	})
}

// fenceEvent is one enter/leave frame read off the SSE stream.
type fenceEvent struct {
	Type    string `json:"type"`
	Oid     int64  `json:"oid"`
	T       int64  `json:"t"`
	Dropped int    `json:"dropped"`
	at      time.Time
}

// fenceStream holds GET /events open on one connection and timestamps
// every frame as it is read.
type fenceStream struct {
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	received atomic.Int64 // enter/leave frames read so far

	// Written by the reader goroutine; read after stop.
	events  []fenceEvent
	dropped int
}

// subscribe opens the stream and returns once the hello frame arrived,
// so no later event can be missed.
func (w *world) subscribe(ctx context.Context) (*fenceStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/events", nil)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("building request: %w", err)
	}
	res, err := w.client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("GET /events: %w", err)
	}
	if res.StatusCode != http.StatusOK {
		res.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /events: status %d", res.StatusCode)
	}
	fs := &fenceStream{cancel: cancel}
	rd := bufio.NewReader(res.Body)
	if ev, err := readFrame(rd); err != nil || ev.Type != "hello" {
		res.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /events: no hello frame (%q): %w", ev.Type, err)
	}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		defer res.Body.Close()
		for ctx.Err() == nil {
			ev, err := readFrame(rd)
			if err != nil {
				return // stop() cancelled the request, or the server closed
			}
			switch ev.Type {
			case "enter", "leave":
				fs.events = append(fs.events, ev)
				fs.received.Add(1)
			case "lagged":
				fs.dropped += ev.Dropped
			}
		}
	}()
	return fs, nil
}

// readFrame reads one SSE frame and decodes its data line.
func readFrame(rd *bufio.Reader) (fenceEvent, error) {
	var ev fenceEvent
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.Type != "" {
				return ev, nil
			}
		case strings.HasPrefix(line, "data: "):
			ev.at = time.Now()
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return ev, fmt.Errorf("decoding event: %w", err)
			}
		}
	}
}

// awaitEvents waits (bounded) until want enter/leave frames arrived.
func (fs *fenceStream) awaitEvents(want int, patience time.Duration) {
	deadline := time.Now().Add(patience)
	for fs.received.Load() < int64(want) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// stop closes the stream and waits for the reader.
func (fs *fenceStream) stop() {
	fs.cancel()
	fs.wg.Wait()
}

// eventLags matches every frame to its batch on (oid, t) and returns
// the lag from the batch's due time to the frame being read, for
// measured batches, plus the number of frames no batch explains.
func eventLags(l *ingestLoad, events []fenceEvent) (lags []float64, unmatched int) {
	type key struct{ oid, t int64 }
	batchOf := make(map[key]int, l.next*batchRows)
	for i, tp := range l.w.stream[:l.next*batchRows] {
		batchOf[key{int64(tp.Oid), int64(tp.T)}] = i / batchRows
	}
	for _, ev := range events {
		b, ok := batchOf[key{ev.Oid, ev.T}]
		switch {
		case !ok:
			unmatched++
		case b >= l.measuredFrom:
			lags = append(lags, ms(ev.at.Sub(l.due[b])))
		}
	}
	return lags, unmatched
}

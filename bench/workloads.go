package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// spec is one workload: its traffic, its warm-up and the fixed op
// counts of its traced run.
type spec struct {
	name string
	why  string
	// gen is the closed-loop client's query stream; nil for none.
	gen func(seed int64, i int) string
	// period is the open-loop ingest schedule (one 100-row batch per
	// period); 0 for no ingest.
	period time.Duration
	// events holds GET /events open for the whole run.
	events bool
	// Warm-up, by op count so that set-up time measures work.
	warmQueries, warmBatches int
	// Traced run: rounds × (batches, then queries), single-threaded,
	// so counts repeat exactly.
	traceRounds, traceBatches, traceQueries int
}

var specs = []spec{
	{
		name: "read_accel",
		why:  "ungrouped counts on a static table reach the engine caches, agg grid and temporal index; pietql's own MO loop does nothing",
		gen:  accelQuery, warmQueries: 1000,
		traceRounds: 1, traceQueries: 2000,
	},
	{
		name: "read_grouped",
		why:  "Remark-1 GROUP BY hour scans rows x polygons inside pietql and bypasses grid, temporal index and interval cache: the inverse of read_accel",
		gen:  groupedQuery, warmQueries: 20,
		traceRounds: 1, traceQueries: 100,
	},
	{
		name:   "ingest_fence",
		why:    "open-loop 800 rows/s ingest with one SSE subscriber: the O(table) copy, invalidation and hub fan-out with no reader to hide behind",
		period: 125 * time.Millisecond, events: true, warmBatches: 8,
		traceRounds: 1, traceBatches: 60,
	},
	{
		name: "mixed_rw",
		why:  "the read_accel mix while a batch every second discards every cache, so reads run the rebuild path; shows a write gain that costs reads or the reverse",
		// The issue's 500 ms leaves the reader on a cliff: rebuilding
		// takes ≈ 390 ms per batch, so a host 15 % slower halves the
		// queries per period and moves every read metric with them.
		gen: accelQuery, period: time.Second, warmQueries: 300, warmBatches: 2,
		traceRounds: 40, traceBatches: 1, traceQueries: 50,
	},
}

func specNamed(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one reported number. N is the sample count behind a
// timing; Note names the percentile a tail metric resolved to.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// runResult is one workload run, as appended to the -json file.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	SubSeed   int64             `json:"sub_seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loads are the clients of one world.
type loads struct {
	q  *queryLoad
	in *ingestLoad
	fs *fenceStream
}

// warmUp connects the workload's clients and runs its warm-up: the
// caches fill and lazy set-up finishes before anything is timed.
// scale divides the op counts (the smoke path).
func warmUp(ctx context.Context, w *world, s spec, seed int64, tr *tracer, scale int) (*loads, error) {
	ld := &loads{}
	if s.events {
		fs, err := w.subscribe(ctx)
		if err != nil {
			return nil, err
		}
		ld.fs = fs
	}
	if s.gen != nil {
		// The warm-up stream is the same for every seed, so that setup_s
		// does not move with the queries a seed happens to start with.
		ld.q = newQueryLoad(w, tr, warmSeed, s.gen)
		ld.q.warm(ctx, s.warmQueries/scale)
	}
	if s.period > 0 {
		ld.in = newIngestLoad(w, tr)
		ld.in.warm(ctx, max(s.warmBatches/scale, 1))
		if ld.q != nil {
			// Refill what the warm-up batches invalidated.
			ld.q.warm(ctx, s.warmQueries/scale/3)
		}
	}
	if ld.q != nil {
		ld.q.seed, ld.q.next = seed, 0
	}
	return ld, nil
}

const (
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 3
	// warmSeed seeds every warm-up stream.
	warmSeed = 0
)

// measure is the untraced end-to-end run of one workload.
func measure(ctx context.Context, s spec, seed, sub int64, size sizing, window time.Duration, scale int) (res *runResult, err error) {
	var w *world
	var ld *loads
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			ld.stop()
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		begin := time.Now()
		if w, err = setup(ctx, sub, seed, size, nil); err != nil {
			return nil, err
		}
		if ld, err = warmUp(ctx, w, s, seed, nil, scale); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer func() {
		ld.stop()
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	if ld.q != nil {
		wg.Add(1)
		go func() { defer wg.Done(); ld.q.runUntil(ctx, end) }()
	}
	if ld.in != nil {
		wg.Add(1)
		go func() { defer wg.Done(); ld.in.run(ctx, s.period, 0, end) }()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	res = &runResult{Workload: s.name, Seed: seed, SubSeed: sub, Seconds: elapsed.Seconds(), Metrics: map[string]metric{}}
	m := res.Metrics
	m["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}
	secs := window.Seconds()
	requests := 0
	var all tally

	if q := ld.q; q != nil {
		n := len(q.lat)
		requests += n
		t := timings{at: q.at, v: q.lat, window: secs}
		tailM := t.tail()
		m["query_p50_ms"] = metric{Value: t.p50(), Unit: "ms", N: n}
		m["query_"+tailM.Note+"_ms"] = tailM
		m["query_qps"] = metric{Value: t.rate(), Unit: "1/s", N: n}
		m["latency_p50_ms"], m["latency_tail_ms"], m["throughput_per_s"] = m["query_p50_ms"], tailM, m["query_qps"]
		m["alloc_kb_per_op"] = metric{Value: median(q.alloc), Unit: "KB", N: n}
		// Oracle time is outside both the window and setup_s.
		checked, err := oracle(ctx, w, seed, q)
		if err != nil {
			return nil, err
		}
		all.attempted += q.attempted + checked
		all.failed += q.failed
	}

	if in := ld.in; in != nil {
		n := len(in.lat)
		requests += n
		t := timings{at: in.at, v: in.lat, window: secs}
		tailM := t.tail()
		m["ingest_p50_ms"] = metric{Value: t.p50(), Unit: "ms", N: n}
		m["ingest_"+tailM.Note+"_ms"] = tailM
		// Rows per second of service time at the median batch: what one
		// connection could sustain if it never idled.
		m["ingest_capacity_rows_per_s"] = metric{Value: batchRows / (median(in.service) / 1000), Unit: "rows/s", N: n}
		m["ingest_late_p50_ms"] = metric{Value: median(in.late), Unit: "ms", N: n}
		if ld.q == nil {
			m["latency_p50_ms"], m["latency_tail_ms"] = m["ingest_p50_ms"], tailM
			m["alloc_kb_per_op"] = metric{Value: median(in.alloc), Unit: "KB", N: n}
		} else {
			// Beside an ingest stream a reader's tail is the rebuild stall.
			// A percentile would sit on the edge between two kinds of stall
			// (each batch causes one of each kind, so every kind is the same
			// share of the requests) and jump with the request count.
			m["query_stall_ms"] = stall(ld.q, s.period.Seconds())
			m["latency_tail_ms"] = m["query_stall_ms"]
		}
		// With an ingest stream the throughput is the write side's. Beside
		// a reader the read side's is no gate: each batch costs the reader
		// most of a period in rebuilds, so queries/s is a small difference
		// of two large times and moves several times as far as either.
		m["throughput_per_s"] = metric{Value: m["ingest_capacity_rows_per_s"].Value, Unit: "1/s", N: n}
		all.attempted += in.attempted
		all.failed += in.failed
	}

	if ld.fs != nil {
		ev := finishEvents(ld, &all)
		m["event_lag_p50_ms"] = metric{Value: ev.p50, Unit: "ms", N: ev.n}
		if ev.hasP95 {
			m["event_lag_p95_ms"] = metric{Value: ev.p95, Unit: "ms", N: ev.n}
		}
	}

	if requests == 0 {
		return nil, fmt.Errorf("%s: no request completed in %v", s.name, window)
	}
	// The window's mean over all requests; alloc_kb_per_op is the median
	// request of the primary kind, which does not move with the mix of
	// cheap and dear requests a time-boxed window happens to complete.
	m["alloc_mean_kb_per_op"] = metric{
		Value: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(requests), Unit: "KB", N: requests,
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	m["fail_ratio"] = metric{Value: float64(all.failed) / float64(all.attempted), Unit: "ratio", N: all.attempted}
	return res, nil
}

// stall is the median over ingest periods of the slowest query that
// completed in the period: what one invalidation costs the reader who
// pays for the rebuild.
func stall(q *queryLoad, period float64) metric {
	worst := map[int]float64{}
	for i, at := range q.at {
		k := int(at / period)
		worst[k] = max(worst[k], q.lat[i])
	}
	per := make([]float64, 0, len(worst))
	for _, v := range worst {
		per = append(per, v)
	}
	return metric{Value: median(per), Unit: "ms", N: len(per), Note: "slowest per ingest period, median"}
}

// highestTail is the highest of p99, p95, p90 and p75 with at least
// minBeyond samples beyond it; with fewer than 40 samples, the maximum.
func highestTail(asc []float64) metric {
	for _, t := range []struct {
		note string
		p    float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}} {
		if v, ok := tail(asc, t.p); ok {
			return metric{Value: v, Unit: "ms", N: len(asc), Note: t.note}
		}
	}
	return metric{Value: percentile(asc, 1), Unit: "ms", N: len(asc), Note: "max"}
}

// stop ends the SSE reader; safe on a nil or already stopped stream.
func (ld *loads) stop() {
	if ld != nil && ld.fs != nil {
		ld.fs.stop()
	}
}

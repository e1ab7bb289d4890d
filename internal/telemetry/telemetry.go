// Package telemetry is the engine's always-on observability service,
// built on top of internal/obs. Where obs provides the raw
// instruments — atomic counters, histograms, the per-query span
// tracer — telemetry turns them into an operable surface:
//
//   - a per-query-type QueryStats table fed by one record per
//     completed core.Engine / pietql.System query, with
//     sliding-window latency histograms (p50/p90/p99/max) and
//     cumulative counts of errors, cancellations, budget
//     exhaustions, rows scanned and cache hits;
//   - sampled trace retention: a fixed-size ring of recent span
//     trees plus an always-kept slow-query set, so EXPLAIN
//     ANALYZE-quality traces survive after the fact without tracing
//     every query;
//   - a structured JSONL query log (log/slog), one record per query;
//   - the data behind the HTTP exposition handlers in
//     internal/telemetry/telhttp (/metrics, /debug/stats,
//     /debug/queries, /debug/traces/{id}).
//
// The recording contract matches the obs tracer: a nil *Collector is
// the disabled state, and every method on it is a cheap no-op — no
// allocations, no locking, no clock reads — so instrumented code pays
// nothing when telemetry is off. When enabled, the hot-path cost of
// Record is bounded: one windowed-histogram insert and a handful of
// atomic adds, one ring append behind an uncontended mutex, and an
// optional slog line when the query log is configured.
package telemetry

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mogis/internal/obs"
	"mogis/internal/qerr"
)

// Outcome classifies how a query ended. The values are the
// snake_case strings the query log and /debug/stats expose.
type Outcome string

const (
	OutcomeOK            Outcome = "ok"
	OutcomeError         Outcome = "error"
	OutcomeCancelled     Outcome = "cancelled"
	OutcomeBudgetRows    Outcome = "budget_rows"
	OutcomeBudgetResults Outcome = "budget_results"
	OutcomePanic         Outcome = "panic"
	OutcomeParseError    Outcome = "parse_error"
)

// OutcomeOf classifies a query's final error: the one mapping the
// engine, the Piet-QL pipeline and the HTTP layer all record.
func OutcomeOf(err error) Outcome {
	var be *qerr.BudgetError
	switch {
	case err == nil:
		return OutcomeOK
	case qerr.IsParseError(err):
		return OutcomeParseError
	case qerr.IsCancel(err):
		return OutcomeCancelled
	case errors.As(err, &be):
		if be.Resource == "rows" {
			return OutcomeBudgetRows
		}
		return OutcomeBudgetResults
	case qerr.IsPanic(err):
		return OutcomePanic
	}
	return OutcomeError
}

// QueryRecord is one completed query, as handed to Collector.Record
// by the core engine's query bracket and by pietql.System.Run.
type QueryRecord struct {
	// Op is the query type: the engine entry point
	// ("objects_passing_through", "count_samples_inside", ...) or the
	// Piet-QL pipeline ("pietql_query").
	Op string `json:"op"`
	// Table is the fact table queried ("" when the op has none).
	Table string `json:"table,omitempty"`
	// Start is when the query began; Duration its wall time.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Outcome  Outcome       `json:"outcome"`
	// Err is the error text for non-ok outcomes ("" otherwise).
	Err string `json:"error,omitempty"`
	// RowsScanned / Results are the resource-budget counters the
	// query consumed (MOFT rows examined, result items produced).
	RowsScanned int64 `json:"rows_scanned"`
	Results     int64 `json:"results"`
	// CacheHits / CacheMisses count the engine cache lookups (LIT
	// cache, interval cache) the query performed.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Window is the width of the query's time interval in model time
	// (Hi-Lo+1 of the closed interval), 0 for untimed queries. The
	// per-op mean feeds the agg grid's adaptive time-bucket sizing.
	Window int64 `json:"window,omitempty"`
}

// Config parameterizes a Collector. The zero value gets sensible
// defaults from New.
type Config struct {
	// Window is the sliding latency-statistics window (default 60s).
	Window time.Duration
	// SlowThreshold marks a query slow: slow records and slow sampled
	// traces are retained in their own always-kept sets (default
	// 100ms).
	SlowThreshold time.Duration
	// SampleEvery traces every Nth eligible query (default 16;
	// negative disables trace sampling, 1 traces everything).
	SampleEvery int
	// RecentQueries / SlowQueries size the in-memory query-log rings
	// behind /debug/queries (defaults 256 and 64).
	RecentQueries int
	SlowQueries   int
	// RecentTraces / SlowTraces size the retained-trace rings behind
	// /debug/traces (defaults 32 each).
	RecentTraces int
	SlowTraces   int
	// LogWriter, when non-nil, receives the structured JSONL query
	// log (one log/slog record per query).
	LogWriter io.Writer
	// Registry receives telemetry's own obs counters (nil uses
	// obs.Default).
	Registry *obs.Registry
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 60 * time.Second
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 100 * time.Millisecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	if c.RecentQueries <= 0 {
		c.RecentQueries = 256
	}
	if c.SlowQueries <= 0 {
		c.SlowQueries = 64
	}
	if c.RecentTraces <= 0 {
		c.RecentTraces = 32
	}
	if c.SlowTraces <= 0 {
		c.SlowTraces = 32
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	return c
}

// Collector is the always-on telemetry service: it aggregates query
// records into the per-op stats table, retains sampled traces and
// recent/slow query records, and emits the structured query log. All
// methods are safe for concurrent use and nil-safe (a nil collector
// is disabled).
type Collector struct {
	cfg   Config
	log   *queryLog
	start time.Time

	// ops maps op name → *opStats (created on first record).
	ops sync.Map

	recent ring[QueryRecord] // recent completed queries
	slow   ring[QueryRecord] // always-kept slow/failed queries

	traces traceStore

	// sampleSeq drives the every-Nth trace-sampling decision.
	sampleSeq atomic.Uint64

	// Telemetry's own accounting, registered in cfg.Registry.
	recTotal     *obs.Counter
	logTotal     *obs.Counter
	traceTotal   *obs.Counter
	slowTotal    *obs.Counter
	traceDropped *obs.Counter
}

// New creates a collector with cfg (zero fields take defaults).
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{cfg: cfg, start: time.Now()}
	c.recent.init(cfg.RecentQueries)
	c.slow.init(cfg.SlowQueries)
	c.traces.init(cfg.RecentTraces, cfg.SlowTraces)
	if cfg.LogWriter != nil {
		c.log = newQueryLog(cfg.LogWriter)
	}
	r := cfg.Registry
	c.recTotal = r.Counter("mogis_telemetry_records_total", "query records accepted by the telemetry collector")
	c.logTotal = r.Counter("mogis_telemetry_log_records_total", "structured query-log records emitted")
	c.traceTotal = r.Counter("mogis_telemetry_traces_sampled_total", "query traces retained by sampling")
	c.slowTotal = r.Counter("mogis_telemetry_slow_queries_total", "queries at or over the slow threshold")
	c.traceDropped = r.Counter("mogis_telemetry_traces_evicted_total", "retained traces evicted by ring capacity")
	return c
}

// Enabled reports whether the collector records anything; guard
// expensive record preparation (clock reads) behind it.
func (c *Collector) Enabled() bool { return c != nil }

// Config returns the resolved configuration (zero value when
// disabled).
func (c *Collector) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Record ingests one completed query: the per-op stats table, the
// recent/slow query rings, and the structured query log. Nil-safe;
// the disabled state does no work.
func (c *Collector) Record(rec QueryRecord) {
	if c == nil {
		return
	}
	c.recTotal.Inc()
	st := c.opStats(rec.Op)
	st.add(&rec)
	c.recent.push(rec)
	slow := rec.Duration >= c.cfg.SlowThreshold
	if slow {
		c.slowTotal.Inc()
	}
	if slow || rec.Outcome != OutcomeOK {
		c.slow.push(rec)
	}
	if c.log != nil {
		c.log.emit(&rec)
		c.logTotal.Inc()
	}
}

// opStats resolves (creating on first use) the stats row for op.
func (c *Collector) opStats(op string) *opStats {
	if v, ok := c.ops.Load(op); ok {
		return v.(*opStats)
	}
	st := newOpStats(op, c.cfg.Window)
	if v, raced := c.ops.LoadOrStore(op, st); raced {
		return v.(*opStats)
	}
	return st
}

// MeanWindow returns the mean time-interval width (model time) of the
// windowed queries recorded for the named ops, 0 when none have been
// observed. The agg grid's adaptive bucket sizing uses it as the
// query-window hint. Nil-safe.
func (c *Collector) MeanWindow(ops ...string) int64 {
	if c == nil {
		return 0
	}
	var sum, n int64
	for _, op := range ops {
		if v, ok := c.ops.Load(op); ok {
			st := v.(*opStats)
			sum += st.windowSum.Load()
			n += st.windowed.Load()
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// Recent returns the most recent query records, newest first, up to
// max (<= 0 means all retained).
func (c *Collector) Recent(max int) []QueryRecord {
	if c == nil {
		return nil
	}
	return c.recent.newestFirst(max)
}

// Slow returns the retained slow/failed query records, newest first,
// up to max (<= 0 means all retained).
func (c *Collector) Slow(max int) []QueryRecord {
	if c == nil {
		return nil
	}
	return c.slow.newestFirst(max)
}

// ring is a fixed-capacity overwrite-oldest buffer of query records.
// Pushes are mutexed (one short critical section per completed
// query); reads copy.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	full bool
}

func (r *ring[T]) init(capacity int) {
	r.buf = make([]T, capacity)
}

func (r *ring[T]) push(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// newestFirst copies out up to max entries, most recent first.
func (r *ring[T]) newestFirst(max int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	if max > 0 && max < n {
		n = max
	}
	out := make([]T, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// --- process-wide default ---------------------------------------------

// defaultCollector is the process-wide collector engines fall back to
// when none was injected, mirroring obs.Std: CLIs enable telemetry
// once (SetDefault) and every engine and Piet-QL system constructed
// anywhere in the process reports to it.
var defaultCollector atomic.Pointer[Collector]

// SetDefault installs the process-wide collector (nil disables) and
// returns the previous one.
func SetDefault(c *Collector) *Collector {
	return defaultCollector.Swap(c)
}

// Default returns the process-wide collector (nil when telemetry is
// disabled).
func Default() *Collector {
	return defaultCollector.Load()
}

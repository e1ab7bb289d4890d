package telemetry

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"
)

// OpStats is one row of the /debug/stats QueryStats table: cumulative
// outcome/resource counters since process start plus the sliding-
// window latency view for one query type.
type OpStats struct {
	Op            string  `json:"op"`
	Queries       int64   `json:"queries"`
	Errors        int64   `json:"errors"`
	Cancelled     int64   `json:"cancelled"`
	BudgetRows    int64   `json:"budget_rows"`
	BudgetResults int64   `json:"budget_results"`
	Panics        int64   `json:"panics"`
	RowsScanned   int64   `json:"rows_scanned"`
	Results       int64   `json:"results"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// MeanWindow is the mean time-interval width of this op's
	// windowed queries in model time (0 when none were windowed).
	MeanWindow int64 `json:"mean_window,omitempty"`

	Window WindowStats `json:"window"`
}

// RuntimeStats is the expvar-style process view /debug/stats embeds.
type RuntimeStats struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	NumGC          uint32  `json:"num_gc"`
	GCPauseSeconds float64 `json:"gc_pause_total_seconds"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// Stats is the full /debug/stats document.
type Stats struct {
	WindowSeconds        float64      `json:"window_seconds"`
	SlowThresholdSeconds float64      `json:"slow_threshold_seconds"`
	Ops                  []OpStats    `json:"ops"`
	Runtime              RuntimeStats `json:"runtime"`
}

// Stats snapshots the QueryStats table and the runtime view. Rows are
// sorted by op name for deterministic output. Nil-safe (a disabled
// collector reports an empty table).
func (c *Collector) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	nowNS := time.Now().UnixNano()
	s := Stats{
		WindowSeconds:        c.cfg.Window.Seconds(),
		SlowThresholdSeconds: c.cfg.SlowThreshold.Seconds(),
		Runtime:              runtimeStats(c.start),
	}
	c.ops.Range(func(_, v any) bool {
		st := v.(*opStats)
		row := OpStats{
			Op:            st.op,
			Queries:       st.queries.Load(),
			Errors:        st.errors.Load(),
			Cancelled:     st.cancelled.Load(),
			BudgetRows:    st.budgetRows.Load(),
			BudgetResults: st.budgetResults.Load(),
			Panics:        st.panics.Load(),
			RowsScanned:   st.rowsScanned.Load(),
			Results:       st.results.Load(),
			CacheHits:     st.cacheHits.Load(),
			CacheMisses:   st.cacheMisses.Load(),
			Window:        st.lat.snapshot(nowNS),
		}
		if total := row.CacheHits + row.CacheMisses; total > 0 {
			row.CacheHitRatio = float64(row.CacheHits) / float64(total)
		}
		if n := st.windowed.Load(); n > 0 {
			row.MeanWindow = st.windowSum.Load() / n
		}
		s.Ops = append(s.Ops, row)
		return true
	})
	sort.Slice(s.Ops, func(i, j int) bool { return s.Ops[i].Op < s.Ops[j].Op })
	return s
}

// runtimeStats reads the process gauges expvar users expect.
func runtimeStats(start time.Time) RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
		GCPauseSeconds: float64(ms.PauseTotalNs) / 1e9,
		UptimeSeconds:  time.Since(start).Seconds(),
	}
}

// WriteStatsJSON renders the stats document as indented JSON: the
// /debug/stats response body. Nil-safe.
func (c *Collector) WriteStatsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Stats())
}

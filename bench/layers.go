package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/overlay"
	"mogis/internal/pietql"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
)

// layerMetricNames is BENCHMARK.json's per_layer list: what a traced
// run reports, on every workload (0 where a layer does no work).
// "per_query" means per traced request, query or batch.
var layerMetricNames = []string{
	"http.query_overhead_ms", "http.trace_overhead_pct", "http.ingest_late_ms",
	"server.query_self_ms", "server.admission_queued", "server.admission_shed",
	"server.ingest_handler_ms", "server.ingest_self_ms", "server.events_per_row", "server.events_dropped",
	"pietql.parse_us", "pietql.geo_ms", "pietql.render_us", "pietql.engine_calls_per_query",
	"pietql.mo_self_ms", "pietql.mo_self_share_pct",
	"overlay.precompute_ms", "overlay.lookups_per_query", "overlay.misses",
	"core.count_passing_through_ms", "core.objects_sampled_inside_ms", "core.trajectories_ms",
	"core.engine_share_pct", "core.litcache_hit_ratio", "core.intervalcache_hit_ratio",
	"core.prefilter_skip_ratio", "core.invalidate_us", "core.rebuild_lit_ms", "core.rebuild_grid_ms",
	"core.rebuild_intervals_ms", "core.intervalcache_thrash_ms",
	"agggrid.builds", "agggrid.temporal_share", "agggrid.interior_samples_per_query",
	"agggrid.refined_samples_per_query", "agggrid.fringe_samples_per_query", "agggrid.mismatches",
	"sindex.node_visits_per_query", "geom.point_in_polygon_per_query",
	"moft.tuples_scanned_per_query", "moft.scan_ms_per_100k", "moft.copy_ms_per_100k",
	"traj.inside_intervals_us", "telemetry.record_us",
	"runtime.heap_inuse_peak_mb", "runtime.gc_count", "runtime.gc_pause_total_ms",
	"runtime.alloc_kb_per_query", "runtime.alloc_mb_per_batch",
	"load.ingest_p50_ms", "load.event_lag_p50_ms", "load.event_lag_p95_ms",
	"trace.spans", "trace.outliving_spans",
}

// layerHigherIsBetter names the per-layer metrics where more is
// better; every other one counts work or time.
var layerHigherIsBetter = map[string]bool{
	"core.litcache_hit_ratio":      true,
	"core.intervalcache_hit_ratio": true,
	"core.prefilter_skip_ratio":    true,
	"agggrid.temporal_share":       true,
}

// memProbe reads allocation and heap-in-use counters without stopping
// the world, so it can run around every traced request.
type memProbe struct {
	s    [3]metrics.Sample
	peak uint64
}

func newMemProbe() *memProbe {
	p := &memProbe{}
	p.s[0].Name = "/gc/heap/allocs:bytes"
	p.s[1].Name = "/memory/classes/heap/objects:bytes"
	p.s[2].Name = "/memory/classes/heap/unused:bytes"
	return p
}

// allocated returns the cumulative bytes allocated and tracks the
// heap-in-use peak.
func (p *memProbe) allocated() uint64 {
	metrics.Read(p.s[:])
	p.peak = max(p.peak, p.s[1].Value.Uint64()+p.s[2].Value.Uint64())
	return p.s[0].Value.Uint64()
}

// around returns the bytes allocated while fn ran.
func (p *memProbe) around(fn func()) uint64 {
	before := p.allocated()
	fn()
	return p.allocated() - before
}

// tracedQuery is one query of a pass: what was asked and answered.
type tracedQuery struct {
	text string
	ans  queryAnswer
	lat  float64 // ms
}

// passResult is one pass over the workload's fixed op list.
type passResult struct {
	queries    []tracedQuery
	batchFrom  int // ingestLoad sample range of this pass
	batchTo    int
	queryAlloc uint64
	batchAlloc uint64
}

// runPass runs the traced run's fixed op list once: rounds × (batches,
// then queries), single-threaded so counts repeat exactly. On the
// workload that holds /events open the batches keep their open-loop
// schedule, so generator lateness and event lag stay meaningful.
func runPass(ctx context.Context, s spec, ld *loads, scale int, probe *memProbe) passResult {
	var res passResult
	count := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/scale, 1)
	}
	if ld.in != nil {
		res.batchFrom = len(ld.in.lat)
	}
	for r := 0; r < count(s.traceRounds); r++ {
		if n := count(s.traceBatches); n > 0 && s.events {
			res.batchAlloc += probe.around(func() { ld.in.run(ctx, s.period, n, time.Time{}) })
		} else {
			for b := 0; b < n; b++ {
				res.batchAlloc += probe.around(func() { ld.in.send(ctx, time.Now(), true) })
			}
		}
		for k := 0; k < count(s.traceQueries); k++ {
			var tq tracedQuery
			res.queryAlloc += probe.around(func() {
				text, d := ld.q.one(ctx)
				tq = tracedQuery{text: text, ans: ld.q.last, lat: ms(d)}
			})
			res.queries = append(res.queries, tq)
		}
	}
	if ld.in != nil {
		res.batchTo = len(ld.in.lat)
	}
	return res
}

// primaryLatency is the median roundtrip of the pass's primary request
// kind: queries, or batch service time without them.
func (r passResult) primaryLatency(ld *loads) float64 {
	if len(r.queries) > 0 {
		lat := make([]float64, len(r.queries))
		for i, q := range r.queries {
			lat[i] = q.lat
		}
		return median(lat)
	}
	return median(ld.in.service[r.batchFrom:r.batchTo])
}

// traceRun is the traced run of one workload: the same streams as the
// end-to-end run at fixed op counts, once with the tracer off (the
// reference the tracing overhead is measured against) and once with it
// on, then the side spans that time single layers directly.
func traceRun(ctx context.Context, s spec, seed, sub int64, size sizing, scale int, outDir string) (res *runResult, err error) {
	tr := newTracer()
	w, err := setup(ctx, sub, seed, size, tr)
	if err != nil {
		return nil, err
	}
	var ld *loads
	defer func() {
		ld.stop()
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	const gridBuilds = "mogis_agggrid_builds_total"
	warmBuilds := obs.Default.Snapshot().Value(gridBuilds)
	if ld, err = warmUp(ctx, w, s, seed, tr, scale); err != nil {
		return nil, err
	}
	warmBuilds = obs.Default.Snapshot().Value(gridBuilds) - warmBuilds
	probe := newMemProbe()
	ref := runPass(ctx, s, ld, scale, probe)

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	probe.peak = 0
	before := obs.Default.Snapshot()
	begin := time.Now()
	tr.on.Store(true)
	pass := runPass(ctx, s, ld, scale, probe)
	elapsed := time.Since(begin)
	after := obs.Default.Snapshot()
	runtime.ReadMemStats(&memAfter)
	delta := func(name string) float64 { return after.Value(name) - before.Value(name) }

	res = &runResult{Workload: s.name, Seed: seed, SubSeed: sub, Seconds: elapsed.Seconds(), Traced: true, Metrics: map[string]metric{}}
	m := res.Metrics
	for _, name := range layerMetricNames {
		m[name] = metric{Unit: layerUnit(name)}
	}
	set := func(name string, v float64, n int) { m[name] = metric{Value: v, Unit: layerUnit(name), N: n} }

	var all tally
	if ld.q != nil {
		all.attempted, all.failed = ld.q.attempted, ld.q.failed
	}
	if ld.in != nil {
		all.attempted += ld.in.attempted
		all.failed += ld.in.failed
		lat := ld.in.lat[pass.batchFrom:pass.batchTo]
		set("load.ingest_p50_ms", median(lat), len(lat))
		set("http.ingest_late_ms", median(ld.in.late[pass.batchFrom:pass.batchTo]), len(lat))
	}
	if ld.fs != nil {
		ev := finishEvents(ld, &all)
		set("load.event_lag_p50_ms", ev.p50, ev.n)
		set("load.event_lag_p95_ms", ev.p95, ev.n)
	}

	// Side spans run after the counters were read: they would move them.
	side, err := sideSpans(ctx, w, tr, pass.queries)
	if err != nil {
		return nil, err
	}
	spans := tr.since(0)
	tree := buildTree(spans)

	nq, nb := len(pass.queries), pass.batchTo-pass.batchFrom
	ops := float64(max(nq+nb, 1))
	if base := ref.primaryLatency(ld); base > 0 {
		set("http.trace_overhead_pct", (pass.primaryLatency(ld)-base)/base*100, nq+nb)
	}

	// Walk the request trees: roundtrip ⊃ handler ⊃ core.*.
	var overhead, moSelf, invalidate, ingestHandler, ingestSelf []float64
	var handlerSum, coreSum, moSelfSum float64
	coreCalls := 0
	coreDur := map[string][]float64{}
	qi := 0
	for _, rt := range spans {
		if rt.Name != spanRoundtrip {
			continue
		}
		var h span
		for _, k := range tree.children[rt.ID] {
			if k.Name == spanHandler {
				h = k
			}
		}
		if h.ID == 0 {
			continue
		}
		for _, k := range tree.children[h.ID] {
			coreDur[k.Name] = append(coreDur[k.Name], ms(k.dur()))
		}
		// A handler's children are all core.* spans.
		self := tree.selfTime(h)
		inCore := h.dur() - self
		switch {
		case rt.Note == "/query" && qi < nq:
			overhead = append(overhead, ms(rt.dur()-h.dur()))
			handlerSum += ms(h.dur())
			coreSum += ms(inCore)
			coreCalls += len(tree.children[h.ID])
			residual := ms(self) - side.parse[qi] - side.geo[qi] - side.render[qi] - side.serverSelf[qi]
			moSelf = append(moSelf, residual)
			moSelfSum += residual
			qi++
		case strings.HasPrefix(rt.Note, "/ingest"):
			ingestHandler = append(ingestHandler, ms(h.dur()))
			invalidate = append(invalidate, us(inCore))
			ingestSelf = append(ingestSelf, ms(self)-side.copyMS)
		}
	}

	set("http.query_overhead_ms", median(overhead), len(overhead))
	set("server.query_self_ms", median(side.serverSelf), len(side.serverSelf))
	set("server.admission_queued", delta("mogis_server_admission_queued_total"), 0)
	set("server.admission_shed", delta("mogis_server_admission_shed_total"), 0)
	set("server.ingest_handler_ms", median(ingestHandler), len(ingestHandler))
	set("server.ingest_self_ms", median(ingestSelf), len(ingestSelf))
	if rows := delta("mogis_server_ingest_rows_total"); rows > 0 {
		set("server.events_per_row", delta("mogis_server_events_published_total")/rows, int(rows))
	}
	set("server.events_dropped", delta("mogis_server_events_dropped_total"), 0)

	set("pietql.parse_us", median(side.parse)*1000, len(side.parse))
	set("pietql.geo_ms", median(side.geo), len(side.geo))
	set("pietql.render_us", median(side.render)*1000, len(side.render))
	set("pietql.mo_self_ms", median(moSelf), len(moSelf))
	if nq > 0 {
		set("pietql.engine_calls_per_query", float64(coreCalls)/float64(nq), nq)
		set("pietql.mo_self_share_pct", moSelfSum/handlerSum*100, nq)
		set("core.engine_share_pct", coreSum/handlerSum*100, nq)
	}

	set("overlay.precompute_ms", side.overlayMS, 3)
	set("overlay.lookups_per_query", delta("mogis_overlay_hits_total")/ops, 0)
	set("overlay.misses", delta("mogis_overlay_misses_total"), 0)

	for name, key := range map[string]string{
		"core.count_passing_through_ms":  "core.CountPassingThroughGeometries",
		"core.objects_sampled_inside_ms": "core.ObjectsSampledInside",
		"core.trajectories_ms":           "core.Trajectories",
	} {
		set(name, median(coreDur[key]), len(coreDur[key]))
	}
	set("core.litcache_hit_ratio", ratio(delta("mogis_litcache_hits_total"), delta("mogis_litcache_misses_total")), 0)
	set("core.intervalcache_hit_ratio", ratio(delta("mogis_intervalcache_hits_total"), delta("mogis_intervalcache_misses_total")), 0)
	set("core.prefilter_skip_ratio", ratio(delta("mogis_prefilter_skipped_total"), delta("mogis_prefilter_candidates_total")), 0)
	set("core.invalidate_us", median(invalidate), len(invalidate))
	set("core.rebuild_lit_ms", side.rebuildLIT, 3)
	set("core.rebuild_grid_ms", side.rebuildGrid, 3)
	set("core.rebuild_intervals_ms", side.rebuildIntervals, 3)
	set("core.intervalcache_thrash_ms", side.thrashMS, 3)

	// Builds since set-up, the untraced reference pass left out: 1 when
	// the grid is built once in warm-up and never again.
	set("agggrid.builds", warmBuilds+delta(gridBuilds), 0)
	if gq := delta("mogis_agggrid_queries_total"); gq > 0 {
		set("agggrid.temporal_share", delta("mogis_agggrid_temporal_queries_total")/gq, int(gq))
	}
	set("agggrid.interior_samples_per_query", delta("mogis_agggrid_interior_samples_total")/ops, 0)
	set("agggrid.refined_samples_per_query", delta("mogis_agggrid_refined_samples_total")/ops, 0)
	set("agggrid.fringe_samples_per_query", delta("mogis_agggrid_fringe_samples_total")/ops, 0)
	set("agggrid.mismatches", delta("mogis_agggrid_mismatches_total"), 0)
	set("sindex.node_visits_per_query", delta("mogis_sindex_node_visits_total")/ops, 0)
	set("geom.point_in_polygon_per_query", delta("mogis_geom_point_in_polygon_total")/ops, 0)
	set("moft.tuples_scanned_per_query", delta("mogis_moft_tuples_scanned_total")/ops, 0)
	set("moft.scan_ms_per_100k", side.scanPer100k, 3)
	set("moft.copy_ms_per_100k", side.copyPer100k, 5)
	set("traj.inside_intervals_us", side.insideUS, side.insideN)
	set("telemetry.record_us", side.recordUS, 0)

	set("runtime.heap_inuse_peak_mb", float64(probe.peak)/(1<<20), 0)
	set("runtime.gc_count", float64(memAfter.NumGC-memBefore.NumGC), 0)
	set("runtime.gc_pause_total_ms", float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs)/1e6, 0)
	if nq > 0 {
		set("runtime.alloc_kb_per_query", float64(pass.queryAlloc)/1024/float64(nq), nq)
	}
	if nb > 0 {
		set("runtime.alloc_mb_per_batch", float64(pass.batchAlloc)/(1<<20)/float64(nb), nb)
	}
	set("trace.spans", float64(len(spans)), 0)
	set("trace.outliving_spans", float64(tree.outliving()), 0)

	res.Attempted, res.Failed = all.attempted, all.failed
	if err := writeSpans(outDir, s.name, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// ratio is a/(a+b), 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_pct", "%"}, {"_mb", "MB"}, {"_ratio", "ratio"}, {"_share", "ratio"},
		{"_ms_per_100k", "ms"}, {"alloc_kb_per_query", "KB"}, {"alloc_mb_per_batch", "MB"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// eventStats summarises the SSE stream of a run.
type eventStats struct {
	p50, p95 float64
	hasP95   bool
	n        int
}

// finishEvents waits for the last frames, stops the stream, matches
// frames to batches and counts lost events as failures: published but
// never read, read but explained by no batch, or dropped by the
// slow-consumer policy.
func finishEvents(ld *loads, all *tally) eventStats {
	fs := ld.fs
	fs.awaitEvents(ld.in.events, 2*time.Second)
	fs.stop()
	lags, unmatched := eventLags(ld.in, fs.events)
	asc := sorted(lags)
	st := eventStats{p50: percentile(asc, 0.5), n: len(asc)}
	st.p95, st.hasP95 = tail(asc, 0.95)
	missing := max(ld.in.events-len(fs.events), 0)
	if lost := missing + unmatched + fs.dropped; lost > 0 {
		all.fail("%d events published, %d read, %d unmatched, %d dropped", ld.in.events, len(fs.events), unmatched, fs.dropped)
		all.failed += lost - 1
	}
	all.attempted += ld.in.events
	return st
}

// sideResult holds the side spans: public functions timed directly on
// the run's own inputs. Per-query slices are index-aligned with the
// traced queries; all times are ms unless named otherwise.
type sideResult struct {
	parse, geo, render, serverSelf []float64

	copyMS, copyPer100k, scanPer100k float64
	insideUS                         float64
	insideN                          int
	recordUS                         float64
	rebuildLIT, rebuildGrid          float64
	rebuildIntervals, thrashMS       float64
	overlayMS                        float64
}

// medianOf times fn n times and returns the median in ms.
func medianOf(tr *tracer, name string, n int, fn func()) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = ms(tr.time(name, "", fn))
	}
	return median(v)
}

func sideSpans(ctx context.Context, w *world, tr *tracer, queries []tracedQuery) (*sideResult, error) {
	side := &sideResult{}
	sys := w.sys
	eng := sys.Engine
	if te, ok := eng.(*tracedEngine); ok {
		eng = te.Querier // direct calls are side spans, not core.* children
	}

	// Per query: parse, the geometric part alone, render, and the
	// server's own share — the handler of EXPLAIN <q>, which parses and
	// renders a plan but evaluates nothing, minus the parse.
	for _, tq := range queries {
		var q *pietql.Query
		var perr error
		parse := tr.time("pietql.Parse", "", func() { q, perr = pietql.Parse(tq.text) })
		if perr != nil {
			return nil, fmt.Errorf("side span: %w", perr)
		}
		geoOnly := &pietql.Query{Geo: q.Geo}
		var gerr error
		geo := tr.time("pietql.System.Eval", "geo", func() { _, gerr = sys.Eval(ctx, geoOnly) })
		if gerr != nil {
			return nil, fmt.Errorf("side span: %w", gerr)
		}
		out := outcomeOf(tq.ans)
		render := tr.time("pietql.FormatOutcome", "", func() { _ = pietql.FormatOutcome(out) })

		before := tr.count()
		if status, body, err := w.post(ctx, tr, "/query?explain=1", "EXPLAIN "+tq.text); err != nil || status != 200 {
			return nil, fmt.Errorf("side span: EXPLAIN: status %d: %s: %w", status, body, err)
		}
		handler := time.Duration(0)
		for _, s := range tr.since(before) {
			if s.Name == spanHandler {
				handler = s.dur()
			}
		}
		side.parse = append(side.parse, ms(parse))
		side.geo = append(side.geo, ms(geo))
		side.render = append(side.render, ms(render))
		side.serverSelf = append(side.serverSelf, ms(handler-parse))
	}

	tbl, err := sys.Ctx.Table(table)
	if err != nil {
		return nil, fmt.Errorf("side span: %w", err)
	}
	rows := float64(tbl.Len())
	// The copy is timed on a quiet heap, so collector work that the
	// handler's own allocation causes stays in the handler's self time.
	copies := make([]float64, 5)
	for i := range copies {
		runtime.GC()
		copies[i] = ms(tr.time("moft.copy", "", func() { tableOf(tbl.Tuples()) }))
	}
	side.copyMS = median(copies)
	side.copyPer100k = side.copyMS / rows * 1e5
	lo, hi, _ := tbl.TimeSpan()
	side.scanPer100k = medianOf(tr, "moft.ScanInterval", 3, func() {
		tbl.ScanInterval(timedim.Interval{Lo: lo, Hi: hi}, func(moft.Tuple) bool { return true })
	}) / rows * 1e5

	// Rebuild costs: invalidate, then the first call that needs each
	// structure again.
	ln, _ := sys.Ctx.GIS().Layer("Ln")
	river := w.regions["river"]
	pg, _ := ln.Polygon(river[0])
	win := timedim.Interval{Lo: epoch, Hi: epoch + 30*timedim.SecondsPerMinute}
	var lit, grid, intervals []float64
	var cerr error
	for i := 0; i < 3; i++ {
		tr.time("core.InvalidateTrajectories", "side", func() { eng.InvalidateTrajectories(table) })
		lit = append(lit, ms(tr.time("core.Trajectories", "rebuild", func() { _, cerr = eng.Trajectories(ctx, table) })))
		if cerr == nil {
			grid = append(grid, ms(tr.time("core.ObjectsSampledInside", "rebuild", func() { _, cerr = eng.ObjectsSampledInside(ctx, table, pg, win) })))
		}
		if cerr == nil {
			intervals = append(intervals, ms(tr.time("core.CountPassingThroughGeometries", "rebuild", func() {
				_, cerr = eng.CountPassingThroughGeometries(ctx, table, "Ln", river, win)
			})))
		}
		if cerr != nil {
			return nil, fmt.Errorf("side span: rebuild: %w", cerr)
		}
	}
	side.rebuildLIT, side.rebuildGrid, side.rebuildIntervals = median(lit), median(grid), median(intervals)

	// All polygons at once is the only way past the interval cache's
	// 256-entry cap; no end-to-end workload reaches it.
	every := ln.IDs(layer.KindPolygon)
	side.thrashMS = medianOf(tr, "core.CountPassingThroughGeometries", 3, func() {
		_, cerr = eng.CountPassingThroughGeometries(ctx, table, "Ln", every, timedim.Interval{Lo: lo, Hi: hi})
	})
	if cerr != nil {
		return nil, fmt.Errorf("side span: thrash: %w", cerr)
	}

	lits, err := eng.Trajectories(ctx, table)
	if err != nil {
		return nil, fmt.Errorf("side span: %w", err)
	}
	var inside []float64
	for oid := moft.Oid(1); oid <= 200; oid++ {
		if l, ok := lits[oid]; ok {
			inside = append(inside, us(tr.time("traj.InsidePolygonIntervals", "", func() { l.InsidePolygonIntervals(pg) })))
		}
	}
	side.insideUS, side.insideN = median(inside), len(inside)

	scratch := telemetry.New(telemetry.Config{Registry: obs.NewRegistry()})
	const records = 2000
	total := tr.time("telemetry.Record", "", func() {
		for i := 0; i < records; i++ {
			scratch.Record(telemetry.QueryRecord{Op: "bench", Table: table, Start: time.Now(), Duration: time.Millisecond, Outcome: telemetry.OutcomeOK})
		}
	})
	side.recordUS = us(total) / records

	layers := map[string]*layer.Layer{}
	for name := range sys.Kinds {
		if l, ok := sys.Ctx.GIS().Layer(name); ok {
			layers[name] = l
		}
	}
	side.overlayMS = medianOf(tr, "overlay.Precompute", 3, func() {
		_, cerr = overlay.Precompute(ctx, layers, sys.Overlay.Pairs())
	})
	if cerr != nil {
		return nil, fmt.Errorf("side span: overlay: %w", cerr)
	}
	return side, nil
}

package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// P9 measures the parallel trajectory query path: worker-count
// scaling of the Type-7 TimeSpentInside query over a generated city,
// exact result identity between the serial and parallel fan-out,
// spatial-prefilter effectiveness on a small region, and the
// interval-cache hit rate on repeated polygons. workerCounts defaults
// to {1, 2, 4}; objects defaults to 600. Pass requires parallel
// results identical to serial and a nonzero interval-cache hit rate
// (speedup is reported, not gated: it depends on the host's cores).
func P9(workerCounts []int, objects int) Report {
	fail := func(err error) Report {
		return Report{ID: "P9", Title: "parallel trajectory query path", Body: err.Error()}
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4}
	}
	if objects <= 0 {
		objects = 600
	}
	const iters = 3
	city := workload.GenCity(workload.CityConfig{Seed: 9, Cols: 8, Rows: 8})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed: 9, Objects: objects, Samples: 100, Step: 60, Speed: 3,
	})
	_, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)

	lo, hi, _ := fm.TimeSpan()
	window := timedim.Interval{Lo: lo, Hi: hi}
	// A large central region keeps the per-object geometry work high
	// (the scaling target); a corner neighborhood-sized region is what
	// the bbox prefilter can actually cut down.
	ext := city.Extent
	big := geom.BBox{
		MinX: ext.MinX + 0.15*ext.Width(), MinY: ext.MinY + 0.15*ext.Height(),
		MaxX: ext.MaxX - 0.15*ext.Width(), MaxY: ext.MaxY - 0.15*ext.Height(),
	}.AsPolygon()
	small := geom.BBox{
		MinX: ext.MinX, MinY: ext.MinY,
		MaxX: ext.MinX + 0.05*ext.Width(), MaxY: ext.MinY + 0.05*ext.Height(),
	}.AsPolygon()

	// Warm the LIT cache so the sweep times query evaluation, not the
	// one-off interpolation build.
	if _, err := eng.Trajectories(qctx(), "FM"); err != nil {
		return fail(err)
	}
	// Disable interval memoization while timing: the sweep measures
	// raw evaluation; the cache gets its own phase below.
	eng.SetIntervalCacheCap(-1)

	run := func() (map[moft.Oid]float64, time.Duration, error) {
		var out map[moft.Oid]float64
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			var err error
			out, err = eng.TimeSpentInside(qctx(), "FM", big, window)
			if err != nil {
				return nil, 0, err
			}
		}
		return out, time.Since(t0) / iters, nil
	}

	eng.SetWorkers(1)
	// One untimed pass warms allocator and page cache so the first
	// (serial) measurement isn't inflated relative to the later ones.
	if _, _, err := run(); err != nil {
		return fail(err)
	}
	want, serialDur, err := run()
	if err != nil {
		return fail(err)
	}

	pass := true
	rows := []Row{{Label: "workers=1 (serial)", Values: []string{fmtDur(serialDur), "1.00x", "exact"}}}
	for _, w := range workerCounts {
		if w <= 1 {
			continue
		}
		eng.SetWorkers(w)
		got, dur, err := run()
		if err != nil {
			return fail(err)
		}
		ident := "exact"
		if !sameDurations(got, want) {
			ident = "MISMATCH"
			pass = false
		}
		rows = append(rows, Row{
			Label: fmt.Sprintf("workers=%d", w),
			Values: []string{
				fmtDur(dur),
				fmt.Sprintf("%.2fx", float64(serialDur)/float64(dur)),
				ident,
			},
		})
	}
	// The engine default (workers=0 → GOMAXPROCS) gets its own timed
	// run, so a regression in the default path shows in its row.
	eng.SetWorkers(0)
	gotDef, defDur, err := run()
	if err != nil {
		return fail(err)
	}
	identDef := "exact"
	if !sameDurations(gotDef, want) {
		identDef = "MISMATCH"
		pass = false
	}
	rows = append(rows, Row{
		Label: fmt.Sprintf("workers=default (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		Values: []string{
			fmtDur(defDur),
			fmt.Sprintf("%.2fx", float64(serialDur)/float64(defDur)),
			identDef,
		},
	})

	// Prefilter effectiveness: a small corner region should prove most
	// trajectory envelopes disjoint and skip them wholesale.
	cand0, skip0 := met.PrefilterCandidates.Value(), met.PrefilterSkipped.Value()
	if _, err := eng.ObjectsPassingThrough(qctx(), "FM", small, window); err != nil {
		return fail(err)
	}
	cand := met.PrefilterCandidates.Value() - cand0
	skip := met.PrefilterSkipped.Value() - skip0

	// Interval-cache effectiveness: the same polygon queried four
	// times computes once and hits three times.
	eng.SetIntervalCacheCap(256)
	h0, m0 := met.IntervalCacheHits.Value(), met.IntervalCacheMisses.Value()
	for i := 0; i < 4; i++ {
		if _, err := eng.TimeSpentInside(qctx(), "FM", small, window); err != nil {
			return fail(err)
		}
	}
	hits := met.IntervalCacheHits.Value() - h0
	misses := met.IntervalCacheMisses.Value() - m0
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	if hits < 1 {
		pass = false
	}

	body := Table([]string{"fan-out", "TimeSpentInside/query", "speedup", "vs serial"}, rows)
	body += fmt.Sprintf("  prefilter (corner region): %d candidates, %d skipped of %d objects\n",
		cand, skip, objects)
	body += fmt.Sprintf("  interval cache (4 repeats): %d hits, %d misses (hit rate %.0f%%)\n",
		hits, misses, 100*hitRate)
	body += fmt.Sprintf("  GOMAXPROCS=%d; speedup is host-dependent and not gated — pass requires\n",
		runtime.GOMAXPROCS(0))
	body += "  parallel results exactly identical to serial and a nonzero cache hit rate\n"
	return Report{
		ID:    "P9",
		Title: "parallel trajectory query path: scaling, prefilter, interval cache",
		Body:  body,
		Pass:  pass,
	}
}

// sameDurations compares per-object duration maps exactly; the
// chunk-ordered merge makes parallel results bit-identical to serial.
func sameDurations(a, b map[moft.Oid]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

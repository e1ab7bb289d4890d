package experiments

import (
	"fmt"
	"reflect"
	"time"

	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// P13 measures the per-cell temporal index on the region×interval
// query shape: per low-income neighborhood, count the samples inside
// and list the distinct objects sampled inside over a sweep of narrow
// time windows. With the index an interior cell resolves to two binary
// searches plus a prefix-sum subtraction, and only the two fringe
// buckets refine row-by-row.
//
// Phase 1 (identity) runs the whole sweep — narrow windows plus
// vacuous, instant, empty and out-of-extent edge cases — on the grid
// with its adaptive temporal index and gates on reflect.DeepEqual
// against the scan-path oracle (grid disabled). Phase 2 (timing)
// reruns the narrow windows on the scan (grid disabled) and on the
// engine's grid with the adaptive temporal index. The temporal speedup
// over scan is reported; pass gates on identity only, since timing is
// host-dependent. objects defaults to 600; mobench -full runs 4000
// (400k samples).
func P13(objects int) Report {
	fail := func(err error) Report {
		return Report{ID: "P13", Title: "per-cell temporal index on region×interval queries", Body: err.Error()}
	}
	if objects <= 0 {
		objects = 600
	}
	const iters = 3
	city := workload.GenCity(workload.CityConfig{Seed: 13, Cols: 8, Rows: 8})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed: 13, Objects: objects, Samples: 100, Step: 60, Speed: 3,
	})
	_, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)

	lo, hi, _ := fm.TimeSpan()
	span := int64(hi - lo)
	polys := city.LowIncomePolygons()
	if len(polys) == 0 {
		return fail(fmt.Errorf("generated city has no low-income neighborhoods"))
	}

	// Narrow windows (span/64 wide, spread across the extent) keep the
	// queries interior-dominated and non-vacuous: the shape the
	// temporal index exists for.
	const slices = 12
	narrow := make([]timedim.Interval, 0, slices)
	for i := 0; i < slices; i++ {
		wlo := lo + timedim.Instant(int64(i)*span/slices)
		whi := wlo + timedim.Instant(span/64)
		if whi > hi {
			whi = hi
		}
		narrow = append(narrow, timedim.Interval{Lo: wlo, Hi: whi})
	}
	edge := []timedim.Interval{
		{Lo: lo, Hi: hi},             // vacuous: covers the whole extent
		{Lo: lo - 100, Hi: hi + 100}, // vacuous with slack
		{Lo: lo, Hi: lo},             // instant at the extent start
		{Lo: hi, Hi: hi},             // instant at the extent end
		{Lo: lo - 100, Hi: lo - 1},   // entirely before the extent
		{Lo: hi + 1, Hi: hi + 100},   // entirely after the extent
		{Lo: lo + timedim.Instant(span/2), Hi: lo + timedim.Instant(span/2)}, // interior instant
	}
	all := append(append([]timedim.Interval{}, narrow...), edge...)

	type answer struct {
		counts []int
		objs   [][]moft.Oid
	}
	// sweep answers every polygon over every window on the engine's
	// current route: the sample count and the objects sampled inside.
	sweep := func(ivs []timedim.Interval) ([]answer, error) {
		out := make([]answer, len(ivs))
		for w, iv := range ivs {
			a := answer{counts: make([]int, len(polys)), objs: make([][]moft.Oid, len(polys))}
			for i, pg := range polys {
				n, err := eng.CountSamplesInside(qctx(), "FM", pg, iv)
				if err != nil {
					return nil, err
				}
				o, err := eng.ObjectsSampledInside(qctx(), "FM", pg, iv)
				if err != nil {
					return nil, err
				}
				a.counts[i], a.objs[i] = n, o
			}
			out[w] = a
		}
		return out, nil
	}
	timedSweep := func(ivs []timedim.Interval) ([]answer, time.Duration, error) {
		// One untimed pass warms caches (columnar snapshot or grid).
		if _, err := sweep(ivs); err != nil {
			return nil, 0, err
		}
		var a []answer
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			var err error
			if a, err = sweep(ivs); err != nil {
				return nil, 0, err
			}
		}
		return a, time.Since(t0) / iters, nil
	}

	// Phase 1: exact identity of the temporal-index path against the
	// scan-path oracle.
	eng.SetAggGrid(-1)
	oracle, err := sweep(all)
	if err != nil {
		return fail(err)
	}
	eng.SetAggGrid(0)
	indexed, err := sweep(all)
	if err != nil {
		return fail(err)
	}
	identity := reflect.DeepEqual(oracle, indexed)

	// Phase 2: timing on the narrow windows only.
	eng.SetAggGrid(-1)
	eng.ResetCache()
	scanAns, scanDur, err := timedSweep(narrow)
	if err != nil {
		return fail(err)
	}
	eng.SetAggGrid(0) // adaptive temporal index
	eng.ResetCache()
	bktAns, bktDur, err := timedSweep(narrow)
	if err != nil {
		return fail(err)
	}
	timingIdent := reflect.DeepEqual(scanAns, bktAns)

	temporalQ := met.AggGridTemporalQueries.Value()
	fringe := met.AggGridFringeSamples.Value()
	interior := met.AggGridInteriorCells.Value()
	speedup := float64(scanDur) / float64(bktDur)
	pass := identity && timingIdent && temporalQ > 0 && interior > 0

	ident := func(ok bool) string {
		if ok {
			return "exact"
		}
		return "MISMATCH"
	}
	rows := []Row{
		{Label: "columnar scan", Values: []string{fmtDur(scanDur), "1.00x", "oracle"}},
		{Label: "grid + temporal index", Values: []string{fmtDur(bktDur),
			fmt.Sprintf("%.2fx", speedup), ident(timingIdent)}},
	}
	body := Table([]string{"path", "sweep (count+objects, narrow windows)", "speedup", "identity"}, rows)
	body += fmt.Sprintf("  workload: %d objects, %d samples, %d polygons × %d windows (%d narrow + %d edge cases)\n",
		objects, fm.Len(), len(polys), len(all), len(narrow), len(edge))
	body += fmt.Sprintf("  identity sweep: %s vs oracle; %d temporal-index answers, %d fringe samples refined\n",
		ident(identity), temporalQ, fringe)
	body += "  pass requires exact identity (DeepEqual against the scan oracle) and temporal-index\n"
	body += "  hits > 0; the speedup is reported, not gated (host-dependent)\n"
	return Report{
		ID:    "P13",
		Title: "per-cell temporal index vs scan on region×interval aggregates",
		Body:  body,
		Pass:  pass,
	}
}

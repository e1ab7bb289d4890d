package experiments

import (
	"fmt"
	"time"

	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// P10 measures the two-layer polygon-aggregate acceleration (columnar
// MOFT snapshot + GeoBlocks-style pre-aggregated grid) on the
// Remark-1 query shape: per low-income neighborhood, count the bus
// samples inside and the distinct buses sampled inside. The same
// sweep runs unaccelerated (engine grid disabled → columnar scan with
// per-sample point-in-polygon) and accelerated (interior cells from
// pre-aggregates, boundary cells refined). Pass gates on exact result
// identity across every polygon and window plus a nonzero
// interior-cell hit count; the speedup is reported, not gated, since
// it is host-dependent.
// objects defaults to 600; mobench -full runs 4000 (400k samples).
func P10(objects int) Report {
	fail := func(err error) Report {
		return Report{ID: "P10", Title: "pre-aggregated grid polygon aggregates", Body: err.Error()}
	}
	if objects <= 0 {
		objects = 600
	}
	const iters = 3
	city := workload.GenCity(workload.CityConfig{Seed: 10, Cols: 8, Rows: 8})
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed: 10, Objects: objects, Samples: 100, Step: 60, Speed: 3,
	})
	_, eng := city.Context(fm)
	met := obs.NewMetrics(obs.NewRegistry())
	eng.SetMetrics(met)

	lo, hi, _ := fm.TimeSpan()
	// The full span exercises the pre-aggregated (time-vacuous) path;
	// the morning third forces per-sample time filtering.
	windows := []timedim.Interval{
		{Lo: lo, Hi: hi},
		{Lo: lo, Hi: lo + (hi-lo)/3},
	}
	polys := city.LowIncomePolygons()
	if len(polys) == 0 {
		return fail(fmt.Errorf("generated city has no low-income neighborhoods"))
	}

	type answer struct {
		counts []int
		objs   [][]moft.Oid
	}
	sweep := func(iv timedim.Interval) (answer, error) {
		a := answer{counts: make([]int, len(polys)), objs: make([][]moft.Oid, len(polys))}
		for i, pg := range polys {
			n, err := eng.CountSamplesInside(qctx(), "FM", pg, iv)
			if err != nil {
				return a, err
			}
			o, err := eng.ObjectsSampledInside(qctx(), "FM", pg, iv)
			if err != nil {
				return a, err
			}
			a.counts[i], a.objs[i] = n, o
		}
		return a, nil
	}
	timedSweep := func(iv timedim.Interval) (answer, time.Duration, error) {
		// One untimed pass warms caches (columnar snapshot or grid).
		if _, err := sweep(iv); err != nil {
			return answer{}, 0, err
		}
		var a answer
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			var err error
			if a, err = sweep(iv); err != nil {
				return a, 0, err
			}
		}
		return a, time.Since(t0) / iters, nil
	}
	same := func(a, b answer) bool {
		for i := range polys {
			if a.counts[i] != b.counts[i] {
				return false
			}
			if len(a.objs[i]) != len(b.objs[i]) {
				return false
			}
			for k := range a.objs[i] {
				if a.objs[i][k] != b.objs[i][k] {
					return false
				}
			}
		}
		return true
	}

	eng.SetAggGrid(-1) // unaccelerated: columnar scan path
	slowFull, slowDur, err := timedSweep(windows[0])
	if err != nil {
		return fail(err)
	}
	slowPart, _, err := timedSweep(windows[1])
	if err != nil {
		return fail(err)
	}

	eng.SetAggGrid(0) // accelerated: pre-aggregated grid, auto-sized
	fastFull, fastDur, err := timedSweep(windows[0])
	if err != nil {
		return fail(err)
	}
	fastPart, _, err := timedSweep(windows[1])
	if err != nil {
		return fail(err)
	}

	identFull, identPart := same(slowFull, fastFull), same(slowPart, fastPart)
	interior := met.AggGridInteriorCells.Value()
	boundary := met.AggGridBoundaryCells.Value()
	speedup := float64(slowDur) / float64(fastDur)
	pass := identFull && identPart && interior > 0

	totalSamples := 0
	for _, n := range fastFull.counts {
		totalSamples += n
	}
	ident := func(ok bool) string {
		if ok {
			return "exact"
		}
		return "MISMATCH"
	}
	rows := []Row{
		{Label: "columnar scan", Values: []string{fmtDur(slowDur), "1.00x", "baseline"}},
		{Label: "pre-aggregated grid", Values: []string{fmtDur(fastDur), fmt.Sprintf("%.2fx", speedup),
			ident(identFull) + "/" + ident(identPart)}},
	}
	body := Table([]string{"path", "sweep (count+objects, all polygons)", "speedup", "identity full/partial"}, rows)
	body += fmt.Sprintf("  workload: %d objects, %d samples, %d low-income polygons, %d in-polygon samples\n",
		objects, fm.Len(), len(polys), totalSamples)
	body += fmt.Sprintf("  grid: %d interior cells aggregated, %d boundary cells refined (%d samples pre-aggregated, %d refined)\n",
		interior, boundary, met.AggGridInteriorSamples.Value(), met.AggGridRefinedSamples.Value())
	body += "  pass requires exact identity on every polygon and window plus interior-cell hits > 0;\n"
	body += "  the speedup is reported, not gated (host-dependent)\n"
	return Report{
		ID:    "P10",
		Title: "pre-aggregated grid vs columnar scan on polygon aggregates",
		Body:  body,
		Pass:  pass,
	}
}

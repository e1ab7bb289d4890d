package experiments

import (
	"fmt"
	"math"
	"time"

	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/traj"
	"mogis/internal/trajagg"
	"mogis/internal/workload"
)

// P7 exercises trajectory aggregation (Meratnia & de By, Section 2 of
// the paper) and SED compression: the pass-count surface must be
// invariant under compression within the unit size, and compression
// must shrink the MOFT substantially.
func P7(objectCounts []int) Report {
	if len(objectCounts) == 0 {
		objectCounts = []int{100, 400}
	}
	city := workload.GenCity(workload.CityConfig{Seed: 7, Cols: 8, Rows: 8})
	g, err := trajagg.NewUnitGrid(city.Extent, 16, 16)
	if err != nil {
		return Report{ID: "P7", Title: "trajectory aggregation", Body: err.Error()}
	}
	var rows []Row
	pass := true
	for _, n := range objectCounts {
		fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
			Seed: 7, Objects: n, Samples: 120, Step: 30, Speed: 2,
		})
		_, eng := city.Context(fm)
		lits, err := eng.Trajectories(qctx(), "FM")
		if err != nil {
			return Report{ID: "P7", Title: "trajectory aggregation", Body: err.Error()}
		}

		t0 := time.Now()
		surface := trajagg.BuildSurface(g, lits)
		surfTime := time.Since(t0)

		// Compress every trajectory with epsilon = 1/16 of a unit cell
		// and rebuild the surface.
		eps := city.Extent.Width() / 16 / 16
		var origPts, compPts int
		litsC := make(map[moft.Oid]*traj.LIT, len(lits))
		for oid, l := range lits {
			s := l.Sample()
			c := traj.Compress(s, eps)
			origPts += len(s)
			compPts += len(c)
			litsC[oid] = traj.MustLIT(c)
		}
		surfaceC := trajagg.BuildSurface(g, litsC)

		// Surface similarity: relative L1 difference of the pass-count
		// surfaces (total absolute count change over total count).
		var l1, total int
		for u := range surface.Counts {
			d := surface.Counts[u] - surfaceC.Counts[u]
			if d < 0 {
				d = -d
			}
			l1 += d
			total += surface.Counts[u]
		}
		changedFrac := 0.0
		if total > 0 {
			changedFrac = float64(l1) / float64(total)
		}
		if changedFrac > 0.10 {
			pass = false
		}

		aggs := trajagg.Aggregate(g, lits)
		_, maxCount := surface.Max()
		rows = append(rows, Row{
			Label: fmt.Sprintf("%d objects", n),
			Values: []string{
				fmtDur(surfTime),
				fmt.Sprintf("%d", maxCount),
				fmt.Sprintf("%d", len(aggs)),
				fmt.Sprintf("%.1f%%", 100*float64(compPts)/float64(origPts)),
				fmt.Sprintf("%.1f%%", 100*changedFrac),
			},
		})
	}
	body := Table([]string{"workload", "surface", "max-pass", "aggregated-paths", "compressed-size", "surface-L1-delta"}, rows)
	body += "  expectation (paper §2, Meratnia & de By): unit-grid aggregation is insensitive to\n" +
		"  sampling changes — SED compression shrinks the data while the pass-count surface\n" +
		"  stays nearly identical\n"
	return Report{ID: "P7", Title: "trajectory aggregation and SED compression", Body: body, Pass: pass}
}

// A1 measures the cost of the exact-arithmetic fallback in the
// orientation predicate (DESIGN.md decision 1): the float filter on
// general-position inputs versus the big.Rat path forced by
// degenerate inputs, and verifies the fallback decides a case the
// filter cannot certify.
func A1() Report {
	const iters = 200000
	// General position: the filter certifies the sign.
	a, b, c := geom.Pt(0.1, 0.2), geom.Pt(10.3, 7.9), geom.Pt(3.7, 9.1)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		geom.Orient(a, b, c)
	}
	fast := time.Since(t0)

	// Exactly collinear at large magnitude: the filter must fall back.
	d, e, f := geom.Pt(1e16, 1e16), geom.Pt(2e16, 2e16), geom.Pt(3e16, 3e16)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		geom.Orient(d, e, f)
	}
	slow := time.Since(t0)

	correct := geom.Orient(d, e, f) == geom.Collinear
	var rows []Row
	rows = append(rows,
		Row{Label: "float filter (general position)", Values: []string{fmtDur(fast / iters)}},
		Row{Label: "exact fallback (degenerate)", Values: []string{fmtDur(slow / iters)}},
		Row{Label: "slowdown", Values: []string{fmt.Sprintf("%.0fx", float64(slow)/math.Max(1, float64(fast)))}},
	)
	body := Table([]string{"path", "per call"}, rows)
	body += "  the fallback fires only near degeneracy; general-position inputs never pay it\n"
	return Report{ID: "A1", Title: "ablation — exact predicate fallback vs float filter", Body: body, Pass: correct}
}

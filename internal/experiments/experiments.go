// Package experiments implements the reproduction experiments indexed
// in DESIGN.md and recorded in EXPERIMENTS.md: the paper-artifact
// checks E1–E6 (Table 1, Figure 1, Figure 2, Remark 1, the Section-4
// example queries, and the Section-5 Piet-QL query) and the
// performance studies P1–P3, P5, P7, P8, P10, P11 and P13 (the
// missing numbers are retired; see EXPERIMENTS.md) that
// validate the paper's qualitative claims about evaluation strategy,
// plus the ablation A1. Each experiment returns a printable report so
// cmd/mobench, tests and benchmarks share one implementation; Run and
// IDs read the one ordered registry of ids and sizes.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"mogis/internal/fo"
	"mogis/internal/gis"
	"mogis/internal/layer"
	"mogis/internal/mdx"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/olap"
	"mogis/internal/overlay"
	"mogis/internal/pietql"
	"mogis/internal/scenario"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

var (
	baseMu  sync.Mutex
	baseCtx = context.Background()
)

// SetBaseContext sets the context every experiment's engine and
// Piet-QL calls run under (nil restores context.Background).
// cmd/mobench uses it to apply -timeout and -budget to experiment
// runs; experiments construct their engines internally, so the
// context cannot be threaded per call.
func SetBaseContext(ctx context.Context) {
	baseMu.Lock()
	defer baseMu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	baseCtx = ctx
}

// qctx returns the configured base context.
func qctx() context.Context {
	baseMu.Lock()
	defer baseMu.Unlock()
	return baseCtx
}

// Report is a rendered experiment result.
type Report struct {
	ID    string
	Title string
	Body  string
	// Pass indicates the paper-artifact checks succeeded (always true
	// for performance studies that ran to completion).
	Pass bool
}

func (r Report) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("=== %s: %s [%s]\n%s", r.ID, r.Title, status, r.Body)
}

// E1 reproduces Table 1: the MOFT FMbus.
func E1() Report {
	s := scenario.New()
	body := s.FMbus.String()
	pass := s.FMbus.Len() == 12 && len(s.FMbus.Objects()) == 6
	return Report{ID: "E1", Title: "Table 1 — the M.O. fact table FMbus", Body: body, Pass: pass}
}

// E2 checks the six Figure-1 facts.
func E2() Report {
	s := scenario.New()
	low := s.LowIncomeRegion()
	lits, err := s.Engine.Trajectories(qctx(), "FMbus")
	if err != nil {
		return Report{ID: "E2", Title: "Figure 1 facts", Body: err.Error()}
	}
	var sb strings.Builder
	pass := true
	check := func(name string, ok bool) {
		status := "ok"
		if !ok {
			status = "VIOLATED"
			pass = false
		}
		fmt.Fprintf(&sb, "  %-68s %s\n", name, status)
	}

	allLow := true
	for _, tp := range s.FMbus.ObjectTuples(1) {
		allLow = allLow && low(tp.Point())
	}
	check("O1 remains always within a low-income region", allLow)

	o2 := s.FMbus.ObjectTuples(2)
	check("O2 starts high-income, enters low-income, gets out again",
		!low(o2[0].Point()) && low(o2[1].Point()) && !low(o2[2].Point()))

	highOnly := true
	for _, oid := range []moft.Oid{3, 4, 5} {
		for _, tp := range s.FMbus.ObjectTuples(oid) {
			highOnly = highOnly && !low(tp.Point())
		}
	}
	check("O3, O4, O5 are always in high-income neighborhoods", highOnly)

	sampledLow := false
	for _, tp := range s.FMbus.ObjectTuples(6) {
		sampledLow = sampledLow || low(tp.Point())
	}
	passesLow := false
	for _, pg := range s.LowIncomePolygons() {
		passesLow = passesLow || lits[6].PassesThroughPolygon(pg)
	}
	check("O6 passes through a low-income region without a sample inside", !sampledLow && passesLow)

	return Report{ID: "E2", Title: "Figure 1 — stated object behaviours", Body: sb.String(), Pass: pass}
}

// E3 reproduces the Figure-2 schema and validates it against
// Definition 1.
func E3() Report {
	s := scenario.New()
	err := s.GIS.Validate()
	body := s.GIS.Schema().Describe()
	if err != nil {
		body += "validation: " + err.Error() + "\n"
	} else {
		body += "validation: all hierarchies satisfy Definition 1\n"
	}
	return Report{ID: "E3", Title: "Figure 2 — GIS dimension schema", Body: body, Pass: err == nil}
}

// E4 evaluates the motivating query of Section 1.2 and checks
// Remark 1's value 4/3.
func E4() Report {
	s := scenario.New()
	rel, err := s.Engine.RegionC(qctx(), s.MotivatingFormula(), []fo.Var{"o", "t"})
	if err != nil {
		return Report{ID: "E4", Title: "Remark 1", Body: err.Error()}
	}
	rate, err := s.MotivatingResult(qctx())
	if err != nil {
		return Report{ID: "E4", Title: "Remark 1", Body: err.Error()}
	}
	var sb strings.Builder
	sb.WriteString("region C (Oid, t):\n")
	sb.WriteString(indent(rel.String(), "  "))
	fmt.Fprintf(&sb, "buses per hour = |C| / %d hours = %d/%d = %.4f (paper: 4/3 = 1.3333)\n",
		scenario.MorningHours, rel.Len(), scenario.MorningHours, rate)
	pass := rel.Len() == 4 && math.Abs(rate-4.0/3) < 1e-12
	return Report{ID: "E4", Title: "Remark 1 — the motivating query evaluates to 4/3", Body: sb.String(), Pass: pass}
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// E5 runs the Section-4 example queries Q1–Q7 (adapted to the
// running example's city) and reports their results.
func E5() Report {
	s := scenario.New()
	var sb strings.Builder
	pass := true
	fail := func(q string, err error) {
		fmt.Fprintf(&sb, "  %s: ERROR %v\n", q, err)
		pass = false
	}

	// Q0 (Type 1, Section 3.1's spatial-aggregation example): "total
	// population of provinces crossed by a river", population stored
	// per polygon and apportioned by area over the river's buffer.
	riverPl, _ := s.Lr.Polyline(1)
	gft := gis.NewFactTable(gis.FactSchema{Kind: layer.KindPolygon, LayerName: "Ln", Measures: []string{"population"}})
	for _, m := range s.Neighborhoods.Members("neighborhood") {
		v, _ := s.Neighborhoods.Attr("neighborhood", m, "population")
		popv, _ := v.Num()
		_, id, _ := s.Ln.Alpha("neighb", string(m))
		gft.MustSet(id, popv)
	}
	var crossedPop float64
	for _, id := range s.Ln.IDs(layer.KindPolygon) {
		pg, _ := s.Ln.Polygon(id)
		if pg.IntersectsPolyline(riverPl) {
			v, _ := gft.Measure(id, "population")
			crossedPop += v
		}
	}
	fmt.Fprintf(&sb, "  Q0 population of neighborhoods crossed by the river: %.0f\n", crossedPop)
	pass = pass && crossedPop == 60000+45000+30000+25000+40000 // the river borders all five

	// Q1 (Type 4): number of cars in region "South" on Monday morning.
	south := []layer.Gid{scenario.PgMeir, scenario.PgDam, scenario.PgZuid}
	q1 := fo.Exists([]fo.Var{"x", "y", "pg"}, fo.And(
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.TimeRollup{Cat: timedim.CatTimeOfDay, T: fo.V("t"), V: fo.CStr(timedim.Morning)},
		&fo.TimeRollup{Cat: timedim.CatDayOfWeek, T: fo.V("t"), V: fo.CStr("Monday")},
		&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pg")},
		&fo.GeomIn{G: fo.V("pg"), IDs: south},
	))
	if n, err := s.Engine.CountRegion(qctx(), q1, []fo.Var{"o"}); err != nil {
		fail("Q1", err)
	} else {
		fmt.Fprintf(&sb, "  Q1 cars in the South on Monday morning: %d objects\n", n)
		pass = pass && n == 3 // O1, O2, O6
	}

	// Q2 (Type 4): maximal density of cars on streets, interpretation
	// (a): per street over Monday, count / street length. (The only
	// on-street sample in Table 1 is O2 at (25,8) at noon, so the
	// window is the whole day.)
	q2 := fo.Exists([]fo.Var{"x", "y", "pl"}, fo.And(
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.TimeRollup{Cat: timedim.CatDayOfWeek, T: fo.V("t"), V: fo.CStr("Monday")},
		&fo.PointIn{Layer: "Lh", Kind: layer.KindPolyline, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pl")},
		&fo.Alpha{Attr: "street", A: fo.V("s"), G: fo.V("pl")},
	))
	if rel, err := s.Engine.RegionC(qctx(), q2, []fo.Var{"o", "t", "s"}); err != nil {
		fail("Q2", err)
	} else {
		res, err := rel.GroupAggregate(olap.Count, "", []fo.Var{"s"})
		if err != nil {
			fail("Q2", err)
		} else {
			best, bestD := "", 0.0
			for _, row := range res.Rows {
				_, plID, _ := s.Lh.Alpha("street", string(row.Group[0]))
				pl, _ := s.Lh.Polyline(plID)
				if d := row.Value / pl.Length(); d > bestD {
					best, bestD = string(row.Group[0]), d
				}
			}
			fmt.Fprintf(&sb, "  Q2 max street density (Monday): %s at %.4f cars/unit (samples on streets: %d)\n",
				best, bestD, rel.Len())
			pass = pass && rel.Len() == 2 && best == "Meirstraat" // O1@(8,8) and O2@(25,8)
		}
	}

	// Q3 (Type 4 with negation): objects passing completely through
	// high-population neighborhoods — sampled in Berchem (pop 40k ≥
	// threshold 35k here) and never sampled in a lower-pop one.
	q3 := fo.And(
		fo.Exists([]fo.Var{"t", "x", "y", "pg", "n"}, fo.And(
			&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
			&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pg")},
			&fo.Alpha{Attr: "neighb", A: fo.V("n"), G: fo.V("pg")},
			&fo.AttrCmp{Concept: "neighb", M: fo.V("n"), Attr: "population", Op: fo.GE, Rhs: fo.CReal(35000)},
		)),
		fo.Not(fo.Exists([]fo.Var{"t1", "x1", "y1", "pg1", "n1"}, fo.And(
			&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t1"), X: fo.V("x1"), Y: fo.V("y1")},
			&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V("x1"), Y: fo.V("y1"), G: fo.V("pg1")},
			&fo.Alpha{Attr: "neighb", A: fo.V("n1"), G: fo.V("pg1")},
			&fo.AttrCmp{Concept: "neighb", M: fo.V("n1"), Attr: "population", Op: fo.LT, Rhs: fo.CReal(35000)},
		))),
	)
	if rel, err := s.Engine.RegionC(qctx(), q3, []fo.Var{"o"}); err != nil {
		fail("Q3", err)
	} else {
		fmt.Fprintf(&sb, "  Q3 objects only ever sampled in populous neighborhoods: %d\n", rel.Len())
	}

	// Q4 (Type 6): how many cars in Berchem at 13:00 (T(5))?
	berchem, _ := s.Ln.Polygon(scenario.PgBerchem)
	if objs, err := s.Engine.ObjectsSampledAt(qctx(), "FMbus", scenario.T(5), berchem); err != nil {
		fail("Q4", err)
	} else {
		fmt.Fprintf(&sb, "  Q4 cars in Berchem at 13:00: %d\n", len(objs))
		pass = pass && len(objs) == 1 // O3
	}

	// Q5 (Type 7): total time spent continuously in the city's south
	// (interpolated).
	window := timedim.Interval{Lo: scenario.T(1), Hi: scenario.T(6)}
	zuid, _ := s.Ln.Polygon(scenario.PgZuid)
	if spent, err := s.Engine.TimeSpentInside(qctx(), "FMbus", zuid, window); err != nil {
		fail("Q5", err)
	} else {
		var total float64
		for _, v := range spent {
			total += v
		}
		fmt.Fprintf(&sb, "  Q5 total interpolated time in Zuid: %.0f seconds over %d objects\n", total, len(spent))
		pass = pass && len(spent) >= 2 // O2 and O6 at least
	}

	// Q6 (Type 7): cars within 5 units of a school, interpolated vs
	// sample-only.
	school, _ := s.Ls.Node(1)
	if within, err := s.Engine.ObjectsEverWithinRadius(qctx(), "FMbus", school, 5, window); err != nil {
		fail("Q6", err)
	} else {
		q6s := fo.Exists([]fo.Var{"x", "y", "sx", "sy", "sc"}, fo.And(
			&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
			&fo.Alpha{Attr: "school", A: fo.CStr("MeirSchool"), G: fo.V("sc")},
			&fo.PointIn{Layer: "Ls", Kind: layer.KindNode, X: fo.V("sx"), Y: fo.V("sy"), G: fo.V("sc")},
			&fo.DistLE{X1: fo.V("x"), Y1: fo.V("y"), X2: fo.V("sx"), Y2: fo.V("sy"), R: 5},
		))
		relS, err := s.Engine.RegionC(qctx(), q6s, []fo.Var{"o"})
		if err != nil {
			fail("Q6", err)
		} else {
			fmt.Fprintf(&sb, "  Q6 near MeirSchool (r=5): interpolated %d objects, sample-only %d objects\n",
				len(within), relS.Len())
		}
	}

	// Q7 (Type 4): persons within 4 units of the store "DamStore" per
	// hour in the morning.
	q7 := fo.Exists([]fo.Var{"x", "y", "bx", "by", "bs"}, fo.And(
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.TimeRollup{Cat: timedim.CatTimeOfDay, T: fo.V("t"), V: fo.CStr(timedim.Morning)},
		&fo.Alpha{Attr: "store", A: fo.CStr("DamStore"), G: fo.V("bs")},
		&fo.PointIn{Layer: "Lstores", Kind: layer.KindNode, X: fo.V("bx"), Y: fo.V("by"), G: fo.V("bs")},
		&fo.DistLE{X1: fo.V("x"), Y1: fo.V("y"), X2: fo.V("bx"), Y2: fo.V("by"), R: 4},
		&fo.TimeRollup{Cat: timedim.CatHour, T: fo.V("t"), V: fo.V("h")},
	))
	if res, err := s.Engine.AggregateRegion(qctx(), q7, []fo.Var{"o", "t", "h"}, olap.Count, "", []fo.Var{"h"}); err != nil {
		fail("Q7", err)
	} else {
		fmt.Fprintf(&sb, "  Q7 waiting near DamStore by hour: %d hour buckets\n", len(res.Rows))
	}

	return Report{ID: "E5", Title: "Section 4 — example queries Q1..Q7", Body: sb.String(), Pass: pass}
}

// E6 runs the Section-5 Piet-QL query end to end.
func E6() Report {
	s := scenario.New()
	kinds := map[string]layer.Kind{
		"Ln": layer.KindPolygon, "Lr": layer.KindPolyline,
		"Ls": layer.KindNode, "Lstores": layer.KindNode, "Lh": layer.KindPolyline,
	}
	ov, err := overlay.Precompute(qctx(), map[string]*layer.Layer{
		"Ln": s.Ln, "Lr": s.Lr, "Ls": s.Ls, "Lstores": s.Lstores, "Lh": s.Lh,
	}, []overlay.Pair{
		{A: overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}, B: overlay.Ref{Layer: "Lr", Kind: layer.KindPolyline}},
		{A: overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}, B: overlay.Ref{Layer: "Lstores", Kind: layer.KindNode}},
	})
	if err != nil {
		return Report{ID: "E6", Title: "Piet-QL", Body: err.Error()}
	}
	ft := olap.NewFactTable(olap.FactSchema{
		Dims:     []olap.DimCol{{Name: "place", Dimension: s.Neighborhoods, Level: "neighborhood"}},
		Measures: []string{"population"},
	})
	for _, m := range s.Neighborhoods.Members("neighborhood") {
		v, _ := s.Neighborhoods.Attr("neighborhood", m, "population")
		p, _ := v.Num()
		ft.MustAdd([]olap.Member{m}, []float64{p})
	}
	sys := &pietql.System{
		Ctx: s.Ctx, Engine: s.Engine, Kinds: kinds, Overlay: ov,
		SchemaName: "PietSchema",
		Cubes:      mdx.Catalog{"CityCube": &mdx.Cube{Name: "CityCube", Fact: ft}},
	}
	query := `
SELECT layer.Lr, layer.Ln, layer.Lstores;
FROM PietSchema;
WHERE intersection(layer.Lr, layer.Ln, subplevel.Linestring)
AND (layer.Ln)
CONTAINS (layer.Ln, layer.Lstores, subplevel.Point);
| SELECT {[Measures].[population]} ON COLUMNS, {[place].[neighborhood].Members} ON ROWS FROM [CityCube]
| MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln`
	out, err := sys.Run(qctx(), query)
	if err != nil {
		return Report{ID: "E6", Title: "Piet-QL", Body: err.Error()}
	}
	var sb strings.Builder
	sb.WriteString("query: cities crossed by a river containing at least one store;\n")
	sb.WriteString("       cars passing through them (Section 5 example)\n")
	sb.WriteString(indent(pietql.FormatOutcome(out), "  "))
	pass := out.HasMO && out.MOCount == 5 && len(out.GeoIDs["Ln"]) == 2
	return Report{ID: "E6", Title: "Section 5 — Piet-QL end to end", Body: sb.String(), Pass: pass}
}

// --- Performance studies ----------------------------------------------

// Row is one measurement row of a performance table.
type Row struct {
	Label  string
	Values []string
}

// Table renders measurement rows with a header.
func Table(header []string, rows []Row) string {
	var sb strings.Builder
	sb.WriteString("  " + strings.Join(header, "\t") + "\n")
	for _, r := range rows {
		sb.WriteString("  " + r.Label + "\t" + strings.Join(r.Values, "\t") + "\n")
	}
	return sb.String()
}

// P1 compares precomputed-overlay versus naive evaluation of the
// Section-5 geometric query over growing city sizes (the paper's
// central evaluation claim).
func P1(grids []int, queries int) Report {
	if len(grids) == 0 {
		grids = []int{4, 8, 16, 32}
	}
	if queries <= 0 {
		queries = 50
	}
	var rows []Row
	for _, g := range grids {
		city := workload.GenCity(workload.CityConfig{Seed: 1, Cols: g, Rows: g})
		layers := city.Layers()
		refN := overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}
		refR := overlay.Ref{Layer: "Lr", Kind: layer.KindPolyline}

		t0 := time.Now()
		ov, err := overlay.Precompute(qctx(), layers, []overlay.Pair{{A: refR, B: refN}})
		if err != nil {
			return Report{ID: "P1", Title: "overlay vs naive", Body: err.Error()}
		}
		precompute := time.Since(t0)

		t0 = time.Now()
		for q := 0; q < queries; q++ {
			_ = ov.Intersecting(refR, 1, refN)
		}
		fast := time.Since(t0)

		t0 = time.Now()
		for q := 0; q < queries; q++ {
			if _, err := overlay.IntersectingNaive(layers, refR, 1, refN); err != nil {
				return Report{ID: "P1", Title: "overlay vs naive", Body: err.Error()}
			}
		}
		slow := time.Since(t0)

		speedup := float64(slow.Nanoseconds()) / math.Max(1, float64(fast.Nanoseconds()))
		rows = append(rows, Row{
			Label: fmt.Sprintf("%dx%d (%d polygons)", g, g, g*g),
			Values: []string{
				fmtDur(precompute),
				fmtDur(fast / time.Duration(queries)),
				fmtDur(slow / time.Duration(queries)),
				fmt.Sprintf("%.0fx", speedup),
			},
		})
	}
	body := Table([]string{"city", "precompute", "overlay/query", "naive/query", "speedup"}, rows)
	body += "  expectation (paper §5): overlay precomputation makes query-time geometry a lookup\n"
	return Report{ID: "P1", Title: "overlay precomputation vs naive geometric evaluation", Body: body, Pass: true}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// P2 compares the summable rewriting (fact-table sum) against numeric
// integration of a density for "population of low-income
// neighborhoods".
func P2() Report {
	city := workload.GenCity(workload.CityConfig{Seed: 2, Cols: 8, Rows: 8})
	// Fact table with per-polygon population.
	ft := gis.NewFactTable(gis.FactSchema{Kind: layer.KindPolygon, LayerName: "Ln", Measures: []string{"population"}})
	densities := make(map[layer.Gid]float64)
	for _, m := range city.Neighborhoods.Members("neighborhood") {
		v, _ := city.Neighborhoods.Attr("neighborhood", m, "population")
		p, _ := v.Num()
		_, id, _ := city.Ln.Alpha("neighb", string(m))
		ft.MustSet(id, p)
		pg, _ := city.Ln.Polygon(id)
		densities[id] = p / pg.Area()
	}

	t0 := time.Now()
	want, err := gis.SummableFromFact(city.LowIncomeIDs, ft, "population").Evaluate()
	if err != nil {
		return Report{ID: "P2", Title: "summable vs integration", Body: err.Error()}
	}
	summableTime := time.Since(t0)

	var rows []Row
	rows = append(rows, Row{Label: "summable Σ h'(g)", Values: []string{fmtDur(summableTime), fmt.Sprintf("%.0f", want), "0.00%"}})
	for _, subdiv := range []int{0, 2, 4} {
		t0 = time.Now()
		var got float64
		for _, id := range city.LowIncomeIDs {
			pg, _ := city.Ln.Polygon(id)
			v, err := gis.IntegratePolygon(gis.ConstDensity(densities[id]), pg, subdiv)
			if err != nil {
				return Report{ID: "P2", Title: "summable vs integration", Body: err.Error()}
			}
			got += v
		}
		dt := time.Since(t0)
		rows = append(rows, Row{
			Label: fmt.Sprintf("integration subdiv=%d", subdiv),
			Values: []string{fmtDur(dt), fmt.Sprintf("%.0f", got),
				fmt.Sprintf("%.2f%%", 100*math.Abs(got-want)/want)},
		})
	}
	body := Table([]string{"method", "time", "value", "error"}, rows)
	body += "  expectation (paper Def. 4/§5): summable queries avoid integration entirely\n"
	return Report{ID: "P2", Title: "summable rewriting vs numeric integration", Body: body, Pass: true}
}

// P3 measures interpolation-aware versus sample-only passes-through
// queries: cost and answer difference (the paper's O6 effect at
// scale).
func P3(objectCounts []int) Report {
	if len(objectCounts) == 0 {
		objectCounts = []int{100, 400, 1600}
	}
	city := workload.GenCity(workload.CityConfig{Seed: 3, Cols: 8, Rows: 8})
	target, _ := city.Ln.Polygon(city.LowIncomeIDs[0])
	var rows []Row
	for _, n := range objectCounts {
		fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
			Seed: 3, Objects: n, Samples: 30, Step: 120, Speed: 3,
		})
		_, eng := city.Context(fm)
		lo, hi, _ := fm.TimeSpan()
		window := timedim.Interval{Lo: lo, Hi: hi}

		t0 := time.Now()
		sampled, err := eng.ObjectsSampledInside(qctx(), "FM", target, window)
		if err != nil {
			return Report{ID: "P3", Title: "interpolation vs samples", Body: err.Error()}
		}
		sampleTime := time.Since(t0)

		t0 = time.Now()
		passing, err := eng.ObjectsPassingThrough(qctx(), "FM", target, window)
		if err != nil {
			return Report{ID: "P3", Title: "interpolation vs samples", Body: err.Error()}
		}
		interpTime := time.Since(t0)

		rows = append(rows, Row{
			Label: fmt.Sprintf("%d objects", n),
			Values: []string{
				fmt.Sprintf("%d", len(sampled)),
				fmt.Sprintf("%d", len(passing)),
				fmt.Sprintf("+%d", len(passing)-len(sampled)),
				fmtDur(sampleTime), fmtDur(interpTime),
			},
		})
	}
	body := Table([]string{"workload", "sampled-only", "interpolated", "missed-by-samples", "t(sample)", "t(interp)"}, rows)
	body += "  expectation (paper Fig. 1, O6): sample-only answers undercount pass-through objects\n"
	return Report{ID: "P3", Title: "interpolated vs sample-only passes-through", Body: body, Pass: true}
}

// P5 measures first-order region-C evaluation over growing MOFTs:
// the motivating query's formula shape at scale.
func P5(sampleCounts []int) Report {
	if len(sampleCounts) == 0 {
		sampleCounts = []int{1000, 4000, 16000}
	}
	city := workload.GenCity(workload.CityConfig{Seed: 5, Cols: 8, Rows: 8})
	var rows []Row
	for _, n := range sampleCounts {
		fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
			Seed: 5, Objects: n / 50, Samples: 50, Step: 300, Speed: 3,
		})
		_, eng := city.Context(fm)
		f := fo.Exists([]fo.Var{"x", "y", "pg", "nb"}, fo.And(
			&fo.MemberOf{Concept: "neighb", M: fo.V("nb")},
			&fo.TimeRollup{Cat: timedim.CatTimeOfDay, T: fo.V("t"), V: fo.CStr(timedim.Morning)},
			&fo.Fact{Table: "FM", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
			&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pg")},
			&fo.Alpha{Attr: "neighb", A: fo.V("nb"), G: fo.V("pg")},
			&fo.AttrCmp{Concept: "neighb", M: fo.V("nb"), Attr: "income", Op: fo.LT, Rhs: fo.CReal(1500)},
		))
		t0 := time.Now()
		rel, err := eng.RegionC(qctx(), f, []fo.Var{"o", "t"})
		if err != nil {
			return Report{ID: "P5", Title: "FO region-C scaling", Body: err.Error()}
		}
		dt := time.Since(t0)
		rows = append(rows, Row{
			Label: fmt.Sprintf("%d samples", fm.Len()),
			Values: []string{
				fmt.Sprintf("%d", rel.Len()),
				fmtDur(dt),
				fmtDur(time.Duration(int64(dt) / int64(maxInt(1, fm.Len())))),
			},
		})
	}
	body := Table([]string{"MOFT size", "|C|", "total", "per tuple"}, rows)
	body += "  expectation: near-linear in MOFT size (one index-backed point location per tuple)\n"
	return Report{ID: "P5", Title: "first-order region-C evaluation scaling", Body: body, Pass: true}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// P8 measures the cost of the observability layer on the Remark-1
// motivating query: the default production state (atomic counters
// only, no tracer attached) against a per-query span tracer. The
// acceptance target is that the disabled state adds no measurable
// allocations and enabling spans stays in the low single-digit
// percent range for realistic queries.
func P8(iters int) Report {
	if iters <= 0 {
		iters = 500
	}
	s := scenario.New()
	run := func(traced bool) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if traced {
				tr := obs.NewTracer("remark1")
				_, err := s.MotivatingResult(obs.WithTracer(qctx(), tr))
				tr.Finish()
				if err != nil {
					return 0, err
				}
			} else if _, err := s.MotivatingResult(qctx()); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	// Warm the trajectory cache outside the measured loops.
	if _, err := run(false); err != nil {
		return Report{ID: "P8", Title: "observability overhead", Body: err.Error()}
	}
	off, err := run(false)
	if err == nil {
		var on time.Duration
		on, err = run(true)
		if err == nil {
			overhead := 100 * (float64(on) - float64(off)) / math.Max(1, float64(off))
			rows := []Row{
				{Label: "tracing off", Values: []string{fmtDur(off / time.Duration(iters))}},
				{Label: "tracing on", Values: []string{fmtDur(on / time.Duration(iters))}},
				{Label: "overhead", Values: []string{fmt.Sprintf("%+.1f%%", overhead)}},
			}
			body := Table([]string{"mode", "per query"}, rows)
			body += "  expectation: disabled tracing is free (nil-tracer no-ops); enabled spans cost a few microseconds per query\n"
			return Report{ID: "P8", Title: "observability overhead on the Remark-1 query", Body: body, Pass: true}
		}
	}
	return Report{ID: "P8", Title: "observability overhead", Body: err.Error()}
}

// registry lists every experiment in run order with its default and
// -full sizes.
var registry = []struct {
	id  string
	run func(full bool) Report
}{
	{"E1", fixed(E1)}, {"E2", fixed(E2)}, {"E3", fixed(E3)},
	{"E4", fixed(E4)}, {"E5", fixed(E5)}, {"E6", fixed(E6)},
	{"P1", sized(func() Report { return P1(nil, 0) }, func() Report { return P1([]int{4, 8, 16, 32}, 200) })},
	{"P2", fixed(P2)},
	{"P3", sized(func() Report { return P3(nil) }, func() Report { return P3([]int{100, 400, 1600, 6400}) })},
	{"P5", sized(func() Report { return P5(nil) }, func() Report { return P5([]int{1000, 4000, 16000, 64000}) })},
	{"P7", sized(func() Report { return P7(nil) }, func() Report { return P7([]int{100, 400, 1600}) })},
	{"P8", sized(func() Report { return P8(0) }, func() Report { return P8(2000) })},
	{"P10", sized(func() Report { return P10(0) }, func() Report { return P10(4000) })},
	{"P11", sized(func() Report { return P11(0) }, func() Report { return P11(2000) })},
	{"P13", sized(func() Report { return P13(0) }, func() Report { return P13(4000) })},
	{"A1", fixed(A1)},
}

// fixed registers an experiment that has one size.
func fixed(f func() Report) func(bool) Report {
	return func(bool) Report { return f() }
}

// sized registers a performance study with a default and a -full size.
func sized(quick, full func() Report) func(bool) Report {
	return func(f bool) Report {
		if f {
			return full()
		}
		return quick()
	}
}

// Run runs one experiment by identifier (case-insensitive) at its
// default or -full size; false means the id is unknown.
func Run(id string, full bool) (Report, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range registry {
		if e.id == id {
			return e.run(full), true
		}
	}
	return Report{}, false
}

// IDs lists the experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

package mogis

// The paper's worked example as tests: Table 1, the Figure-1 facts,
// the Figure-2 schema, Remark 1's 4/3, the Section-4 example queries
// and the Section-5 Piet-QL query, each on the scenario of
// internal/scenario (EXPERIMENTS.md E1–E6).

import (
	"context"
	"math"
	"testing"

	"mogis/internal/fo"
	"mogis/internal/gis"
	"mogis/internal/layer"
	"mogis/internal/mdx"
	"mogis/internal/moft"
	"mogis/internal/olap"
	"mogis/internal/overlay"
	"mogis/internal/pietql"
	"mogis/internal/scenario"
	"mogis/internal/timedim"
)

// TestTable1 (E1): the MOFT FMbus holds Table 1's 12 rows over 6
// objects.
func TestTable1(t *testing.T) {
	s := scenario.New()
	if n, objs := s.FMbus.Len(), len(s.FMbus.Objects()); n != 12 || objs != 6 {
		t.Errorf("FMbus has %d rows over %d objects, want 12 over 6:\n%s", n, objs, s.FMbus)
	}
}

// TestFigure1Facts (E2): the object behaviours Figure 1 states.
func TestFigure1Facts(t *testing.T) {
	s := scenario.New()
	low := s.LowIncomeRegion()
	lits, err := s.Engine.Trajectories(context.Background(), "FMbus")
	if err != nil {
		t.Fatal(err)
	}

	for _, tp := range s.FMbus.ObjectTuples(1) {
		if !low(tp.Point()) {
			t.Errorf("O1 leaves the low-income region at %+v", tp)
		}
	}

	if o2 := s.FMbus.ObjectTuples(2); low(o2[0].Point()) || !low(o2[1].Point()) || low(o2[2].Point()) {
		t.Error("O2 does not start high-income, enter low-income and get out again")
	}

	for _, oid := range []moft.Oid{3, 4, 5} {
		for _, tp := range s.FMbus.ObjectTuples(oid) {
			if low(tp.Point()) {
				t.Errorf("O%d is sampled in a low-income neighborhood at %+v", oid, tp)
			}
		}
	}

	for _, tp := range s.FMbus.ObjectTuples(6) {
		if low(tp.Point()) {
			t.Errorf("O6 is sampled inside a low-income region at %+v", tp)
		}
	}
	passes := false
	for _, pg := range s.LowIncomePolygons() {
		passes = passes || lits[6].PassesThroughPolygon(pg)
	}
	if !passes {
		t.Error("O6 does not pass through a low-income region")
	}
}

// TestFigure2Schema (E3): every hierarchy of the Figure-2 GIS
// dimension satisfies Definition 1.
func TestFigure2Schema(t *testing.T) {
	s := scenario.New()
	if err := s.GIS.Validate(); err != nil {
		t.Errorf("Validate: %v\n%s", err, s.GIS.Schema().Describe())
	}
}

// TestRemark1 (E4): the motivating query's region C holds 4 (Oid, t)
// pairs, so the buses per hour in low-income neighborhoods on
// Monday morning are 4/3.
func TestRemark1(t *testing.T) {
	s := scenario.New()
	ctx := context.Background()
	rel, err := s.Engine.RegionC(ctx, s.MotivatingFormula(), []fo.Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Errorf("|C| = %d, want 4:\n%s", rel.Len(), rel)
	}
	rate, err := s.MotivatingResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-4.0/3) >= 1e-12 {
		t.Errorf("buses per hour = %v, want 4/3", rate)
	}
}

// TestSection4Queries (E5) runs the Section-4 example queries, adapted
// to the running example's city.
func TestSection4Queries(t *testing.T) {
	s := scenario.New()
	ctx := context.Background()

	// Q0 (Type 1, Section 3.1): total population of the neighborhoods
	// the river crosses. It borders all five.
	riverPl, _ := s.Lr.Polyline(1)
	gft := gis.NewFactTable(gis.FactSchema{Kind: layer.KindPolygon, LayerName: "Ln", Measures: []string{"population"}})
	for _, m := range s.Neighborhoods.Members("neighborhood") {
		v, _ := s.Neighborhoods.Attr("neighborhood", m, "population")
		pop, _ := v.Num()
		_, id, _ := s.Ln.Alpha("neighb", string(m))
		gft.MustSet(id, pop)
	}
	var crossedPop float64
	for _, id := range s.Ln.IDs(layer.KindPolygon) {
		pg, _ := s.Ln.Polygon(id)
		if pg.IntersectsPolyline(riverPl) {
			v, _ := gft.Measure(id, "population")
			crossedPop += v
		}
	}
	if want := 60000.0 + 45000 + 30000 + 25000 + 40000; crossedPop != want {
		t.Errorf("Q0 population crossed by the river = %v, want %v", crossedPop, want)
	}

	// Q1 (Type 4): cars in the region "South" on Monday morning.
	south := []layer.Gid{scenario.PgMeir, scenario.PgDam, scenario.PgZuid}
	q1 := fo.Exists([]fo.Var{"x", "y", "pg"}, fo.And(
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.TimeRollup{Cat: timedim.CatTimeOfDay, T: fo.V("t"), V: fo.CStr(timedim.Morning)},
		&fo.TimeRollup{Cat: timedim.CatDayOfWeek, T: fo.V("t"), V: fo.CStr("Monday")},
		&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pg")},
		&fo.GeomIn{G: fo.V("pg"), IDs: south},
	))
	if n, err := s.Engine.CountRegion(ctx, q1, []fo.Var{"o"}); err != nil {
		t.Errorf("Q1: %v", err)
	} else if n != 3 { // O1, O2, O6
		t.Errorf("Q1 cars in the South on Monday morning = %d, want 3", n)
	}

	// Q2 (Type 4): the street of maximal car density (count / length)
	// on Monday. The only on-street samples are O1 at (8,8) and O2 at
	// (25,8).
	q2 := fo.Exists([]fo.Var{"x", "y", "pl"}, fo.And(
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.TimeRollup{Cat: timedim.CatDayOfWeek, T: fo.V("t"), V: fo.CStr("Monday")},
		&fo.PointIn{Layer: "Lh", Kind: layer.KindPolyline, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pl")},
		&fo.Alpha{Attr: "street", A: fo.V("s"), G: fo.V("pl")},
	))
	if rel, err := s.Engine.RegionC(ctx, q2, []fo.Var{"o", "t", "s"}); err != nil {
		t.Errorf("Q2: %v", err)
	} else if res, err := rel.GroupAggregate(olap.Count, "", []fo.Var{"s"}); err != nil {
		t.Errorf("Q2: %v", err)
	} else {
		best, bestD := "", 0.0
		for _, row := range res.Rows {
			_, plID, _ := s.Lh.Alpha("street", string(row.Group[0]))
			pl, _ := s.Lh.Polyline(plID)
			if d := row.Value / pl.Length(); d > bestD {
				best, bestD = string(row.Group[0]), d
			}
		}
		if rel.Len() != 2 || best != "Meirstraat" {
			t.Errorf("Q2 = %d street samples, densest %q; want 2, Meirstraat", rel.Len(), best)
		}
	}

	// Q3 (Type 4 with negation): objects sampled in a neighborhood of
	// population >= 35000 and never in a less populous one. Like Q6 and
	// Q7 it must evaluate; its answer (O1, O3, O4, O5) is not a paper
	// figure.
	populous := func(o, tm, x, y, pg, n fo.Var, op fo.CmpOp) fo.Formula {
		return fo.Exists([]fo.Var{tm, x, y, pg, n}, fo.And(
			&fo.Fact{Table: "FMbus", O: fo.V(o), T: fo.V(tm), X: fo.V(x), Y: fo.V(y)},
			&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V(x), Y: fo.V(y), G: fo.V(pg)},
			&fo.Alpha{Attr: "neighb", A: fo.V(n), G: fo.V(pg)},
			&fo.AttrCmp{Concept: "neighb", M: fo.V(n), Attr: "population", Op: op, Rhs: fo.CReal(35000)},
		))
	}
	q3 := fo.And(populous("o", "t", "x", "y", "pg", "n", fo.GE),
		fo.Not(populous("o", "t1", "x1", "y1", "pg1", "n1", fo.LT)))
	if _, err := s.Engine.RegionC(ctx, q3, []fo.Var{"o"}); err != nil {
		t.Errorf("Q3: %v", err)
	}

	// Q4 (Type 6): cars in Berchem at 13:00, T(5). Only O3.
	berchem, _ := s.Ln.Polygon(scenario.PgBerchem)
	if objs, err := s.Engine.ObjectsSampledAt(ctx, "FMbus", scenario.T(5), berchem); err != nil {
		t.Errorf("Q4: %v", err)
	} else if len(objs) != 1 {
		t.Errorf("Q4 cars in Berchem at 13:00 = %v, want one", objs)
	}

	// Q5 (Type 7): time spent continuously in the city's south,
	// interpolated. O2 and O6 at least.
	window := timedim.Interval{Lo: scenario.T(1), Hi: scenario.T(6)}
	zuid, _ := s.Ln.Polygon(scenario.PgZuid)
	if spent, err := s.Engine.TimeSpentInside(ctx, "FMbus", zuid, window); err != nil {
		t.Errorf("Q5: %v", err)
	} else if len(spent) < 2 {
		t.Errorf("Q5 objects with time in Zuid = %v, want at least 2", spent)
	}

	// Q6 (Type 7): cars within 5 units of a school, interpolated and
	// sample-only.
	school, _ := s.Ls.Node(1)
	if _, err := s.Engine.ObjectsEverWithinRadius(ctx, "FMbus", school, 5, window); err != nil {
		t.Errorf("Q6 interpolated: %v", err)
	}
	q6 := fo.Exists([]fo.Var{"x", "y", "sx", "sy", "sc"}, fo.And(
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.Alpha{Attr: "school", A: fo.CStr("MeirSchool"), G: fo.V("sc")},
		&fo.PointIn{Layer: "Ls", Kind: layer.KindNode, X: fo.V("sx"), Y: fo.V("sy"), G: fo.V("sc")},
		&fo.DistLE{X1: fo.V("x"), Y1: fo.V("y"), X2: fo.V("sx"), Y2: fo.V("sy"), R: 5},
	))
	if _, err := s.Engine.RegionC(ctx, q6, []fo.Var{"o"}); err != nil {
		t.Errorf("Q6 sample-only: %v", err)
	}

	// Q7 (Type 4): persons within 4 units of the store "DamStore" per
	// morning hour.
	q7 := fo.Exists([]fo.Var{"x", "y", "bx", "by", "bs"}, fo.And(
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.TimeRollup{Cat: timedim.CatTimeOfDay, T: fo.V("t"), V: fo.CStr(timedim.Morning)},
		&fo.Alpha{Attr: "store", A: fo.CStr("DamStore"), G: fo.V("bs")},
		&fo.PointIn{Layer: "Lstores", Kind: layer.KindNode, X: fo.V("bx"), Y: fo.V("by"), G: fo.V("bs")},
		&fo.DistLE{X1: fo.V("x"), Y1: fo.V("y"), X2: fo.V("bx"), Y2: fo.V("by"), R: 4},
		&fo.TimeRollup{Cat: timedim.CatHour, T: fo.V("t"), V: fo.V("h")},
	))
	if _, err := s.Engine.AggregateRegion(ctx, q7, []fo.Var{"o", "t", "h"}, olap.Count, "", []fo.Var{"h"}); err != nil {
		t.Errorf("Q7: %v", err)
	}
}

// TestSection5PietQL (E6): the Section-5 query — neighborhoods crossed
// by the river that contain a store, and the cars passing through
// them — run end to end over a precomputed overlay.
func TestSection5PietQL(t *testing.T) {
	s := scenario.New()
	ctx := context.Background()
	ov, err := overlay.Precompute(ctx, map[string]*layer.Layer{
		"Ln": s.Ln, "Lr": s.Lr, "Ls": s.Ls, "Lstores": s.Lstores, "Lh": s.Lh,
	}, []overlay.Pair{
		{A: overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}, B: overlay.Ref{Layer: "Lr", Kind: layer.KindPolyline}},
		{A: overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}, B: overlay.Ref{Layer: "Lstores", Kind: layer.KindNode}},
	})
	if err != nil {
		t.Fatal(err)
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
		Ctx: s.Ctx, Engine: s.Engine, Overlay: ov, SchemaName: "PietSchema",
		Kinds: map[string]layer.Kind{
			"Ln": layer.KindPolygon, "Lr": layer.KindPolyline,
			"Ls": layer.KindNode, "Lstores": layer.KindNode, "Lh": layer.KindPolyline,
		},
		Cubes: mdx.Catalog{"CityCube": &mdx.Cube{Name: "CityCube", Fact: ft}},
	}
	out, err := sys.Run(ctx, `
SELECT layer.Lr, layer.Ln, layer.Lstores;
FROM PietSchema;
WHERE intersection(layer.Lr, layer.Ln, subplevel.Linestring)
AND (layer.Ln)
CONTAINS (layer.Ln, layer.Lstores, subplevel.Point);
| SELECT {[Measures].[population]} ON COLUMNS, {[place].[neighborhood].Members} ON ROWS FROM [CityCube]
| MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.HasMO || out.MOCount != 5 || len(out.GeoIDs["Ln"]) != 2 {
		t.Errorf("MO count %d (HasMO %v) over Ln %v; want 5 over two neighborhoods:\n%s",
			out.MOCount, out.HasMO, out.GeoIDs["Ln"], pietql.FormatOutcome(out))
	}
}

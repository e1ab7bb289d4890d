// Package scenario materializes the paper's running example: the
// Antwerp-style city of Figure 1 (five neighborhoods, two of them
// low-income, a river splitting the city, schools and stores), the
// GIS dimension schema of Figure 2, and the moving-object fact table
// FMbus of Table 1 with the six buses O1..O6 whose behaviour the
// paper describes:
//
//   - O1 remains always within a low-income region,
//   - O2 starts in a high-income region, enters a low-income
//     neighborhood, and gets out of it again,
//   - O3, O4 and O5 are always in high-income neighborhoods,
//   - O6 passes through a low-income region but was not sampled
//     inside it.
//
// Sample index k of Table 1 maps to Monday 2006-01-09 at hour 8+k, so
// the morning instants are exactly k ∈ {1, 2, 3} and the motivating
// query of Section 1.2 evaluates to 4/3 as in Remark 1.
package scenario

import (
	"context"

	"mogis/internal/core"
	"mogis/internal/fo"
	"mogis/internal/geom"
	"mogis/internal/gis"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/olap"
	"mogis/internal/timedim"
)

// Neighborhood ids in layer Ln.
const (
	PgMeir        layer.Gid = 1 // low income (1200)
	PgDam         layer.Gid = 2 // low income (1400)
	PgZuid        layer.Gid = 3 // high income (2500)
	PgLinkeroever layer.Gid = 4 // high income (1800)
	PgBerchem     layer.Gid = 5 // high income (2200)
)

// LowIncomeThreshold is the euro threshold of the motivating query.
const LowIncomeThreshold = 1500

// Scenario is the fully built running example.
type Scenario struct {
	GIS    *gis.Dimension
	Ctx    *fo.Context
	Engine *core.Engine

	FMbus *moft.Table

	Neighborhoods *olap.Dimension

	// Layer handles.
	Ln      *layer.Layer // neighborhoods (polygons)
	Lr      *layer.Layer // river (polyline)
	Ls      *layer.Layer // schools (nodes)
	Lstores *layer.Layer // stores (nodes)
	Lh      *layer.Layer // highways/streets (polylines)
	Lbox    *layer.Layer // bounding box (polygon)
}

// T maps the abstract sample index k of Table 1 (1..6) to a concrete
// instant: Monday 2006-01-09 at hour 8+k.
func T(k int) timedim.Instant { return timedim.At(2006, 1, 9, 8+k, 0) }

// MorningHours is the number of morning hours covered by Table 1
// (k = 1, 2, 3 → 09:00, 10:00, 11:00); Remark 1 divides by this span.
const MorningHours = 3

func rect(x0, y0, x1, y1 float64) geom.Polygon {
	return geom.Polygon{Shell: geom.Ring{
		geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1),
	}}
}

// New builds the running example.
func New() *Scenario {
	s := &Scenario{}

	// --- Figure 2: the GIS dimension schema -------------------------
	hn := gis.NewHierarchy("Ln").
		AddEdge(layer.KindPoint, layer.KindPolygon).
		AddEdge(layer.KindPolygon, layer.KindAll)
	hr := gis.NewHierarchy("Lr").
		AddEdge(layer.KindPoint, layer.KindLine).
		AddEdge(layer.KindLine, layer.KindPolyline).
		AddEdge(layer.KindPolyline, layer.KindAll)
	hs := gis.NewHierarchy("Ls").
		AddEdge(layer.KindPoint, layer.KindNode).
		AddEdge(layer.KindNode, layer.KindAll)
	hstores := gis.NewHierarchy("Lstores").
		AddEdge(layer.KindPoint, layer.KindNode).
		AddEdge(layer.KindNode, layer.KindAll)
	hh := gis.NewHierarchy("Lh").
		AddEdge(layer.KindPoint, layer.KindLine).
		AddEdge(layer.KindLine, layer.KindPolyline).
		AddEdge(layer.KindPolyline, layer.KindAll)
	hbox := gis.NewHierarchy("Lbox").
		AddEdge(layer.KindPoint, layer.KindPolygon).
		AddEdge(layer.KindPolygon, layer.KindAll)

	appSchema := olap.NewSchema("Neighbourhoods").AddEdge("neighborhood", "city")
	riverSchema := olap.NewSchema("Rivers").AddEdge("river", "basin")

	schema := gis.NewSchema().
		AddHierarchy(hn).AddHierarchy(hr).AddHierarchy(hs).
		AddHierarchy(hstores).AddHierarchy(hh).AddHierarchy(hbox).
		BindAttr("neighb", layer.KindPolygon, "Ln").
		BindAttr("river", layer.KindPolyline, "Lr").
		BindAttr("school", layer.KindNode, "Ls").
		BindAttr("store", layer.KindNode, "Lstores").
		BindAttr("street", layer.KindPolyline, "Lh").
		AddAppSchema(appSchema).AddAppSchema(riverSchema)

	// --- Figure 1: the city ------------------------------------------
	// City box [0,40]×[0,30]; the river runs along y=15 and divides
	// north from south. South: Meir, Dam (low income) and Zuid; north:
	// Linkeroever and Berchem.
	s.Ln = layer.New("Ln")
	s.Ln.AddPolygon(PgMeir, rect(0, 0, 10, 15))
	s.Ln.AddPolygon(PgDam, rect(10, 0, 20, 15))
	s.Ln.AddPolygon(PgZuid, rect(20, 0, 40, 15))
	s.Ln.AddPolygon(PgLinkeroever, rect(0, 15, 20, 30))
	s.Ln.AddPolygon(PgBerchem, rect(20, 15, 40, 30))
	s.Ln.SetAlpha("neighb", layer.KindPolygon, "Meir", PgMeir)
	s.Ln.SetAlpha("neighb", layer.KindPolygon, "Dam", PgDam)
	s.Ln.SetAlpha("neighb", layer.KindPolygon, "Zuid", PgZuid)
	s.Ln.SetAlpha("neighb", layer.KindPolygon, "Linkeroever", PgLinkeroever)
	s.Ln.SetAlpha("neighb", layer.KindPolygon, "Berchem", PgBerchem)

	s.Lr = layer.New("Lr")
	s.Lr.AddPolyline(1, geom.Polyline{geom.Pt(0, 15), geom.Pt(40, 15)})
	s.Lr.SetAlpha("river", layer.KindPolyline, "Scheldt", 1)

	s.Ls = layer.New("Ls")
	s.Ls.AddNode(1, geom.Pt(5, 10))  // school in Meir
	s.Ls.AddNode(2, geom.Pt(30, 25)) // school in Berchem
	s.Ls.SetAlpha("school", layer.KindNode, "MeirSchool", 1)
	s.Ls.SetAlpha("school", layer.KindNode, "BerchemSchool", 2)

	s.Lstores = layer.New("Lstores")
	s.Lstores.AddNode(1, geom.Pt(15, 5))  // store in Dam
	s.Lstores.AddNode(2, geom.Pt(25, 20)) // store in Berchem
	s.Lstores.SetAlpha("store", layer.KindNode, "DamStore", 1)
	s.Lstores.SetAlpha("store", layer.KindNode, "BerchemStore", 2)

	s.Lh = layer.New("Lh")
	s.Lh.AddPolyline(1, geom.Polyline{geom.Pt(0, 8), geom.Pt(40, 8)})   // east-west street
	s.Lh.AddPolyline(2, geom.Polyline{geom.Pt(22, 0), geom.Pt(22, 30)}) // north-south street
	s.Lh.SetAlpha("street", layer.KindPolyline, "Meirstraat", 1)
	s.Lh.SetAlpha("street", layer.KindPolyline, "Leien", 2)

	s.Lbox = layer.New("Lbox")
	s.Lbox.AddPolygon(1, rect(0, 0, 40, 30))

	// --- Application part --------------------------------------------
	s.Neighborhoods = olap.NewDimension(appSchema)
	for _, nb := range []struct {
		name   olap.Member
		income float64
		pop    float64
	}{
		{"Meir", 1200, 60000},
		{"Dam", 1400, 45000},
		{"Zuid", 2500, 30000},
		{"Linkeroever", 1800, 25000},
		{"Berchem", 2200, 40000},
	} {
		s.Neighborhoods.SetRollup("neighborhood", nb.name, "city", "Antwerp")
		s.Neighborhoods.SetAttr("neighborhood", nb.name, "income", olap.Num(nb.income))
		s.Neighborhoods.SetAttr("neighborhood", nb.name, "population", olap.Num(nb.pop))
	}

	riverDim := olap.NewDimension(riverSchema)
	riverDim.SetRollup("river", "Scheldt", "basin", "Scheldt Basin")

	d := gis.NewDimension(schema)
	d.MustAddLayer(s.Ln)
	d.MustAddLayer(s.Lr)
	d.MustAddLayer(s.Ls)
	d.MustAddLayer(s.Lstores)
	d.MustAddLayer(s.Lh)
	d.MustAddLayer(s.Lbox)
	d.MustAddAppDimension(s.Neighborhoods)
	d.MustAddAppDimension(riverDim)
	s.GIS = d

	// --- Table 1: FMbus ----------------------------------------------
	// Positions realize the six Figure-1 behaviours.
	s.FMbus = moft.New("FMbus")
	// O1: always in Meir (low income).
	s.FMbus.Add(1, T(1), 2, 2)
	s.FMbus.Add(1, T(2), 4, 4)
	s.FMbus.Add(1, T(3), 6, 6)
	s.FMbus.Add(1, T(4), 8, 8)
	// O2: Zuid (high) → Dam (low) → Zuid (high).
	s.FMbus.Add(2, T(2), 25, 5)
	s.FMbus.Add(2, T(3), 15, 5)
	s.FMbus.Add(2, T(4), 25, 8)
	// O3, O4, O5: always high income.
	s.FMbus.Add(3, T(5), 25, 25) // Berchem
	s.FMbus.Add(4, T(6), 35, 20) // Berchem
	s.FMbus.Add(5, T(3), 30, 20) // Berchem
	// O6: Linkeroever (high) → Zuid (high), crossing Meir and Dam
	// (low) in between without a sample there.
	s.FMbus.Add(6, T(2), 5, 17)
	s.FMbus.Add(6, T(3), 25, 5)

	ctx := fo.NewContext(d)
	ctx.AddTable(s.FMbus)
	ctx.BindConcept("neighb", s.Neighborhoods, "neighborhood")
	s.Ctx = ctx
	s.Engine = core.New(ctx)
	return s
}

// MotivatingFormula is the paper's Section 3.1 region C for "number
// of buses per hour in the morning in the Antwerp neighborhoods with
// a monthly income of less than 1500 euro":
//
//	C = {(Oid,t) | ∃x ∃y ∃pg ∃n. n ∈ neighb ∧
//	     R^timeOfDay_timeId(t) = "Morning" ∧ FMbus(Oid,t,x,y) ∧
//	     r^{Pt,Pg}_Ln(x,y,pg) ∧ α^{neighb,Pg}_Ln(n) = pg ∧
//	     n.income < 1500}
func (s *Scenario) MotivatingFormula() fo.Formula {
	return fo.Exists([]fo.Var{"x", "y", "pg", "n"}, fo.And(
		&fo.MemberOf{Concept: "neighb", M: fo.V("n")},
		&fo.TimeRollup{Cat: timedim.CatTimeOfDay, T: fo.V("t"), V: fo.CStr(timedim.Morning)},
		&fo.Fact{Table: "FMbus", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
		&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pg")},
		&fo.Alpha{Attr: "neighb", A: fo.V("n"), G: fo.V("pg")},
		&fo.AttrCmp{Concept: "neighb", M: fo.V("n"), Attr: "income", Op: fo.LT, Rhs: fo.CReal(LowIncomeThreshold)},
	))
}

// MotivatingResult evaluates the motivating query end to end under
// ctx: |C| divided by the morning time span. Remark 1: 4/3.
func (s *Scenario) MotivatingResult(ctx context.Context) (float64, error) {
	n, err := s.Engine.CountRegion(ctx, s.MotivatingFormula(), []fo.Var{"o", "t"})
	if err != nil {
		return 0, err
	}
	return core.RatePerHour(n, MorningHours), nil
}

// LowIncomePolygons returns the neighborhood polygons with income
// below the threshold (the shaded regions of Figure 1).
func (s *Scenario) LowIncomePolygons() []geom.Polygon {
	var out []geom.Polygon
	for _, m := range s.Neighborhoods.Members("neighborhood") {
		v, ok := s.Neighborhoods.Attr("neighborhood", m, "income")
		if !ok {
			continue
		}
		if inc, _ := v.Num(); inc < LowIncomeThreshold {
			_, id, _ := s.Ln.Alpha("neighb", string(m))
			if pg, ok := s.Ln.Polygon(id); ok {
				out = append(out, pg)
			}
		}
	}
	return out
}

// LowIncomeRegion returns the union of low-income polygons as a
// single region test.
func (s *Scenario) LowIncomeRegion() func(geom.Point) bool {
	pgs := s.LowIncomePolygons()
	return func(p geom.Point) bool {
		for _, pg := range pgs {
			if pg.ContainsPoint(p) {
				return true
			}
		}
		return false
	}
}

package fo

import (
	"context"
	"errors"
	"testing"

	"mogis/internal/geom"
	"mogis/internal/gis"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/olap"
	"mogis/internal/timedim"
)

// testContext builds a miniature version of the paper's running
// example: layer Ln with two neighborhoods (polygons), one low-income
// and one high-income, a school layer Ls with one node, an
// application dimension with income attributes, and a bus MOFT.
func testContext(t *testing.T) *Context {
	t.Helper()

	hn := gis.NewHierarchy("Ln").
		AddEdge(layer.KindPoint, layer.KindPolygon).
		AddEdge(layer.KindPolygon, layer.KindAll)
	hs := gis.NewHierarchy("Ls").
		AddEdge(layer.KindPoint, layer.KindNode).
		AddEdge(layer.KindNode, layer.KindAll)
	schema := gis.NewSchema().
		AddHierarchy(hn).AddHierarchy(hs).
		BindAttr("neighb", layer.KindPolygon, "Ln").
		BindAttr("school", layer.KindNode, "Ls").
		AddAppSchema(olap.NewSchema("Neighbourhoods").AddEdge("neighborhood", "city"))

	ln := layer.New("Ln")
	// Poor: [0,10]², Rich: [10,20]×[0,10].
	ln.AddPolygon(1, geom.Polygon{Shell: geom.Ring{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}})
	ln.AddPolygon(2, geom.Polygon{Shell: geom.Ring{geom.Pt(10, 0), geom.Pt(20, 0), geom.Pt(20, 10), geom.Pt(10, 10)}})
	ln.SetAlpha("neighb", layer.KindPolygon, "Poor", 1)
	ln.SetAlpha("neighb", layer.KindPolygon, "Rich", 2)

	ls := layer.New("Ls")
	ls.AddNode(7, geom.Pt(5, 5))
	ls.SetAlpha("school", layer.KindNode, "Central", 7)

	appDim := olap.NewDimension(olap.NewSchema("Neighbourhoods").AddEdge("neighborhood", "city"))
	appDim.SetRollup("neighborhood", "Poor", "city", "Antwerp")
	appDim.SetRollup("neighborhood", "Rich", "city", "Antwerp")
	appDim.SetAttr("neighborhood", "Poor", "income", olap.Num(1200))
	appDim.SetAttr("neighborhood", "Rich", "income", olap.Num(2400))

	d := gis.NewDimension(schema)
	d.MustAddLayer(ln)
	d.MustAddLayer(ls)
	d.MustAddAppDimension(appDim)

	fm := moft.New("FM")
	morning := timedim.At(2006, 1, 9, 9, 0) // Monday 09:00
	// O1 sampled twice in Poor, once in Rich; O2 once in Rich; O3 at
	// night in Poor.
	fm.Add(1, morning, 2, 2)
	fm.Add(1, morning+3600, 4, 4)
	fm.Add(1, morning+7200, 15, 5)
	fm.Add(2, morning, 12, 3)
	fm.Add(3, timedim.At(2006, 1, 9, 23, 0), 3, 3)

	ctx := NewContext(d)
	ctx.AddTable(fm)
	ctx.BindConcept("neighb", appDim, "neighborhood")
	return ctx
}

// motivating is the paper's Section 3.1 region C:
// {(Oid,t) | ∃x∃y∃pg∃n. n∈neighb ∧ R^timeOfDay(t)=Morning ∧
// FM(Oid,t,x,y) ∧ r^{Pt,Pg}_Ln(x,y,pg) ∧ α^{neighb}(n)=pg ∧
// n.income<1500}.
func motivating() Formula {
	return Exists([]Var{"x", "y", "pg", "n"}, And(
		&MemberOf{Concept: "neighb", M: V("n")},
		&TimeRollup{Cat: timedim.CatTimeOfDay, T: V("t"), V: CStr(timedim.Morning)},
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: V("x"), Y: V("y"), G: V("pg")},
		&Alpha{Attr: "neighb", A: V("n"), G: V("pg")},
		&AttrCmp{Concept: "neighb", M: V("n"), Attr: "income", Op: LT, Rhs: CReal(1500)},
	))
}

func TestMotivatingQueryRegionC(t *testing.T) {
	ctx := testContext(t)
	rel, err := Eval(context.Background(), ctx, motivating(), []Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	// O1 is in Poor at 9:00 and 10:00 (morning); its 11:00 sample is
	// in Rich. O2 is in Rich. O3 is in Poor but at night.
	if rel.Len() != 2 {
		t.Fatalf("C = %v", rel)
	}
	for _, tup := range rel.Tuples {
		if tup[0].Obj() != 1 {
			t.Errorf("unexpected object %v", tup[0])
		}
	}
}

func TestFreeVars(t *testing.T) {
	f := motivating()
	got := FreeVars(f)
	if len(got) != 2 || got[0] != "o" || got[1] != "t" {
		t.Errorf("FreeVars = %v", got)
	}
}

func TestEvalOutputNotRestricted(t *testing.T) {
	ctx := testContext(t)
	_, err := Eval(context.Background(), ctx, motivating(), []Var{"o", "zzz"})
	var rr *ErrNotRangeRestricted
	if !errors.As(err, &rr) {
		t.Errorf("err = %v", err)
	}
}

func TestFactSelectionPushdown(t *testing.T) {
	ctx := testContext(t)
	f := &Fact{Table: "FM", O: CObj(1), T: V("t"), X: V("x"), Y: V("y")}
	rel, err := Eval(context.Background(), ctx, f, []Var{"t"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("O1 samples = %d", rel.Len())
	}
}

func TestFactUnknownTable(t *testing.T) {
	ctx := testContext(t)
	f := &Fact{Table: "nope", O: V("o"), T: V("t"), X: V("x"), Y: V("y")}
	if _, err := Eval(context.Background(), ctx, f, []Var{"o"}); err == nil {
		t.Error("expected unknown-table error")
	}
}

func TestPointInDirections(t *testing.T) {
	ctx := testContext(t)
	// Forward: bound point generates polygon id.
	f := And(
		&Fact{Table: "FM", O: CObj(2), T: V("t"), X: V("x"), Y: V("y")},
		&PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: V("x"), Y: V("y"), G: V("pg")},
	)
	rel, err := Eval(context.Background(), ctx, f, []Var{"pg"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Geom() != 2 {
		t.Errorf("forward = %v", rel)
	}
	// Inverse for nodes: bound node id generates its coordinates.
	g := And(
		&Alpha{Attr: "school", A: CStr("Central"), G: V("sc")},
		&PointIn{Layer: "Ls", Kind: layer.KindNode, X: V("x"), Y: V("y"), G: V("sc")},
	)
	rel, err = Eval(context.Background(), ctx, g, []Var{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].F != 5 || rel.Tuples[0][1].F != 5 {
		t.Errorf("node inverse = %v", rel)
	}
	// Inverse for polygons is not range-restricted.
	h := And(
		&Alpha{Attr: "neighb", A: CStr("Poor"), G: V("pg")},
		&PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: V("x"), Y: V("y"), G: V("pg")},
	)
	if _, err := Eval(context.Background(), ctx, h, []Var{"x"}); err == nil {
		t.Error("expected range-restriction error for polygon inverse")
	}
}

func TestAlphaDirections(t *testing.T) {
	ctx := testContext(t)
	// Enumerate all pairs.
	rel, err := Eval(context.Background(), ctx, &Alpha{Attr: "neighb", A: V("n"), G: V("g")}, []Var{"n", "g"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("alpha enumeration = %v", rel)
	}
	// Inverse: geometry bound.
	rel, err = Eval(context.Background(), ctx, And(
		&GeomIn{G: V("g"), IDs: []layer.Gid{2}},
		&Alpha{Attr: "neighb", A: V("n"), G: V("g")},
	), []Var{"n"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("alpha inverse = %v", rel)
	}
	if s, _ := rel.Tuples[0][0].Str(); s != "Rich" {
		t.Errorf("alpha inverse = %v", rel)
	}
	// Unknown member yields empty, not error.
	rel, err = Eval(context.Background(), ctx, &Alpha{Attr: "neighb", A: CStr("Ghost"), G: V("g")}, []Var{"g"})
	if err != nil || rel.Len() != 0 {
		t.Errorf("unknown member = %v, %v", rel, err)
	}
	// Unknown attribute errors.
	if _, err := Eval(context.Background(), ctx, &Alpha{Attr: "nope", A: V("n"), G: V("g")}, []Var{"g"}); err == nil {
		t.Error("expected unknown-attribute error")
	}
}

func TestTimeRollupAtom(t *testing.T) {
	ctx := testContext(t)
	f := And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&TimeRollup{Cat: timedim.CatDayOfWeek, T: V("t"), V: V("d")},
	)
	rel, err := Eval(context.Background(), ctx, f, []Var{"d"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("days = %v", rel)
	}
	if s, _ := rel.Tuples[0][0].Str(); s != "Monday" {
		t.Errorf("day = %v", rel)
	}
	// Unknown category errors at evaluation.
	bad := And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&TimeRollup{Cat: "bogus", T: V("t"), V: V("v")},
	)
	if _, err := Eval(context.Background(), ctx, bad, []Var{"v"}); err == nil {
		t.Error("expected unknown-category error")
	}
}

func TestCmpAtom(t *testing.T) {
	ctx := testContext(t)
	nine := timedim.At(2006, 1, 9, 9, 30)
	f := And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&Cmp{L: V("t"), Op: LT, R: CTime(nine)},
	)
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	// Samples before 9:30: O1@9:00 and O2@9:00.
	if rel.Len() != 2 {
		t.Errorf("before 9:30 = %v", rel)
	}
	// String comparison.
	g := And(
		&MemberOf{Concept: "neighb", M: V("n")},
		&Cmp{L: V("n"), Op: EQ, R: CStr("Poor")},
	)
	rel, err = Eval(context.Background(), ctx, g, []Var{"n"})
	if err != nil || rel.Len() != 1 {
		t.Errorf("string EQ = %v, %v", rel, err)
	}
	// Incomparable values error.
	h := And(
		&MemberOf{Concept: "neighb", M: V("n")},
		&Cmp{L: V("n"), Op: LT, R: CReal(5)},
	)
	if _, err := Eval(context.Background(), ctx, h, []Var{"n"}); err == nil {
		t.Error("expected incomparable error")
	}
}

func TestCmpOps(t *testing.T) {
	cases := []struct {
		op   CmpOp
		cmp  int
		want bool
	}{
		{LT, -1, true}, {LT, 0, false},
		{LE, 0, true}, {LE, 1, false},
		{EQ, 0, true}, {EQ, 1, false},
		{NE, 1, true}, {NE, 0, false},
		{GE, 0, true}, {GE, -1, false},
		{GT, 1, true}, {GT, 0, false},
	}
	for _, c := range cases {
		if got := c.op.holds(c.cmp); got != c.want {
			t.Errorf("%s.holds(%d) = %v", c.op, c.cmp, got)
		}
	}
}

func TestDistLE(t *testing.T) {
	ctx := testContext(t)
	// Objects sampled within 5 of the school at (5,5).
	f := Exists([]Var{"x", "y", "sx", "sy", "sc"}, And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&Alpha{Attr: "school", A: CStr("Central"), G: V("sc")},
		&PointIn{Layer: "Ls", Kind: layer.KindNode, X: V("sx"), Y: V("sy"), G: V("sc")},
		&DistLE{X1: V("x"), Y1: V("y"), X2: V("sx"), Y2: V("sy"), R: 5},
	))
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	// Samples within 5 of (5,5): O1@(2,2) d=4.24, O1@(4,4) d=1.41,
	// O3@(3,3) d=2.83. Not O1@(15,5), O2@(12,3).
	if rel.Len() != 3 {
		t.Errorf("within radius = %v", rel)
	}
}

func TestNegation(t *testing.T) {
	ctx := testContext(t)
	// Objects never sampled in the Rich polygon (id 2): O3 only.
	f := And(
		Exists([]Var{"t", "x", "y"},
			&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")}),
		Not(Exists([]Var{"t1", "x1", "y1", "pg1"}, And(
			&Fact{Table: "FM", O: V("o"), T: V("t1"), X: V("x1"), Y: V("y1")},
			&PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: V("x1"), Y: V("y1"), G: V("pg1")},
			&Cmp{L: V("pg1"), Op: EQ, R: CGeom(2)},
		))),
	)
	rel, err := Eval(context.Background(), ctx, f, []Var{"o"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0][0].Obj() != 3 {
		t.Errorf("never-in-rich = %v", rel)
	}
}

func TestDisjunction(t *testing.T) {
	ctx := testContext(t)
	// Objects sampled in Poor OR sampled at night; O1 (poor), O3
	// (both).
	inPoly := func(pg layer.Gid) Formula {
		return Exists([]Var{"t", "x", "y", "g"}, And(
			&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
			&PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: V("x"), Y: V("y"), G: V("g")},
			&Cmp{L: V("g"), Op: EQ, R: CGeom(pg)},
		))
	}
	atNight := Exists([]Var{"t", "x", "y"}, And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&TimeRollup{Cat: timedim.CatTimeOfDay, T: V("t"), V: CStr(timedim.Night)},
	))
	rel, err := Eval(context.Background(), ctx, Or(inPoly(1), atNight), []Var{"o"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("disjunction = %v", rel)
	}
	// Incompatible disjuncts are rejected.
	badDisj := Or(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&MemberOf{Concept: "neighb", M: V("n")},
	)
	if _, err := Eval(context.Background(), ctx, badDisj, []Var{"o"}); err == nil {
		t.Error("expected incompatible-disjuncts error")
	}
}

func TestNotRangeRestrictedConjunction(t *testing.T) {
	ctx := testContext(t)
	// A bare comparison over unbound variables can never be scheduled.
	f := &Cmp{L: V("a"), Op: LT, R: V("b")}
	_, err := Eval(context.Background(), ctx, f, []Var{"a"})
	var rr *ErrNotRangeRestricted
	if !errors.As(err, &rr) {
		t.Errorf("err = %v", err)
	}
	if rr != nil && rr.Error() == "" {
		t.Error("empty error text")
	}
}

func TestGroupAggregate(t *testing.T) {
	ctx := testContext(t)
	// Count samples per object.
	f := &Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")}
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "t", "x"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rel.GroupAggregate(olap.Count, "", []Var{"o"})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Lookup("O1"); !ok || v != 3 {
		t.Errorf("count O1 = %v,%v", v, ok)
	}
	// Average x per object.
	res, err = rel.GroupAggregate(olap.Avg, "x", []Var{"o"})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Lookup("O1"); v != 7 { // (2+4+15)/3
		t.Errorf("avg x O1 = %v", v)
	}
	// Errors.
	if _, err := rel.GroupAggregate(olap.Sum, "", []Var{"o"}); err == nil {
		t.Error("SUM without measure should fail")
	}
	if _, err := rel.GroupAggregate(olap.Count, "", []Var{"zzz"}); err == nil {
		t.Error("unknown group column should fail")
	}
	if _, err := rel.GroupAggregate(olap.Sum, "zzz", []Var{"o"}); err == nil {
		t.Error("unknown measure column should fail")
	}
}

func TestRelationProjectAndString(t *testing.T) {
	ctx := testContext(t)
	rel, err := Eval(context.Background(), ctx, &Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")}, []Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := rel.Project("o")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 { // three distinct objects
		t.Errorf("Project = %v", p)
	}
	if _, err := rel.Project("zzz"); err == nil {
		t.Error("unknown column should fail")
	}
	if s := rel.String(); len(s) == 0 {
		t.Error("empty String")
	}
	if _, err := rel.Col("o"); err != nil {
		t.Error(err)
	}
}

func TestValHelpers(t *testing.T) {
	if VObj(3).String() != "O3" || VTime(9).String() != "t9" ||
		VReal(1.5).String() != "1.5" || VGeom(2).String() != "g2" || VStr("x").String() != "x" {
		t.Error("Val.String mismatch")
	}
	if f, ok := VStr("x").Real(); ok || f != 0 {
		t.Error("string Real should fail")
	}
	if f, ok := VTime(7).Real(); !ok || f != 7 {
		t.Error("time Real coercion")
	}
	for _, s := range []Sort{SortObject, SortTime, SortReal, SortGeom, SortString, Sort(99)} {
		if s.String() == "" {
			t.Error("empty sort name")
		}
	}
}

func TestTrueFormula(t *testing.T) {
	ctx := testContext(t)
	rel, err := Eval(context.Background(), ctx, TrueFormula(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Errorf("TrueFormula = %v", rel)
	}
}

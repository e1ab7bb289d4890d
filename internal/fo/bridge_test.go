package fo

import (
	"context"
	"testing"

	"mogis/internal/olap"
	"mogis/internal/timedim"
)

func TestToFactTable(t *testing.T) {
	ctx := testContext(t)
	// Region: all samples with neighborhood and hour labels plus the
	// x coordinate as a measure.
	f := fo(ctx)
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "t", "nb", "h", "x"})
	if err != nil {
		t.Fatal(err)
	}
	dims := []ColumnSpec{
		{Var: "nb", Level: "neighborhood"},
		{Var: "h", Level: "hour"},
	}
	ft, err := rel.ToFactTable(dims, []Var{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != rel.Len() {
		t.Errorf("fact rows = %d, relation = %d", ft.Len(), rel.Len())
	}
	// Aggregate through the fact table: counts per neighborhood.
	res, err := ft.Gamma(olap.Count, "", []string{"nb"})
	if err != nil {
		t.Fatal(err)
	}
	// Poor: O1 at 9:00 and 10:00 plus O3 at 23:00; Rich: O1 at 11:00
	// plus O2 at 9:00.
	if v, _ := res.Lookup("Poor"); v != 3 {
		t.Errorf("Poor count = %v\n%v", v, res)
	}
	if v, _ := res.Lookup("Rich"); v != 2 {
		t.Errorf("Rich count = %v", v)
	}
	// Error paths.
	if _, err := rel.ToFactTable([]ColumnSpec{{Var: "zzz"}}, nil); err == nil {
		t.Error("unknown dim column accepted")
	}
	if _, err := rel.ToFactTable(dims, []Var{"zzz"}); err == nil {
		t.Error("unknown measure column accepted")
	}
	if _, err := rel.ToFactTable(dims, []Var{"nb"}); err == nil {
		t.Error("non-numeric measure accepted")
	}
}

// fo builds the shared fixture formula: samples joined to
// neighborhoods and hours.
func fo(ctx *Context) Formula {
	return Exists([]Var{"y", "pg"}, And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&PointIn{Layer: "Ln", Kind: "polygon", X: V("x"), Y: V("y"), G: V("pg")},
		&Alpha{Attr: "neighb", A: V("nb"), G: V("pg")},
		&TimeRollup{Cat: timedim.CatHour, T: V("t"), V: V("h")},
	))
}

func TestCountsToFactTable(t *testing.T) {
	ctx := testContext(t)
	rel, err := Eval(context.Background(), ctx, fo(ctx), []Var{"o", "t", "nb", "h"})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := rel.CountsToFactTable([]ColumnSpec{{Var: "nb", Level: "neighborhood"}})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 2 { // Poor and Rich groups
		t.Fatalf("groups = %d", ft.Len())
	}
	res, err := ft.Gamma(olap.Sum, "count", []string{"nb"})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Lookup("Poor"); v != 3 {
		t.Errorf("Poor = %v", v)
	}
	if _, err := rel.CountsToFactTable([]ColumnSpec{{Var: "zzz"}}); err == nil {
		t.Error("unknown column accepted")
	}
}

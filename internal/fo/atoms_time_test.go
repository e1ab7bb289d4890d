package fo

import (
	"context"
	"testing"

	"mogis/internal/timedim"
)

func TestTimeBetween(t *testing.T) {
	ctx := testContext(t)
	nine := timedim.At(2006, 1, 9, 9, 0)
	ten := timedim.At(2006, 1, 9, 10, 30)
	f := And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&TimeBetween{T: V("t"), Lo: nine, Hi: ten},
	)
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	// Samples in [9:00, 10:30]: O1@9:00, O1@10:00, O2@9:00.
	if rel.Len() != 3 {
		t.Errorf("window = %v", rel)
	}
	// Unbound term is rejected.
	if _, err := Eval(context.Background(), ctx, &TimeBetween{T: V("t"), Lo: nine, Hi: ten}, []Var{"t"}); err == nil {
		t.Error("unbound TimeBetween accepted")
	}
	// Non-instant term errors.
	bad := And(
		&MemberOf{Concept: "neighb", M: V("n")},
		&TimeBetween{T: V("n"), Lo: nine, Hi: ten},
	)
	if _, err := Eval(context.Background(), ctx, bad, []Var{"n"}); err == nil {
		t.Error("non-instant TimeBetween accepted")
	}
}

func TestHourOfDayBetween(t *testing.T) {
	ctx := testContext(t)
	// The paper's Q7 shape: "between 8:00 and 10:00" means clock hours
	// 8..10 (exclusive of 11).
	f := And(
		&Fact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&HourOfDayBetween{T: V("t"), Lo: 8, Hi: 10},
	)
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	// Samples at clock hours 9 (O1, O2), 10 (O1); the 11:00 sample and
	// the 23:00 one are excluded.
	if rel.Len() != 3 {
		t.Errorf("hours 8..10 = %v", rel)
	}
	// String-compare would have ordered "10" < "9" and broken this.
	bad := And(
		&MemberOf{Concept: "neighb", M: V("n")},
		&HourOfDayBetween{T: V("n"), Lo: 0, Hi: 23},
	)
	if _, err := Eval(context.Background(), ctx, bad, []Var{"n"}); err == nil {
		t.Error("non-instant HourOfDayBetween accepted")
	}
	if _, err := Eval(context.Background(), ctx, &HourOfDayBetween{T: V("z"), Lo: 1, Hi: 2}, []Var{"z"}); err == nil {
		t.Error("unbound HourOfDayBetween accepted")
	}
}

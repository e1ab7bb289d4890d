package trajagg

import (
	"context"
	"strings"
	"testing"

	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/timedim"
	"mogis/internal/traj"
	"mogis/internal/workload"
)

func grid(t *testing.T, nx, ny int) *UnitGrid {
	t.Helper()
	g, err := NewUnitGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func lit(t *testing.T, pts ...geom.Point) *traj.LIT {
	t.Helper()
	s := make(traj.Sample, len(pts))
	for i, p := range pts {
		s[i] = traj.TimePoint{T: timedim.Instant(i * 60), P: p}
	}
	l, err := traj.NewLIT(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewUnitGridErrors(t *testing.T) {
	if _, err := NewUnitGrid(geom.EmptyBBox(), 4, 4); err == nil {
		t.Error("empty extent accepted")
	}
	if _, err := NewUnitGrid(geom.BBox{MaxX: 1, MaxY: 1}, 0, 4); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestUnitOf(t *testing.T) {
	g := grid(t, 4, 4) // 25x25 cells
	cases := []struct {
		p    geom.Point
		want int
		ok   bool
	}{
		{geom.Pt(1, 1), 0, true},
		{geom.Pt(30, 1), 1, true},
		{geom.Pt(1, 30), 4, true},
		{geom.Pt(99, 99), 15, true},
		{geom.Pt(100, 100), 15, true}, // max edge clamps
		{geom.Pt(-1, 50), 0, false},
		{geom.Pt(50, 101), 0, false},
	}
	for _, c := range cases {
		got, ok := g.UnitOf(c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("UnitOf(%v) = %d,%v, want %d,%v", c.p, got, ok, c.want, c.ok)
		}
	}
	if g.Units() != 16 {
		t.Errorf("Units = %d", g.Units())
	}
	box := g.UnitBox(5) // cx=1, cy=1
	if box.MinX != 25 || box.MinY != 25 || box.MaxX != 50 || box.MaxY != 50 {
		t.Errorf("UnitBox(5) = %v", box)
	}
	if c := g.UnitCenter(0); !c.Eq(geom.Pt(12.5, 12.5)) {
		t.Errorf("UnitCenter(0) = %v", c)
	}
}

func TestUnitPathStraightLine(t *testing.T) {
	g := grid(t, 4, 1) // four 25-wide columns
	l := lit(t, geom.Pt(5, 50), geom.Pt(95, 50))
	path := g.UnitPath(l)
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestUnitPathSamplingInsensitive(t *testing.T) {
	g := grid(t, 4, 4)
	// The same geometric route sampled coarsely and finely must give
	// the same unit path (the Meratnia–de By insensitivity claim).
	coarse := lit(t, geom.Pt(5, 5), geom.Pt(95, 95))
	fine := lit(t, geom.Pt(5, 5), geom.Pt(27.5, 27.5), geom.Pt(50, 50), geom.Pt(72.5, 72.5), geom.Pt(95, 95))
	pc := g.UnitPath(coarse)
	pf := g.UnitPath(fine)
	if len(pc) != len(pf) {
		t.Fatalf("coarse %v vs fine %v", pc, pf)
	}
	for i := range pc {
		if pc[i] != pf[i] {
			t.Fatalf("coarse %v vs fine %v", pc, pf)
		}
	}
}

func TestUnitPathSinglePoint(t *testing.T) {
	g := grid(t, 2, 2)
	l := lit(t, geom.Pt(10, 10))
	path := g.UnitPath(l)
	if len(path) != 1 || path[0] != 0 {
		t.Errorf("path = %v", path)
	}
	outside := lit(t, geom.Pt(-10, -10))
	if got := g.UnitPath(outside); len(got) != 0 {
		t.Errorf("outside path = %v", got)
	}
}

func testLits(t *testing.T) map[moft.Oid]*traj.LIT {
	t.Helper()
	return map[moft.Oid]*traj.LIT{
		1: lit(t, geom.Pt(5, 50), geom.Pt(95, 50)), // west→east through the middle row
		2: lit(t, geom.Pt(5, 55), geom.Pt(95, 55)), // same corridor
		3: lit(t, geom.Pt(50, 5), geom.Pt(50, 95)), // south→north through the middle column
		4: lit(t, geom.Pt(5, 5), geom.Pt(5, 5)),    // parked in the corner (degenerate)
	}
}

func TestBuildSurface(t *testing.T) {
	g := grid(t, 2, 2) // 50x50 cells
	s := BuildSurface(g, testLits(t))
	// O1,O2 pass units {0,1} (y≈50/55: unit row depends: y=50 is on
	// the boundary → clamps into row 1 for y=50? y=50 → cy=1). Let's
	// just assert structural properties.
	if s.Total() < 4 {
		t.Errorf("total = %d", s.Total())
	}
	u, c := s.Max()
	if c < 2 {
		t.Errorf("max = %d at %d", c, u)
	}
	hot := s.HotCells(1)
	if len(hot) == 0 {
		t.Error("no hot cells")
	}
	// HotCells sorted by count descending.
	for i := 1; i < len(hot); i++ {
		if s.Counts[hot[i-1]] < s.Counts[hot[i]] {
			t.Error("HotCells not sorted")
		}
	}
	r := s.Render()
	if len(strings.Split(strings.TrimRight(r, "\n"), "\n")) != 2 {
		t.Errorf("Render rows:\n%s", r)
	}
}

func TestBuildSurfaceCountsDistinctObjects(t *testing.T) {
	g := grid(t, 1, 1)
	// One object zig-zagging within the single unit counts once.
	lits := map[moft.Oid]*traj.LIT{
		1: lit(t, geom.Pt(10, 10), geom.Pt(90, 90), geom.Pt(10, 90)),
	}
	s := BuildSurface(g, lits)
	if s.Counts[0] != 1 {
		t.Errorf("count = %d, want 1 (distinct objects, not visits)", s.Counts[0])
	}
}

func TestBuildFlows(t *testing.T) {
	g := grid(t, 4, 4)
	zoneOf := func(p geom.Point) string {
		if p.X < 50 {
			return "West"
		}
		return "East"
	}
	fm := BuildFlows(testLits(t), g, zoneOf)
	// O1 and O2 go West→East; O3 stays East... x=50 → East zone
	// throughout; O4 stays West.
	if got := fm.Flow("West", "East"); got != 2 {
		t.Errorf("West→East = %d, want 2\n%s", got, fm)
	}
	if got := fm.Flow("East", "West"); got != 0 {
		t.Errorf("East→West = %d", got)
	}
	if len(fm.Zones) != 2 {
		t.Errorf("zones = %v", fm.Zones)
	}
	top := fm.TopFlows(5)
	if len(top) != 1 || !strings.Contains(top[0], "West→East: 2") {
		t.Errorf("TopFlows = %v", top)
	}
	if !strings.Contains(fm.String(), "from\\to") {
		t.Error("String header")
	}
	// Zone filter: empty names are skipped entirely.
	fmNone := BuildFlows(testLits(t), g, func(geom.Point) string { return "" })
	if len(fmNone.Zones) != 0 {
		t.Errorf("zones = %v", fmNone.Zones)
	}
}

func TestAggregate(t *testing.T) {
	g := grid(t, 2, 1) // two 50x100 halves
	lits := map[moft.Oid]*traj.LIT{
		1: lit(t, geom.Pt(10, 50), geom.Pt(90, 50)),
		2: lit(t, geom.Pt(10, 40), geom.Pt(90, 60)), // same unit path 0→1
		3: lit(t, geom.Pt(90, 50), geom.Pt(10, 50)), // reverse path 1→0
	}
	aggs := Aggregate(g, lits)
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %+v", aggs)
	}
	if aggs[0].Support != 2 || len(aggs[0].Path) != 2 || aggs[0].Path[0] != 0 {
		t.Errorf("top aggregate = %+v", aggs[0])
	}
	if aggs[1].Support != 1 || aggs[1].Path[0] != 1 {
		t.Errorf("second aggregate = %+v", aggs[1])
	}
	// Representative line goes through unit centers.
	if !aggs[0].Line[0].Eq(geom.Pt(25, 50)) || !aggs[0].Line[1].Eq(geom.Pt(75, 50)) {
		t.Errorf("line = %v", aggs[0].Line)
	}
	// Empty input.
	if got := Aggregate(g, nil); len(got) != 0 {
		t.Errorf("empty aggregate = %v", got)
	}
}

// TestSampleSurface compares the columnar one-pass build against a
// naive per-unit distinct-object count, including an object that
// revisits a unit (must count once) and samples outside the extent
// (must be skipped).
func TestSampleSurface(t *testing.T) {
	g := grid(t, 4, 4)
	tbl := moft.New("FMsurf")
	tbl.Add(1, 0, 10, 10)   // unit (0,0)
	tbl.Add(1, 60, 30, 10)  // unit (1,0)
	tbl.Add(1, 120, 10, 12) // back to unit (0,0): still one object
	tbl.Add(2, 0, 12, 14)   // unit (0,0), second object
	tbl.Add(2, 60, 80, 80)  // unit (3,3)
	tbl.Add(3, 0, 150, 150) // outside the extent: skipped
	s := SampleSurface(g, tbl.Columns())

	naive := make([]map[moft.Oid]bool, g.Units())
	for _, tp := range tbl.Tuples() {
		if u, ok := g.UnitOf(tp.Point()); ok {
			if naive[u] == nil {
				naive[u] = map[moft.Oid]bool{}
			}
			naive[u][tp.Oid] = true
		}
	}
	for u := 0; u < g.Units(); u++ {
		if s.Counts[u] != len(naive[u]) {
			t.Errorf("unit %d: count %d, naive %d", u, s.Counts[u], len(naive[u]))
		}
	}
	if u00, _ := g.UnitOf(geom.Pt(10, 10)); s.Counts[u00] != 2 {
		t.Errorf("unit(10,10) count = %d, want 2 (revisit must not double-count)", s.Counts[u00])
	}
	if s.Total() != 4 {
		t.Errorf("Total = %d, want 4", s.Total())
	}
}

// p7Workload is the trajectory-aggregation workload of EXPERIMENTS.md
// P7: 100 objects × 120 samples over an 8×8 generated city, and its
// 16×16 unit grid.
func p7Workload(tb testing.TB) (*UnitGrid, map[moft.Oid]*traj.LIT) {
	tb.Helper()
	city := workload.GenCity(workload.CityConfig{Seed: 7, Cols: 8, Rows: 8})
	g, err := NewUnitGrid(city.Extent, 16, 16)
	if err != nil {
		tb.Fatal(err)
	}
	fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
		Seed: 7, Objects: 100, Samples: 120, Step: 30, Speed: 2,
	})
	_, eng := city.Context(fm)
	lits, err := eng.Trajectories(context.Background(), "FM")
	if err != nil {
		tb.Fatal(err)
	}
	return g, lits
}

// TestSurfaceSurvivesCompression (P7): unit-grid aggregation is
// insensitive to sampling (paper §2, Meratnia & de By). SED
// compression at 1/16 of a unit cell's width shrinks the trajectories
// while the pass-count surface changes by at most 10 % in relative
// L1 (1.5 % measured).
func TestSurfaceSurvivesCompression(t *testing.T) {
	g, lits := p7Workload(t)
	eps := g.UnitBox(0).Width() / 16
	var orig, kept int
	compressed := make(map[moft.Oid]*traj.LIT, len(lits))
	for oid, l := range lits {
		c := traj.Compress(l.Sample(), eps)
		orig, kept = orig+len(l.Sample()), kept+len(c)
		compressed[oid] = traj.MustLIT(c)
	}
	if kept >= orig {
		t.Errorf("compression kept %d of %d samples", kept, orig)
	}
	before, after := BuildSurface(g, lits), BuildSurface(g, compressed)
	var l1, total int
	for u, n := range before.Counts {
		l1 += max(n-after.Counts[u], after.Counts[u]-n)
		total += n
	}
	if total == 0 || float64(l1) > 0.10*float64(total) {
		t.Errorf("pass-count surface L1 delta %d of %d (%.1f%%), want <= 10%%",
			l1, total, 100*float64(l1)/float64(total))
	}
}

// surfaceSink keeps BenchmarkBuildSurface's result live.
var surfaceSink *Surface

// BenchmarkBuildSurface times the pass-count surface of the P7
// workload.
func BenchmarkBuildSurface(b *testing.B) {
	g, lits := p7Workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		surfaceSink = BuildSurface(g, lits)
	}
}

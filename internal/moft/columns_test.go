package moft

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mogis/internal/obs"
	"mogis/internal/timedim"
)

func columnsFixture() *Table {
	t := New("FMcols")
	// Deliberately out of order: the snapshot must reflect the sorted
	// (Oid, t) view.
	t.Add(2, 30, 7, 8)
	t.Add(1, 20, 3, 4)
	t.Add(1, 10, 1, 2)
	t.Add(3, 5, -1, 9)
	t.Add(2, 25, 5, 6)
	return t
}

func TestColumnsMatchTuples(t *testing.T) {
	tbl := columnsFixture()
	cols := tbl.Columns()
	tuples := tbl.Tuples()
	if cols.Len() != len(tuples) {
		t.Fatalf("Len = %d, want %d", cols.Len(), len(tuples))
	}
	for i, tp := range tuples {
		if cols.Oids[cols.Obj[i]] != tp.Oid || cols.T[i] != int64(tp.T) ||
			cols.X[i] != tp.X || cols.Y[i] != tp.Y {
			t.Errorf("row %d: (%d,%d,%g,%g) != tuple %+v",
				i, cols.Oids[cols.Obj[i]], cols.T[i], cols.X[i], cols.Y[i], tp)
		}
	}
	if cols.NumObjects() != 3 {
		t.Fatalf("NumObjects = %d, want 3", cols.NumObjects())
	}
	for i, oid := range cols.Oids {
		lo, hi := cols.ObjectRange(i)
		want := tbl.ObjectTuples(oid)
		if hi-lo != len(want) {
			t.Errorf("O%d: range [%d,%d) has %d rows, want %d", oid, lo, hi, hi-lo, len(want))
			continue
		}
		for k, tp := range want {
			if cols.T[lo+k] != int64(tp.T) || cols.X[lo+k] != tp.X || cols.Y[lo+k] != tp.Y {
				t.Errorf("O%d row %d mismatch", oid, k)
			}
		}
	}
}

func TestColumnsAggregatesAgree(t *testing.T) {
	tbl := columnsFixture()
	cols := tbl.Columns()
	lo, hi, ok := cols.TimeSpan()
	tlo, thi, tok := tbl.TimeSpan()
	if ok != tok || lo != tlo || hi != thi {
		t.Errorf("TimeSpan: columns (%d,%d,%v), table (%d,%d,%v)", lo, hi, ok, tlo, thi, tok)
	}
	if cols.BBox() != tbl.BBox() {
		t.Errorf("BBox: columns %v, table %v", cols.BBox(), tbl.BBox())
	}

	empty := New("FMempty").Columns()
	if _, _, ok := empty.TimeSpan(); ok {
		t.Error("empty snapshot reports a time span")
	}
	if empty.Len() != 0 || empty.NumObjects() != 0 {
		t.Errorf("empty snapshot: Len=%d NumObjects=%d", empty.Len(), empty.NumObjects())
	}
}

func TestColumnsInvalidatedOnMutation(t *testing.T) {
	tbl := columnsFixture()
	c1 := tbl.Columns()
	if c2 := tbl.Columns(); c2 != c1 {
		t.Error("repeated Columns() did not return the cached snapshot")
	}
	tbl.Add(4, 99, 0, 0)
	c3 := tbl.Columns()
	if c3 == c1 {
		t.Fatal("Columns() returned the stale snapshot after Add")
	}
	if c3.Len() != c1.Len()+1 || c3.NumObjects() != 4 {
		t.Errorf("rebuilt snapshot: Len=%d NumObjects=%d", c3.Len(), c3.NumObjects())
	}
	// The old snapshot stays intact (immutable for racing readers).
	if c1.Len() != 5 {
		t.Errorf("old snapshot mutated: Len=%d", c1.Len())
	}
}

// TestColumnarScanAllocs is the allocation-regression gate for the
// columnar hot loop: once the snapshot exists, scanning it must not
// allocate at all.
func TestColumnarScanAllocs(t *testing.T) {
	tbl := New("FMalloc")
	for o := 0; o < 50; o++ {
		for s := 0; s < 100; s++ {
			tbl.Add(Oid(o), timedim.Instant(s), float64(o), float64(s))
		}
	}
	cols := tbl.Columns()
	var sink float64
	allocs := testing.AllocsPerRun(10, func() {
		sum := 0.0
		for i := 0; i < cols.Len(); i++ {
			if cols.T[i] >= 20 && cols.T[i] <= 80 {
				sum += cols.X[i] + cols.Y[i]
			}
		}
		sink = sum
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("columnar scan allocates %.0f times per pass; want 0", allocs)
	}
}

// sortTimeOrder is the reference for radixTimeOrder: the comparison
// sort TimeOrder used before, on (instant, row).
func sortTimeOrder(ts []int64) []int32 {
	p := make([]int32, len(ts))
	for i := range p {
		p[i] = int32(i)
	}
	sort.Slice(p, func(i, j int) bool {
		if ts[p[i]] != ts[p[j]] {
			return ts[p[i]] < ts[p[j]]
		}
		return p[i] < p[j]
	})
	return p
}

// checkTimeOrder compares the radix order of ts with the reference.
func checkTimeOrder(ts []int64) error {
	minT, maxT := int64(0), int64(0)
	for i, t := range ts {
		if i == 0 || t < minT {
			minT = t
		}
		if i == 0 || t > maxT {
			maxT = t
		}
	}
	if got, want := radixTimeOrder(ts, minT, maxT), sortTimeOrder(ts); !slices.Equal(got, want) {
		return fmt.Errorf("instants %v: radix %v, want %v", ts, got, want)
	}
	return nil
}

// TestRadixTimeOrderMatchesSort: the radix time order is the
// permutation the comparison sort gives, on the edge shapes and on
// random instants of every span width up to the full int64 range.
func TestRadixTimeOrderMatchesSort(t *testing.T) {
	for name, ts := range map[string][]int64{
		"empty":            nil,
		"one row":          {42},
		"equal instants":   {7, 7, 7, 7},
		"negative":         {-5, 3, -5, -1 << 40, 0, 3},
		"span over 2^16":   {1 << 17, 0, 1<<16 + 1, 1, 1 << 16},
		"span over 2^32":   {1 << 33, -(1 << 33), 5, 1<<32 + 5, 5},
		"full int64 range": {math.MaxInt64, math.MinInt64, 0, -1, math.MaxInt64, math.MinInt64},
	} {
		if err := checkTimeOrder(ts); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := make([]int64, rng.Intn(300))
		// Spans from 0 to 63 bits, with repeats from the small ones.
		span := int64(1) << uint(rng.Intn(63))
		base := rng.Int63n(1<<40) - 1<<39
		for i := range ts {
			ts[i] = base + rng.Int63n(span)
		}
		if err := checkTimeOrder(ts); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTimeOrderBuiltOnce: a snapshot builds its time order once,
// however many callers ask, and counts the build.
func TestTimeOrderBuiltOnce(t *testing.T) {
	cols := columnsFixture().Columns()
	before := obs.Std.MOFTTimeOrders.Value()
	first := cols.TimeOrder()
	if !slices.Equal(cols.TimeOrder(), first) {
		t.Fatal("TimeOrder changed between calls")
	}
	if n := obs.Std.MOFTTimeOrders.Value() - before; n != 1 {
		t.Errorf("time order builds = %d, want 1", n)
	}
	if want := sortTimeOrder(cols.T); !slices.Equal(first, want) {
		t.Errorf("TimeOrder %v, want %v", first, want)
	}
}

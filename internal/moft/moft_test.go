package moft

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mogis/internal/timedim"
)

func sample(t *testing.T) *Table {
	t.Helper()
	tb := New("FM")
	// Deliberately out of order to exercise sorting.
	tb.Add(2, 30, 5, 5)
	tb.Add(1, 10, 0, 0)
	tb.Add(1, 30, 2, 2)
	tb.Add(1, 20, 1, 1)
	tb.Add(2, 10, 4, 4)
	tb.Add(3, 15, 9, 9)
	return tb
}

func TestTableSortingAndAccess(t *testing.T) {
	tb := sample(t)
	if tb.Name() != "FM" || tb.Len() != 6 {
		t.Fatalf("Name/Len = %q/%d", tb.Name(), tb.Len())
	}
	tps := tb.Tuples()
	for i := 1; i < len(tps); i++ {
		a, b := tps[i-1], tps[i]
		if a.Oid > b.Oid || (a.Oid == b.Oid && a.T > b.T) {
			t.Fatalf("not sorted at %d: %+v, %+v", i, a, b)
		}
	}
	objs := tb.Objects()
	if len(objs) != 3 || objs[0] != 1 || objs[2] != 3 {
		t.Errorf("Objects = %v", objs)
	}
	o1 := tb.ObjectTuples(1)
	if len(o1) != 3 || o1[0].T != 10 || o1[2].T != 30 {
		t.Errorf("ObjectTuples(1) = %+v", o1)
	}
	if tb.ObjectTuples(99) != nil {
		t.Error("ObjectTuples(99) should be nil")
	}
}

func TestTimeSpanAndBBox(t *testing.T) {
	tb := sample(t)
	lo, hi, ok := tb.TimeSpan()
	if !ok || lo != 10 || hi != 30 {
		t.Errorf("TimeSpan = %v,%v,%v", lo, hi, ok)
	}
	b := tb.BBox()
	if b.MinX != 0 || b.MaxX != 9 {
		t.Errorf("BBox = %v", b)
	}
	empty := New("E")
	if _, _, ok := empty.TimeSpan(); ok {
		t.Error("empty TimeSpan should fail")
	}
	if !empty.BBox().IsEmpty() {
		t.Error("empty BBox")
	}
}

func TestScan(t *testing.T) {
	tb := sample(t)
	var n int
	tb.Scan(func(Tuple) bool { n++; return true })
	if n != 6 {
		t.Errorf("Scan visited %d", n)
	}
	n = 0
	tb.Scan(func(Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestScanInterval(t *testing.T) {
	tb := sample(t)
	var got []Tuple
	tb.ScanInterval(timedim.Interval{Lo: 15, Hi: 30}, func(tp Tuple) bool {
		got = append(got, tp)
		return true
	})
	// Tuples with T in [15,30]: (1,20),(1,30),(2,30),(3,15).
	if len(got) != 4 {
		t.Fatalf("ScanInterval = %+v", got)
	}
	// Early stop.
	n := 0
	tb.ScanInterval(timedim.Interval{Lo: 0, Hi: 100}, func(Tuple) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestFilter(t *testing.T) {
	tb := sample(t)
	f := tb.Filter("_late", func(tp Tuple) bool { return tp.T >= 20 })
	if f.Name() != "FM_late" {
		t.Errorf("Name = %q", f.Name())
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestCSVRoundtrip(t *testing.T) {
	tb := sample(t)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("FM2", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tb.Len() {
		t.Fatalf("roundtrip Len = %d", back.Len())
	}
	a, b := tb.Tuples(), back.Tuples()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tuple %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"oid,t,x,y\n1,2,3\n",       // arity
		"oid,t,x,y\nx,2,3,4\n",     // bad oid
		"oid,t,x,y\n1,x,3,4\n",     // bad t
		"oid,t,x,y\n1,2,x,4\n",     // bad x
		"oid,t,x,y\n1,2,3,x\n",     // bad y
		"oid,t,x,y\n1,2,NaN,4\n",   // non-finite x
		"oid,t,x,y\n1,2,3,+Inf\n",  // non-finite y
		"oid,t,x,y\n1,2,-inf,4\n",  // non-finite x
		"oid,t,x,y\n1,2,1e400,4\n", // overflows to +Inf
	}
	for _, c := range cases {
		if _, err := ReadCSV("bad", strings.NewReader(c)); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
	// A second position for a read (Oid, t) is not a function: the
	// error names the conflicting row and unwraps to
	// ErrConflictingSample.
	_, err := ReadCSV("bad", strings.NewReader("oid,t,x,y\n1,10,0,0\n2,10,1,1\n1,10,5,5\n"))
	if !errors.Is(err, ErrConflictingSample) || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("conflicting duplicate: err = %v, want ErrConflictingSample at row 3", err)
	}
	// An identical repeat is a no-op.
	tb, err := ReadCSV("dup", strings.NewReader("1,10,0,0\n1,20,1,1\n1,10,0,0\n"))
	if err != nil || tb.Len() != 2 {
		t.Fatalf("identical repeat = %v, len %d; want nil, 2", err, tb.Len())
	}
	if got := tb.ObjectTuples(1); got[0].T != 10 || got[1].T != 20 {
		t.Errorf("identical repeat samples = %+v", got)
	}
	// Headerless input is accepted.
	tb, err = ReadCSV("ok", strings.NewReader("1,2,3,4\n"))
	if err != nil || tb.Len() != 1 {
		t.Errorf("headerless = %v, len %d", err, tb.Len())
	}
}

func TestString(t *testing.T) {
	tb := New("FMbus")
	tb.Add(1, 1, 2, 3)
	s := tb.String()
	if !strings.Contains(s, "FMbus") || !strings.Contains(s, "O1 | 1 | (2, 3)") {
		t.Errorf("String = %q", s)
	}
}

package fo

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"mogis/internal/layer"
	"mogis/internal/timedim"
)

func TestInterpFactGeneratesBetweenSamples(t *testing.T) {
	ctx := testContext(t)
	// O1 is sampled at 9:00 (2,2), 10:00 (4,4), 11:00 (15,5). At 9:30
	// the interpolated position is (3,3), inside the Poor polygon.
	halfPast := timedim.At(2006, 1, 9, 9, 30)
	f := And(
		&InterpFact{Table: "FM", Times: []timedim.Instant{halfPast},
			O: V("o"), T: V("t"), X: V("x"), Y: V("y")},
		&PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: V("x"), Y: V("y"), G: V("pg")},
		&Cmp{L: V("pg"), Op: EQ, R: CGeom(1)}, // Poor
	)
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("rel = %v", rel)
	}
	if rel.Tuples[0][0].Obj() != 1 || rel.Tuples[0][1].F != 3 || rel.Tuples[0][2].F != 3 {
		t.Errorf("interpolated tuple = %v", rel.Tuples[0])
	}
}

func TestInterpFactGrid(t *testing.T) {
	ctx := testContext(t)
	// A 15-minute grid over the morning: O1's domain is [9:00, 11:00],
	// so it contributes 9 instants; O2's domain is the single instant
	// 9:00... (O2 has one sample in this fixture at 9:00) → 1; O3's
	// domain starts at 23:00 → 0.
	times := Instants(timedim.At(2006, 1, 9, 9, 0), timedim.At(2006, 1, 9, 11, 0), 15*60)
	if len(times) != 9 {
		t.Fatalf("grid = %d instants", len(times))
	}
	f := &InterpFact{Table: "FM", Times: times, O: V("o"), T: V("t"), X: V("x"), Y: V("y")}
	rel, err := Eval(context.Background(), ctx, f, []Var{"o", "t"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, tup := range rel.Tuples {
		counts[int64(tup[0].Obj())]++
	}
	if counts[1] != 9 {
		t.Errorf("O1 instants = %d, want 9", counts[1])
	}
	if counts[2] != 1 {
		t.Errorf("O2 instants = %d, want 1", counts[2])
	}
	if counts[3] != 0 {
		t.Errorf("O3 instants = %d, want 0", counts[3])
	}
}

func TestInterpFactBoundObject(t *testing.T) {
	ctx := testContext(t)
	times := Instants(timedim.At(2006, 1, 9, 9, 0), timedim.At(2006, 1, 9, 11, 0), 3600)
	f := &InterpFact{Table: "FM", Times: times, O: CObj(1), T: V("t"), X: V("x"), Y: V("y")}
	rel, err := Eval(context.Background(), ctx, f, []Var{"t"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("bound-object instants = %d", rel.Len())
	}
	// Unknown object yields empty, not error.
	f2 := &InterpFact{Table: "FM", Times: times, O: CObj(99), T: V("t"), X: V("x"), Y: V("y")}
	rel, err = Eval(context.Background(), ctx, f2, []Var{"t"})
	if err != nil || rel.Len() != 0 {
		t.Errorf("unknown object: %v, %v", rel, err)
	}
}

// TestInterpFactConcurrentEval: one InterpFact evaluated by several
// goroutines on one shared, fresh Context gives each the answer of a
// serial run (and, under -race, shares no unsynchronized state).
func TestInterpFactConcurrentEval(t *testing.T) {
	times := Instants(timedim.At(2006, 1, 9, 9, 0), timedim.At(2006, 1, 9, 11, 0), 15*60)
	f := &InterpFact{Table: "FM", Times: times, O: V("o"), T: V("t"), X: V("x"), Y: V("y")}
	out := []Var{"o", "t", "x", "y"}

	shared := testContext(t)
	const workers = 4
	rels := make([]*Relation, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rels[i], errs[i] = Eval(context.Background(), shared, f, out)
		}(i)
	}
	wg.Wait()

	want, err := Eval(context.Background(), testContext(t), f, out)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("serial run produced no tuples")
	}
	for i := range rels {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(rels[i], want) {
			t.Errorf("goroutine %d: %v, want %v", i, rels[i], want)
		}
	}
}

func TestInterpFactErrors(t *testing.T) {
	ctx := testContext(t)
	f := &InterpFact{Table: "FM", O: V("o"), T: V("t"), X: V("x"), Y: V("y")}
	if _, err := Eval(context.Background(), ctx, f, []Var{"o"}); err == nil {
		t.Error("empty Times accepted")
	}
	f2 := &InterpFact{Table: "nope", Times: []timedim.Instant{0}, O: V("o"), T: V("t"), X: V("x"), Y: V("y")}
	if _, err := Eval(context.Background(), ctx, f2, []Var{"o"}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestInstantsHelper(t *testing.T) {
	if got := Instants(0, 100, 25); len(got) != 5 {
		t.Errorf("Instants = %v", got)
	}
	if got := Instants(100, 0, 25); got != nil {
		t.Errorf("inverted = %v", got)
	}
	if got := Instants(0, 10, 0); got != nil {
		t.Errorf("zero step = %v", got)
	}
}

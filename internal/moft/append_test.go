package moft

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"mogis/internal/timedim"
)

// rebuild is the reference for WithAppended: a table loaded from
// scratch, one AddTuple per row, in a shuffled order.
func rebuild(rng *rand.Rand, rows []Tuple) *Table {
	rows = slices.Clone(rows)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	t := New("T")
	for _, tp := range rows {
		t.AddTuple(tp)
	}
	return t
}

// sameTable reports the first reader on which got and want disagree.
// Every reader is compared, the columnar snapshot field by field, and
// ObjectTuples also for oids present in neither table.
func sameTable(got, want *Table) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("Len %d, want %d", got.Len(), want.Len())
	}
	if !slices.Equal(got.Tuples(), want.Tuples()) {
		return fmt.Errorf("Tuples differ")
	}
	objs := want.Objects()
	if !slices.Equal(got.Objects(), objs) {
		return fmt.Errorf("Objects %v, want %v", got.Objects(), objs)
	}
	probe := append(slices.Clone(objs), -1, 0, 1<<40)
	for _, o := range probe {
		if !slices.Equal(got.ObjectTuples(o), want.ObjectTuples(o)) {
			return fmt.Errorf("ObjectTuples(%d) differ", o)
		}
	}
	for _, iv := range []timedim.Interval{{Lo: 0, Hi: 1 << 30}, {Lo: 5, Hi: 25}, {Lo: 40, Hi: 40}, {Lo: 9, Hi: 3}} {
		var a, b []Tuple
		got.ScanInterval(iv, func(tp Tuple) bool { a = append(a, tp); return true })
		want.ScanInterval(iv, func(tp Tuple) bool { b = append(b, tp); return true })
		if !slices.Equal(a, b) {
			return fmt.Errorf("ScanInterval(%v) differ", iv)
		}
	}
	glo, ghi, gok := got.TimeSpan()
	wlo, whi, wok := want.TimeSpan()
	if glo != wlo || ghi != whi || gok != wok {
		return fmt.Errorf("TimeSpan (%d,%d,%v), want (%d,%d,%v)", glo, ghi, gok, wlo, whi, wok)
	}
	if got.BBox() != want.BBox() {
		return fmt.Errorf("BBox %v, want %v", got.BBox(), want.BBox())
	}
	gc, wc := got.Columns(), want.Columns()
	switch {
	case !slices.Equal(gc.Oids, wc.Oids):
		return fmt.Errorf("Columns.Oids differ")
	case !slices.Equal(gc.Starts, wc.Starts):
		return fmt.Errorf("Columns.Starts differ")
	case !slices.Equal(gc.Obj, wc.Obj):
		return fmt.Errorf("Columns.Obj differ")
	case !slices.Equal(gc.T, wc.T):
		return fmt.Errorf("Columns.T differ")
	case !slices.Equal(gc.X, wc.X):
		return fmt.Errorf("Columns.X differ")
	case !slices.Equal(gc.Y, wc.Y):
		return fmt.Errorf("Columns.Y differ")
	case gc.BBox() != wc.BBox():
		return fmt.Errorf("Columns.BBox differ")
	case !slices.Equal(gc.TimeOrder(), wc.TimeOrder()):
		return fmt.Errorf("Columns.TimeOrder differ")
	}
	glo, ghi, gok = gc.TimeSpan()
	wlo, whi, wok = wc.TimeSpan()
	if glo != wlo || ghi != whi || gok != wok {
		return fmt.Errorf("Columns.TimeSpan differ")
	}
	return nil
}

// history is the rows a chain of versions has accepted so far, with
// each object's latest instant.
type history struct {
	rows   []Tuple
	latest map[Oid]timedim.Instant
}

func (h *history) add(tp Tuple) {
	h.rows = append(h.rows, tp)
	if l, ok := h.latest[tp.Oid]; !ok || tp.T > l {
		h.latest[tp.Oid] = tp.T
	}
}

// randomParent loads up to 8 objects with time-increasing samples, in
// a shuffled order.
func randomParent(rng *rand.Rand) (*Table, *history) {
	h := &history{latest: map[Oid]timedim.Instant{}}
	for o, n := Oid(0), Oid(rng.Intn(8)); o < n; o++ {
		ts := timedim.Instant(rng.Intn(10))
		for k := rng.Intn(6) + 1; k > 0; k-- {
			h.add(Tuple{Oid: o * 3, T: ts, X: float64(rng.Intn(50)), Y: float64(rng.Intn(50))})
			ts += timedim.Instant(rng.Intn(8) + 1)
		}
	}
	return rebuild(rng, h.rows), h
}

// randomBatch draws a valid batch for h: new objects, existing
// objects, several rows per object, interleaved across objects, plus
// exact repeats of stored and earlier batch rows. It returns the batch
// and the rows it should add.
func randomBatch(rng *rand.Rand, h *history) (batch, add []Tuple) {
	latest := map[Oid]timedim.Instant{}
	for o, l := range h.latest {
		latest[o] = l
	}
	for n := rng.Intn(12) + 1; n > 0; n-- {
		if rng.Intn(5) == 0 && len(h.rows)+len(add) > 0 {
			// A repeat of a stored row or of an earlier batch row.
			if k := rng.Intn(len(h.rows) + len(add)); k < len(h.rows) {
				batch = append(batch, h.rows[k])
			} else {
				batch = append(batch, add[k-len(h.rows)])
			}
			continue
		}
		o := Oid(rng.Intn(30))
		ts := timedim.Instant(rng.Intn(5))
		if l, ok := latest[o]; ok {
			ts = l + timedim.Instant(rng.Intn(4)+1)
		}
		latest[o] = ts
		tp := Tuple{Oid: o, T: ts, X: float64(rng.Intn(50)), Y: float64(rng.Intn(50))}
		batch = append(batch, tp)
		add = append(add, tp)
	}
	return batch, add
}

// TestWithAppendedMatchesRebuild: every version of a chain of random
// valid batches answers every reader exactly like a table loaded from
// scratch with the same rows, and Applied names the rows each batch
// added. Deriving two different children from one parent aliases
// nothing: the parent and the first child still answer as before.
func TestWithAppendedMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cur, h := randomParent(rng)
		for step := rng.Intn(5) + 1; step > 0; step-- {
			batch, add := randomBatch(rng, h)
			if !slices.Equal(cur.Applied(batch), add) {
				t.Logf("seed %d: Applied differs from the batch's new rows", seed)
				return false
			}
			next, err := cur.WithAppended(batch)
			if err != nil {
				t.Logf("seed %d: valid batch rejected: %v", seed, err)
				return false
			}
			if len(add) == 0 && next != cur {
				t.Logf("seed %d: a batch of repeats made a new version", seed)
				return false
			}
			prev := rebuild(rng, h.rows)
			for _, tp := range add {
				h.add(tp)
			}

			// A sibling over the same parent, touching the same objects.
			sib := make([]Tuple, len(add))
			for i, tp := range add {
				sib[i] = Tuple{Oid: tp.Oid, T: tp.T + 1000, X: -tp.X, Y: -tp.Y}
			}
			if _, err := cur.WithAppended(sib); err != nil {
				t.Logf("seed %d: sibling batch rejected: %v", seed, err)
				return false
			}
			if err := sameTable(cur, prev); err != nil {
				t.Logf("seed %d: parent changed after deriving: %v", seed, err)
				return false
			}
			if err := sameTable(next, rebuild(rng, h.rows)); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWithAppendedRejects(t *testing.T) {
	parent := New("T")
	parent.Add(1, 10, 0, 0)
	parent.Add(1, 20, 1, 1)
	parent.Add(2, 5, 3, 3)
	for _, tc := range []struct {
		name  string
		batch []Tuple
		want  error
		row   int
	}{
		{"conflicts with a stored sample", []Tuple{{2, 6, 0, 0}, {1, 10, 9, 9}}, ErrConflictingSample, 1},
		{"conflicts with an earlier row", []Tuple{{3, 1, 0, 0}, {3, 1, 0, 1}}, ErrConflictingSample, 1},
		{"before the latest stored sample", []Tuple{{1, 15, 0, 0}}, ErrOutOfOrder, 0},
		{"at no instant, before an earlier row", []Tuple{{2, 9, 0, 0}, {2, 7, 0, 0}}, ErrOutOfOrder, 1},
		{"a repeat does not move the latest back", []Tuple{{1, 10, 0, 0}, {1, 15, 0, 0}}, ErrOutOfOrder, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := slices.Clone(parent.Tuples())
			next, err := parent.WithAppended(tc.batch)
			var ae *AppendError
			if !errors.As(err, &ae) || !errors.Is(err, tc.want) || ae.Row != tc.row {
				t.Fatalf("err = %v, want %v at row %d", err, tc.want, tc.row)
			}
			if next != nil {
				t.Error("a rejected batch returned a table")
			}
			if !slices.Equal(parent.Tuples(), before) {
				t.Error("a rejected batch changed the parent")
			}
		})
	}

	// Repeats are no-ops, so a retried batch is idempotent.
	batch := []Tuple{{1, 30, 2, 2}, {4, 1, 5, 5}, {1, 30, 2, 2}, {1, 10, 0, 0}}
	once, err := parent.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	if once.Len() != parent.Len()+2 {
		t.Errorf("Len %d, want %d", once.Len(), parent.Len()+2)
	}
	twice, err := once.WithAppended(batch)
	if err != nil || twice != once {
		t.Errorf("retry = (%p, %v), want the same version (%p)", twice, err, once)
	}
}

// TestWithAppendedAllocs is the work gate behind the O(batch) claim: a
// 100-row batch touching 100 objects of a 4000 × 100 table allocates
// the run headers plus the touched runs — under 1 MiB, where copying
// the table row by row allocated ~65 MB.
func TestWithAppendedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort byte counts")
	}
	tbl := New("T")
	for o := 0; o < 4000; o++ {
		for s := 0; s < 100; s++ {
			tbl.Add(Oid(o), timedim.Instant(s), float64(o), float64(s))
		}
	}
	tbl.Tuples() // sort once, as the first query does
	batch := make([]Tuple, 100)
	for i := range batch {
		batch[i] = Tuple{Oid: Oid(i * 40), T: 100, X: 1, Y: 2}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, err := tbl.WithAppended(batch)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() != tbl.Len()+100 {
		t.Fatalf("Len %d", next.Len())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a 100-row batch allocated %d bytes; want < 1 MiB", got)
	}
}

// TestVersionsConcurrentReaders: readers hammer one derived version
// while a writer derives fifty more from it; every read must see the
// version's own rows.
func TestVersionsConcurrentReaders(t *testing.T) {
	base := New("T")
	for o := 0; o < 200; o++ {
		for s := 0; s < 50; s++ {
			base.Add(Oid(o), timedim.Instant(s), float64(o), float64(s))
		}
	}
	first := make([]Tuple, 50)
	for i := range first {
		first[i] = Tuple{Oid: Oid(i * 4), T: 50, X: 1, Y: 1}
	}
	k, err := base.WithAppended(first)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRuns(nil, k.runs)

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !slices.Equal(k.Tuples(), want) {
					t.Error("Tuples changed under a writer")
					return
				}
				if c := k.Columns(); c.Len() != len(want) || c.T[c.Len()-1] != int64(want[len(want)-1].T) {
					t.Error("Columns changed under a writer")
					return
				}
				o := Oid((r*50 + i) % 200)
				if rows := k.ObjectTuples(o); len(rows) == 0 || rows[0].Oid != o {
					t.Errorf("ObjectTuples(%d) = %d rows", o, len(rows))
					return
				}
				n := 0
				k.ScanInterval(timedim.Interval{Lo: 50, Hi: 1 << 30}, func(Tuple) bool { n++; return true })
				if n != len(first) {
					t.Errorf("ScanInterval saw %d rows after t=50, want %d", n, len(first))
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := k
		for v := 1; v <= 50; v++ {
			batch := []Tuple{{Oid: Oid(v * 4), T: timedim.Instant(50 + v), X: 2, Y: 2}}
			next, err := cur.WithAppended(batch)
			if err != nil {
				t.Error(err)
				return
			}
			next.Columns()
			cur = next
		}
	}()
	wg.Wait()
}

// FuzzWithAppended: a batch of arbitrary rows (repeats, conflicts and
// out-of-order instants included) is accepted exactly when a direct
// model of the rule accepts it; an accepted batch yields the rebuilt
// table, and any batch leaves the parent unchanged.
func FuzzWithAppended(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(3), []byte{3, 9, 1, 3, 9, 2, 3, 8, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		parent, h := randomParent(rng)
		var batch []Tuple
		for i := 0; i+2 < len(data) && len(batch) < 64; i += 3 {
			batch = append(batch, Tuple{
				Oid: Oid(data[i] % 24), T: timedim.Instant(data[i+1] % 48),
				X: float64(data[i+2] % 4), Y: float64(data[i+2] / 4 % 4),
			})
		}

		// The model: a map of samples and each object's latest instant.
		type key struct {
			o Oid
			t timedim.Instant
		}
		pos := map[key]Tuple{}
		latest := map[Oid]timedim.Instant{}
		for _, tp := range h.rows {
			pos[key{tp.Oid, tp.T}] = tp
		}
		for o, l := range h.latest {
			latest[o] = l
		}
		var add []Tuple
		wantErr, wantRow := error(nil), -1
		for i, tp := range batch {
			if p, ok := pos[key{tp.Oid, tp.T}]; ok {
				if p != tp {
					wantErr, wantRow = ErrConflictingSample, i
					break
				}
				continue
			}
			if l, ok := latest[tp.Oid]; ok && tp.T <= l {
				wantErr, wantRow = ErrOutOfOrder, i
				break
			}
			pos[key{tp.Oid, tp.T}], latest[tp.Oid] = tp, tp.T
			add = append(add, tp)
		}

		prev := rebuild(rng, h.rows)
		next, err := parent.WithAppended(batch)
		if wantErr != nil {
			var ae *AppendError
			if !errors.As(err, &ae) || !errors.Is(err, wantErr) || ae.Row != wantRow {
				t.Fatalf("err = %v, want %v at row %d", err, wantErr, wantRow)
			}
		} else {
			if err != nil {
				t.Fatalf("valid batch rejected: %v", err)
			}
			if err := sameTable(next, rebuild(rng, append(slices.Clone(h.rows), add...))); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameTable(parent, prev); err != nil {
			t.Fatalf("parent changed: %v", err)
		}
	})
}

// BenchmarkWithAppended times one 100-row batch touching 100 objects
// of a sorted 4000 × 100 table.
func BenchmarkWithAppended(b *testing.B) {
	tbl := New("T")
	for o := 0; o < 4000; o++ {
		for s := 0; s < 100; s++ {
			tbl.Add(Oid(o), timedim.Instant(s), float64(o), float64(s))
		}
	}
	tbl.Tuples()
	batch := make([]Tuple, 100)
	for i := range batch {
		batch[i] = Tuple{Oid: Oid(i * 40), T: 100, X: 1, Y: 2}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.WithAppended(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// diffObjects is the reference for Since: the objects whose rows
// differ between two tables, or that only t has, ascending.
func diffObjects(t, ancestor *Table) []Oid {
	var out []Oid
	for _, o := range t.Objects() {
		if !slices.Equal(t.ObjectTuples(o), ancestor.ObjectTuples(o)) {
			out = append(out, o)
		}
	}
	return out
}

// TestSinceMatchesDiff: along a chain of random batches, Since names
// exactly the objects whose rows differ from any earlier version of
// the chain, readers skipping versions included. It refuses what does
// not descend: an earlier version asked about a later one, a sibling,
// an unrelated table holding the same rows.
func TestSinceMatchesDiff(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cur, h := randomParent(rng)
		chain := []*Table{cur}
		for step := rng.Intn(6) + 1; step > 0; step-- {
			batch, add := randomBatch(rng, h)
			next, err := cur.WithAppended(batch)
			if err != nil {
				t.Logf("seed %d: valid batch rejected: %v", seed, err)
				return false
			}
			for _, tp := range add {
				h.add(tp)
			}
			if next != cur {
				chain = append(chain, next)
			}
			cur = next
		}
		for i, anc := range chain {
			changed, ok := cur.Since(anc)
			if want := diffObjects(cur, anc); !ok || !slices.Equal(changed, want) {
				t.Logf("seed %d: Since(version %d) = %v, %v; want %v", seed, i, changed, ok, want)
				return false
			}
			if _, ok := anc.Since(cur); ok && anc != cur {
				t.Logf("seed %d: version %d descends from a later one", seed, i)
				return false
			}
		}
		if _, ok := cur.Since(rebuild(rng, h.rows)); ok {
			t.Logf("seed %d: an unrelated table counts as an ancestor", seed)
			return false
		}
		// The first child of the newest version continues the lineage;
		// a second child of an older one starts its own.
		row := []Tuple{{Oid: 1 << 40, T: 1}}
		child, err := cur.WithAppended(row)
		if err != nil {
			t.Logf("seed %d: batch rejected: %v", seed, err)
			return false
		}
		if changed, ok := child.Since(cur); !ok || !slices.Equal(changed, []Oid{1 << 40}) {
			t.Logf("seed %d: first child: Since = %v, %v", seed, changed, ok)
			return false
		}
		if len(chain) > 1 {
			sib, err := chain[0].WithAppended(row)
			if err != nil {
				t.Logf("seed %d: sibling batch rejected: %v", seed, err)
				return false
			}
			_, up := sib.Since(chain[0])
			_, across := cur.Since(sib)
			if up || across {
				t.Logf("seed %d: a second child shares its parent's lineage", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLoadingAfterReadIsNewVersion: rows loaded in place into a table
// that has been read give it a new Version outside its old lineage;
// loading before the first read does not.
func TestLoadingAfterReadIsNewVersion(t *testing.T) {
	tb := New("T")
	tb.Add(1, 10, 0, 0)
	v := tb.Version()
	tb.Add(1, 20, 1, 1)
	if tb.Version() != v {
		t.Error("loading before the first read changed the version")
	}
	child, err := tb.WithAppended([]Tuple{{Oid: 2, T: 5}})
	if err != nil {
		t.Fatal(err)
	}
	read := tb.Version()
	tb.Add(1, 30, 2, 2)
	if tb.Version() == read {
		t.Error("loading after a read kept the version")
	}
	if _, ok := child.Since(tb); ok {
		t.Error("a child descends from its parent reloaded in place")
	}
}

// Package moft implements the paper's Moving Object Fact Table
// (Section 3): a relation of tuples (Oid, t, x, y) stating that
// object Oid was at coordinates (x, y) at instant t. The table is
// kept sorted by (Oid, t), giving per-object trajectory samples by
// slicing and time-windowed scans by binary search.
package moft

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mogis/internal/geom"
	"mogis/internal/obs"
	"mogis/internal/timedim"
)

// Oid identifies a moving object.
type Oid int64

// Tuple is one MOFT row: (Oid, t, x, y).
type Tuple struct {
	Oid Oid
	T   timedim.Instant
	X   float64
	Y   float64
}

// Point returns the spatial coordinates of the tuple.
func (tp Tuple) Point() geom.Point { return geom.Pt(tp.X, tp.Y) }

// Table is a Moving Object Fact Table, stored as per-object runs: one
// run per Oid, in ascending Oid order, each holding that object's
// samples in time order.
//
// Loading (Add/AddTuple) is single-threaded: rows wait in a pending
// buffer that the first read sorts once by (Oid, t) and cuts into runs
// in place. Once loaded, any number of goroutines may read
// concurrently — the lazy sort is double-checked behind a mutex so the
// first concurrent readers race only for the lock, not the data.
//
// Live appends never write a table: WithAppended derives a new
// version that shares every run the batch does not touch, so versions
// are immutable values and a reader keeps a consistent table for as
// long as it holds one.
//
// Every table state has a Version. The versions WithAppended derives
// one from another form a lineage: a chain in which runs only grow
// forward, so Since can name what changed between two of them without
// looking at a row.
type Table struct {
	name string
	mu   sync.Mutex // guards the lazy sort and the flat and columnar builds
	// lineage and seq are the table's Version: seq counts the versions
	// derived since the lineage began.
	lineage, seq uint64
	// derived is set by the first WithAppended from this version, the
	// one that continues its lineage; later children start their own.
	derived atomic.Bool
	// pending holds the loaded rows until the first read sorts them;
	// nil once sorted.
	pending []Tuple
	sorted  atomic.Bool
	n       int
	// runs is the per-object layout, valid once sorted. Runs may be
	// shared with other versions and must never be written.
	runs []objRun
	// flat is the (Oid, t)-sorted slice behind Tuples: the sort buffer
	// itself after a load, flattened lazily for a derived version.
	flat atomic.Pointer[[]Tuple]
	// cols is the lazily built columnar snapshot.
	cols atomic.Pointer[Columns]
	// span is the lazily computed TimeSpan.
	span atomic.Pointer[timeSpan]
}

// timeSpan is a table's memoized TimeSpan.
type timeSpan struct {
	lo, hi timedim.Instant
	ok     bool
}

// objRun is one object's samples, sorted by t. Its capacity equals its
// length, so an append by a careless reader can never write into a
// neighbouring run.
type objRun struct {
	oid  Oid
	rows []Tuple
}

// New creates an empty MOFT with the given name (e.g. "FMbus").
func New(name string) *Table {
	t := &Table{name: name, lineage: newLineage()}
	t.sorted.Store(true)
	return t
}

// lineages issues lineage tokens; 0 is never issued.
var lineages atomic.Uint64

func newLineage() uint64 { return lineages.Add(1) }

// Version identifies one state of a table. Two equal Versions hold the
// same rows: a version derived by WithAppended gets its own, and
// loading rows into a table that has been read gives it a new one.
type Version struct{ lineage, seq uint64 }

// Version returns the table's current version.
func (t *Table) Version() Version { return Version{t.lineage, t.seq} }

// Since returns, ascending, the objects whose samples differ between
// an ancestor version and t: those whose run grew and those new in t.
// ok is false when t does not descend from ancestor through
// WithAppended (another lineage, or a later version); the caller must
// then treat every object as changed. It costs O(objects): inside a
// lineage runs only grow forward, so a run changed exactly when its
// length did.
func (t *Table) Since(ancestor *Table) (changed []Oid, ok bool) {
	if ancestor.lineage != t.lineage || ancestor.seq > t.seq {
		return nil, false
	}
	t.ensureSorted()
	ancestor.ensureSorted()
	old := ancestor.runs
	for _, r := range t.runs {
		if len(old) > 0 && old[0].oid < r.oid {
			return nil, false // an object vanished: not a descendant
		}
		if len(old) > 0 && old[0].oid == r.oid {
			if len(old[0].rows) != len(r.rows) {
				changed = append(changed, r.oid)
			}
			old = old[1:]
			continue
		}
		changed = append(changed, r.oid)
	}
	return changed, len(old) == 0
}

// Name returns the fact table name.
func (t *Table) Name() string { return t.name }

// Len returns the number of tuples.
func (t *Table) Len() int { return t.n }

// Add appends a tuple.
func (t *Table) Add(oid Oid, ts timedim.Instant, x, y float64) {
	t.AddTuple(Tuple{Oid: oid, T: ts, X: x, Y: y})
}

// AddTuple appends a prebuilt tuple. Adding to a table that has
// already been read first copies its rows into a private buffer: its
// runs may be shared with derived versions and with slices handed out
// to readers, and the next sort must not reorder them. While the table
// is unsorted no snapshot can exist, so only the first Add after a
// read clears them, and starts a new lineage: the table no longer
// holds the rows any earlier reader saw under its old Version.
func (t *Table) AddTuple(tp Tuple) {
	if t.sorted.Load() {
		if t.n > 0 {
			t.pending = appendRuns(make([]Tuple, 0, 2*t.n), t.runs)
		}
		t.lineage, t.seq = newLineage(), 0
		t.derived.Store(false)
		t.sorted.Store(false)
		t.flat.Store(nil)
		t.cols.Store(nil)
		t.span.Store(nil)
	}
	t.pending = append(t.pending, tp)
	t.n++
}

// appendRuns appends the rows of runs to dst in run order.
func appendRuns(dst []Tuple, runs []objRun) []Tuple {
	for _, r := range runs {
		dst = append(dst, r.rows...)
	}
	return dst
}

// ensureSorted sorts the pending rows by (Oid, t) and cuts them into
// runs. Safe to call from concurrent readers: the atomic fast path
// avoids the lock once sorted.
func (t *Table) ensureSorted() {
	if t.sorted.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sorted.Load() {
		return
	}
	all := t.pending
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Oid != b.Oid {
			return a.Oid < b.Oid
		}
		return a.T < b.T
	})
	obs.Std.MOFTSorts.Inc()
	var runs []objRun
	start := 0
	for i := 1; i <= len(all); i++ {
		if i == len(all) || all[i].Oid != all[start].Oid {
			runs = append(runs, objRun{oid: all[start].Oid, rows: all[start:i:i]})
			start = i
		}
	}
	t.runs, t.pending = runs, nil
	t.flat.Store(&all)
	t.sorted.Store(true)
}

// Tuples returns all tuples sorted by (Oid, t). The returned slice is
// shared; callers must not mutate it.
func (t *Table) Tuples() []Tuple {
	if p := t.flat.Load(); p != nil {
		return *p
	}
	t.ensureSorted()
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.flat.Load(); p != nil {
		return *p
	}
	var all []Tuple
	if t.n > 0 {
		all = appendRuns(make([]Tuple, 0, t.n), t.runs)
	}
	t.flat.Store(&all)
	return all
}

// Objects returns the distinct object identifiers, sorted.
func (t *Table) Objects() []Oid {
	t.ensureSorted()
	out := make([]Oid, len(t.runs))
	for i, r := range t.runs {
		out[i] = r.oid
	}
	return out
}

// ObjectTuples returns the tuples of one object in time order (shared
// slice).
func (t *Table) ObjectTuples(o Oid) []Tuple {
	t.ensureSorted()
	i := sort.Search(len(t.runs), func(i int) bool { return t.runs[i].oid >= o })
	if i < len(t.runs) && t.runs[i].oid == o {
		return t.runs[i].rows
	}
	return nil
}

// TimeSpan returns the minimum and maximum instants present, with
// ok=false for an empty table. Runs are time-sorted, so only their
// ends are read, once per version: O(objects) the first time, O(1)
// after.
func (t *Table) TimeSpan() (lo, hi timedim.Instant, ok bool) {
	if sp := t.span.Load(); sp != nil {
		return sp.lo, sp.hi, sp.ok
	}
	t.ensureSorted()
	sp := &timeSpan{ok: len(t.runs) > 0}
	for i, r := range t.runs {
		first, last := r.rows[0].T, r.rows[len(r.rows)-1].T
		if i == 0 || first < sp.lo {
			sp.lo = first
		}
		if i == 0 || last > sp.hi {
			sp.hi = last
		}
	}
	t.span.Store(sp)
	return sp.lo, sp.hi, sp.ok
}

// BBox returns the spatial bounding box of all samples.
func (t *Table) BBox() geom.BBox {
	t.ensureSorted()
	b := geom.EmptyBBox()
	for _, r := range t.runs {
		for _, tp := range r.rows {
			b = b.ExtendPoint(tp.Point())
		}
	}
	return b
}

// Scan calls f for every tuple in (Oid, t) order; returning false
// stops the scan.
func (t *Table) Scan(f func(Tuple) bool) {
	t.ensureSorted()
	n := int64(0)
	defer func() { obs.Std.MOFTTuplesScanned.Add(n) }()
	for _, r := range t.runs {
		for _, tp := range r.rows {
			n++
			if !f(tp) {
				return
			}
		}
	}
}

// ScanInterval calls f for every tuple with T in [iv.Lo, iv.Hi],
// using per-object binary search.
func (t *Table) ScanInterval(iv timedim.Interval, f func(Tuple) bool) {
	t.ensureSorted()
	n := int64(0)
	defer func() { obs.Std.MOFTTuplesScanned.Add(n) }()
	for _, r := range t.runs {
		tps := r.rows
		i := sort.Search(len(tps), func(i int) bool { return tps[i].T >= iv.Lo })
		for ; i < len(tps) && tps[i].T <= iv.Hi; i++ {
			n++
			if !f(tps[i]) {
				return
			}
		}
	}
}

// Filter returns a new table (same name, suffixed) containing the
// tuples for which keep returns true. This realizes derived fact
// tables such as the paper's FM^bus_morning.
func (t *Table) Filter(suffix string, keep func(Tuple) bool) *Table {
	out := New(t.name + suffix)
	for _, tp := range t.Tuples() {
		if keep(tp) {
			out.AddTuple(tp)
		}
	}
	return out
}

// WriteCSV writes "oid,t,x,y" rows (with header) to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"oid", "t", "x", "y"}); err != nil {
		return fmt.Errorf("moft: write header: %w", err)
	}
	for _, tp := range t.Tuples() {
		rec := []string{
			strconv.FormatInt(int64(tp.Oid), 10),
			strconv.FormatInt(int64(tp.T), 10),
			strconv.FormatFloat(tp.X, 'g', -1, 64),
			strconv.FormatFloat(tp.Y, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("moft: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a table written by WriteCSV.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("moft: read csv: %w", err)
	}
	t := New(name)
	for i, rec := range recs {
		if i == 0 && len(rec) > 0 && rec[0] == "oid" {
			continue // header
		}
		if len(rec) != 4 {
			return nil, fmt.Errorf("moft: row %d: want 4 fields, got %d", i, len(rec))
		}
		oid, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("moft: row %d oid: %w", i, err)
		}
		ts, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("moft: row %d t: %w", i, err)
		}
		x, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("moft: row %d x: %w", i, err)
		}
		y, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("moft: row %d y: %w", i, err)
		}
		t.Add(Oid(oid), timedim.Instant(ts), x, y)
	}
	return t, nil
}

// String renders the table like the paper's Table 1.
func (t *Table) String() string {
	out := fmt.Sprintf("%s: Oid | t | (x, y)\n", t.name)
	for _, tp := range t.Tuples() {
		out += fmt.Sprintf("O%d | %d | (%g, %g)\n", tp.Oid, tp.T, tp.X, tp.Y)
	}
	return out
}

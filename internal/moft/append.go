package moft

import (
	"errors"
	"fmt"
	"sort"
)

// The rejections of WithAppended. Both keep the MOFT a function
// (Oid, t) → (x, y) whose per-object samples only ever grow forward in
// time.
var (
	// ErrConflictingSample: the batch gives an (Oid, t) that is already
	// present, stored or earlier in the batch, a different position.
	ErrConflictingSample = errors.New("conflicting sample")
	// ErrOutOfOrder: the batch gives an object a new instant that is
	// not after the object's latest sample, stored or earlier in the
	// batch.
	ErrOutOfOrder = errors.New("out-of-order sample")
)

// AppendError is WithAppended's rejection of a whole batch, naming the
// first offending row. It unwraps to ErrConflictingSample or
// ErrOutOfOrder.
type AppendError struct {
	Row   int // index into the batch
	Tuple Tuple
	Err   error
}

func (e *AppendError) Error() string {
	return fmt.Sprintf("moft: batch row %d (oid %d, t %d): %v", e.Row, e.Tuple.Oid, e.Tuple.T, e.Err)
}

func (e *AppendError) Unwrap() error { return e.Err }

// WithAppended returns a new version of t holding t's rows plus the
// batch, or an *AppendError rejecting the whole batch. A row identical
// to a stored sample, or to an earlier row of the batch, is a no-op,
// so a retried batch is idempotent; when every row is a no-op the
// result is t itself.
//
// The new version shares every run the batch does not touch: it copies
// the run headers (O(objects)) and rebuilds each touched run with one
// exact-size allocation. Because accepted rows are always after their
// object's latest sample, a touched run is its old rows followed by
// the batch's, with no merge. t's rows are never written, so any
// number of versions may be derived from one parent while readers use
// it. The first version derived from t continues t's lineage; any
// later one, a sibling, starts its own, so that a lineage stays a
// chain.
func (t *Table) WithAppended(batch []Tuple) (*Table, error) {
	add, err := t.plan(batch)
	if err != nil {
		return nil, err
	}
	if len(add) == 0 {
		return t, nil
	}
	// Group by object. Each object's accepted rows are in time order
	// already, and the stable sort keeps them so.
	sort.SliceStable(add, func(i, j int) bool { return add[i].Oid < add[j].Oid })

	next := &Table{name: t.name, n: t.n + len(add), lineage: t.lineage, seq: t.seq + 1}
	if !t.derived.CompareAndSwap(false, true) {
		next.lineage, next.seq = newLineage(), 0
	}
	runs := make([]objRun, 0, len(t.runs)+len(add))
	old := t.runs
	for j := 0; j < len(add); {
		o := add[j].Oid
		k := j + 1
		for k < len(add) && add[k].Oid == o {
			k++
		}
		for len(old) > 0 && old[0].oid < o {
			runs = append(runs, old[0])
			old = old[1:]
		}
		if len(old) > 0 && old[0].oid == o {
			rows := make([]Tuple, len(old[0].rows)+k-j)
			copy(rows[copy(rows, old[0].rows):], add[j:k])
			runs = append(runs, objRun{oid: o, rows: rows})
			old = old[1:]
		} else {
			runs = append(runs, objRun{oid: o, rows: add[j:k:k]})
		}
		j = k
	}
	next.runs = append(runs, old...)
	next.sorted.Store(true)
	return next, nil
}

// Applied returns, in batch order, the rows of a batch that
// WithAppended adds to t: the batch without its no-op repeats. It is
// meaningful only for a batch WithAppended accepts from t.
func (t *Table) Applied(batch []Tuple) []Tuple {
	add, _ := t.plan(batch)
	return add
}

// plan validates batch against t and returns the rows it adds, in
// batch order, in a fresh slice.
func (t *Table) plan(batch []Tuple) ([]Tuple, error) {
	t.ensureSorted()
	// Per touched object: its stored run and the rows accepted so far,
	// both time-sorted and every accepted row after every stored one.
	type object struct{ stored, added []Tuple }
	objs := make(map[Oid]*object)
	var add []Tuple
	for i, tp := range batch {
		ob := objs[tp.Oid]
		if ob == nil {
			ob = &object{stored: t.ObjectTuples(tp.Oid)}
			objs[tp.Oid] = ob
		}
		latest, ok := lastSample(ob.added)
		if !ok {
			latest, ok = lastSample(ob.stored)
		}
		if !ok || tp.T > latest.T {
			ob.added = append(ob.added, tp)
			add = append(add, tp)
			continue
		}
		same, found := sampleAt(ob.stored, tp)
		if !found {
			same, found = sampleAt(ob.added, tp)
		}
		switch {
		case found && same == tp:
			// A repeat: nothing to apply.
		case found:
			return nil, &AppendError{Row: i, Tuple: tp, Err: ErrConflictingSample}
		default:
			return nil, &AppendError{Row: i, Tuple: tp, Err: ErrOutOfOrder}
		}
	}
	return add, nil
}

// lastSample returns the latest row of a time-sorted run.
func lastSample(rows []Tuple) (Tuple, bool) {
	if len(rows) == 0 {
		return Tuple{}, false
	}
	return rows[len(rows)-1], true
}

// sampleAt returns the row of a time-sorted run at tp's instant.
func sampleAt(rows []Tuple, tp Tuple) (Tuple, bool) {
	i := sort.Search(len(rows), func(i int) bool { return rows[i].T >= tp.T })
	if i < len(rows) && rows[i].T == tp.T {
		return rows[i], true
	}
	return Tuple{}, false
}

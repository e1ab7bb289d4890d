// Package bad mutates a table without clearing its derived snapshot,
// which the cacheinvalidate analyzer must catch.
package bad

import "sync/atomic"

type Columns struct{}

// Table carries a derived columnar snapshot.
type Table struct {
	tuples []int
	cols   atomic.Pointer[Columns]
}

// Append mutates the backing slice but leaves the stale snapshot in
// place (rule 1).
func (t *Table) Append(v int) { // want
	t.tuples = append(t.tuples, v)
}

// Set overwrites an element without clearing the snapshot (rule 1).
func (t *Table) Set(i, v int) { // want
	t.tuples[i] = v
}

// Package good pairs every table mutation with the matching snapshot
// clear; cacheinvalidate must stay silent.
package good

import (
	"sync/atomic"

	"mogis/internal/core"
	"mogis/internal/fo"
	"mogis/internal/moft"
)

type Columns struct{}

// Table carries a derived columnar snapshot.
type Table struct {
	tuples []int
	cols   atomic.Pointer[Columns]
}

// Append clears the snapshot directly (rule 1).
func (t *Table) Append(v int) {
	t.tuples = append(t.tuples, v)
	t.cols.Store(nil)
}

// Set routes the clear through a helper method (rule 1, one level).
func (t *Table) Set(i, v int) {
	t.tuples[i] = v
	t.invalidate()
}

func (t *Table) invalidate() { t.cols.Store(nil) }

// Len reads without mutating — no clear required.
func (t *Table) Len() int { return len(t.tuples) }

// refill mutates a fact table while an engine is in scope and never
// invalidates it: the engine's caches belong to a table version, and
// loading rows into a table that was read gives it a new version.
func refill(eng *core.Engine, ctx *fo.Context) {
	tb, _ := ctx.Table("bus")
	tb.Add(1, 2, 3, 4)
	tb.AddTuple(moft.Tuple{})
	_ = eng
}

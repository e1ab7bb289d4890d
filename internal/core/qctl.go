package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/qerr"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
)

// This file implements the engine's per-query control plane: the
// resource Budget callers attach to a context, the qctl tracker every
// exported entry point threads through its scan loops and fan-outs,
// and run, the one bracket every entry point runs its body in: it
// applies the wall-clock deadline, recovers panics at the API
// boundary, and classifies how each query ended into the obs counters
// (cancelled, budget-exceeded, panicked).

// checkEvery is the row stride between cooperative cancellation and
// budget checks inside scan loops: a cancel or deadline is observed
// within at most one stride (plus one chunk of fan-out work), keeping
// abort latency bounded without putting an atomic on every row.
const checkEvery = 1024

// Budget bounds one query's resource consumption. The zero value is
// unlimited. Attach it with WithBudget; every engine entry point
// enforces it at the same cooperative checkpoints that observe
// cancellation, returning a *qerr.BudgetError on the first limit
// crossed.
type Budget struct {
	// MaxRows caps the MOFT rows / trajectory samples the query may
	// examine (0 = unlimited).
	MaxRows int64
	// MaxResults caps the items of the query's answer — its objects,
	// or the tuples of a region C (0 = unlimited). It is charged from
	// the answer, never from intermediate structures, so whether a
	// cache was warm does not change which queries it aborts.
	MaxResults int64
	// Timeout, when positive, is a wall-clock deadline applied at
	// query entry via context.WithTimeout (composes with any deadline
	// already on the context; the earlier one wins).
	Timeout time.Duration
}

type budgetCtxKey struct{}

// WithBudget returns a context carrying b; engine queries run under
// it enforce the budget at their cancellation checkpoints.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetCtxKey{}, b)
}

// BudgetFrom extracts the budget attached by WithBudget, if any.
func BudgetFrom(ctx context.Context) (Budget, bool) {
	b, ok := ctx.Value(budgetCtxKey{}).(Budget)
	return b, ok
}

// qctl is one query's control state: the budget in force, the
// rows/results consumed so far, and the cache hit/miss tally the
// telemetry record reports, shared atomically across the query's
// worker goroutines.
type qctl struct {
	budget      Budget
	rows        atomic.Int64
	results     atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// window is the query's time-interval width in model time
	// (Hi-Lo+1), 0 for untimed queries; reported on the telemetry
	// record so adaptive time-bucket sizing can observe the workload.
	window atomic.Int64

	// The query's table, resolved once in run: the version it reads
	// and the cache entry of exactly that version (see Engine.view), or
	// the error resolving it. Unset for queries over no table.
	tbl  *moft.Table
	tc   *tableCache
	terr error
}

// table returns the table version the query reads.
func (q *qctl) table() (*moft.Table, error) {
	tbl, _, err := q.entry()
	return tbl, err
}

// entry returns the table version the query reads and its cache entry.
// A table query named no table when both are unset: run resolves a
// table only for a non-empty name.
func (q *qctl) entry() (*moft.Table, *tableCache, error) {
	if q.tc == nil && q.terr == nil {
		return nil, nil, fmt.Errorf("core: unknown table %q", "")
	}
	return q.tbl, q.tc, q.terr
}

// cacheHit tallies one engine cache lookup (LIT cache, interval
// cache) for the query's telemetry record. Nil-safe.
func (q *qctl) cacheHit(hit bool) {
	if q == nil {
		return
	}
	if hit {
		q.cacheHits.Add(1)
	} else {
		q.cacheMisses.Add(1)
	}
}

// noteWindow records the width of the query's closed time interval on
// the tracker. Inverted intervals record nothing. Nil-safe.
func (q *qctl) noteWindow(iv timedim.Interval) {
	if q == nil || iv.Hi < iv.Lo {
		return
	}
	q.window.Store(int64(iv.Hi-iv.Lo) + 1)
}

// step is the bare cooperative checkpoint: cancellation only.
func (q *qctl) step(ctx context.Context) error {
	return ctx.Err()
}

// addRows consumes n scanned rows and checks both cancellation and
// the row budget. Nil-safe (a nil qctl only checks the context).
func (q *qctl) addRows(ctx context.Context, n int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if q == nil {
		return nil
	}
	used := q.rows.Add(n)
	if max := q.budget.MaxRows; max > 0 && used > max {
		return &qerr.BudgetError{Resource: "rows", Limit: max, Used: used}
	}
	return nil
}

// addResults consumes n produced result items against the budget.
func (q *qctl) addResults(n int64) error {
	if q == nil {
		return nil
	}
	used := q.results.Add(n)
	if max := q.budget.MaxResults; max > 0 && used > max {
		return &qerr.BudgetError{Resource: "results", Limit: max, Used: used}
	}
	return nil
}

// run runs one exported entry point's body inside the query bracket.
// It resolves the context's Budget and, for a query over a table, the
// table version and its cache entry, applies the budget's wall-clock
// deadline, and bumps the type-typ query counter (0 counts nothing).
// When body returns or panics, run recovers the panic into the
// returned error, classifies the outcome into the obs counters and the
// trace, and — when a telemetry collector is attached — records one
// QueryRecord for the op/table pair. The clock reads happen only when
// telemetry is on, so the disabled bracket costs the same as before
// telemetry existed.
func run[T any](ctx context.Context, e *Engine, op, table string, typ int, body func(context.Context, *qctl) (T, error)) (_ T, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, _ := BudgetFrom(ctx)
	if b.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.Timeout)
		defer cancel()
	}
	qc := &qctl{budget: b}
	if table != "" {
		qc.tbl, qc.tc, qc.terr = e.view(table)
	}
	tel := e.telemetry()
	var start time.Time
	if tel.Enabled() {
		start = time.Now()
	}
	defer func() {
		if v := recover(); v != nil {
			err = qerr.NewPanic("core/query", v)
		}
		out := e.classify(ctx, err)
		if !tel.Enabled() {
			return
		}
		rec := telemetry.QueryRecord{
			Op:          op,
			Table:       table,
			Start:       start,
			Duration:    time.Since(start),
			Outcome:     out,
			RowsScanned: qc.rows.Load(),
			Results:     qc.results.Load(),
			CacheHits:   qc.cacheHits.Load(),
			CacheMisses: qc.cacheMisses.Load(),
			Window:      qc.window.Load(),
		}
		if err != nil {
			rec.Err = err.Error()
		}
		tel.Record(rec)
	}()
	if typ != 0 {
		e.countQuery(typ)
	}
	return body(ctx, qc)
}

// classify maps a query's final error to the robustness counters and
// marks the trace ctx carries, returning its telemetry outcome.
func (e *Engine) classify(ctx context.Context, err error) telemetry.Outcome {
	out := telemetry.OutcomeOf(err)
	met := e.metrics()
	switch out {
	case telemetry.OutcomeCancelled:
		met.QueriesCancelled.Inc()
		obs.TracerFrom(ctx).Event("cancel")
	case telemetry.OutcomeBudgetRows:
		met.BudgetRowsExceeded.Inc()
		obs.TracerFrom(ctx).Event("budget")
	case telemetry.OutcomeBudgetResults:
		met.BudgetResultsExceeded.Inc()
		obs.TracerFrom(ctx).Event("budget")
	case telemetry.OutcomePanic:
		met.QueryPanics.Inc()
	}
	return out
}

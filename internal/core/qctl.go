package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mogis/internal/faultpoint"
	"mogis/internal/moft"
	"mogis/internal/qerr"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
)

// This file implements the engine's per-query control plane: the
// resource Budget callers attach to a context, the qctl tracker every
// exported entry point threads through its scan loops and fan-outs,
// and the begin/done bracket that applies the wall-clock deadline,
// recovers panics at the API boundary, and classifies how each query
// ended into the obs counters (cancelled, budget-exceeded, panicked).

// checkEvery is the row stride between cooperative cancellation and
// budget checks inside scan loops: a cancel or deadline is observed
// within at most one stride (plus one chunk of fan-out work), keeping
// abort latency bounded without putting an atomic on every row.
const checkEvery = 1024

// Budget bounds one query's resource consumption. The zero value is
// unlimited. Attach it with WithBudget; every engine entry point
// enforces it at the same cooperative checkpoints that observe
// cancellation, returning a *BudgetError on the first limit crossed.
type Budget struct {
	// MaxRows caps the MOFT rows / trajectory samples the query may
	// examine (0 = unlimited).
	MaxRows int64
	// MaxResults caps the result items the query may produce — result
	// intervals for the trajectory paths, matched objects for scans
	// (0 = unlimited).
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

// BudgetError reports a query aborted at a resource budget.
type BudgetError struct {
	Resource string // "rows" or "results"
	Limit    int64
	Used     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: query exceeded its %s budget (%d > %d)", e.Resource, e.Used, e.Limit)
}

// IsBudget reports whether err is a budget abort.
func IsBudget(err error) bool {
	var be *BudgetError
	return errors.As(err, &be)
}

// isInjected reports whether err originates at an armed faultpoint —
// a transient abort that must not evict cache entries (retry after
// disarming must rebuild cleanly).
func isInjected(err error) bool {
	var f *faultpoint.Fault
	return errors.As(err, &f)
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

	// The query's table, resolved once in begin: the version it reads
	// and the cache entry of exactly that version (see Engine.view), or
	// the error resolving it. Unset for queries over no table.
	tbl  *moft.Table
	tc   *tableCache
	terr error
}

// table returns the table version the query reads.
func (q *qctl) table() (*moft.Table, error) { return q.tbl, q.terr }

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
		return &BudgetError{Resource: "rows", Limit: max, Used: used}
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
		return &BudgetError{Resource: "results", Limit: max, Used: used}
	}
	return nil
}

// begin opens the per-query control bracket for an exported entry
// point: it resolves the context's Budget and, for a query over a
// table, the table version and its cache entry, applies its wall-clock
// deadline, and returns the tracker, the (possibly deadlined) context
// and the done func the entry point must defer with a pointer to its
// named error result. done recovers any panic that escaped the
// panic-isolated inner layers, releases the deadline timer, classifies
// the outcome into the obs counters and the trace, and — when a
// telemetry collector is attached — records one QueryRecord for the
// op/table pair. The clock reads happen only when telemetry is on, so
// the disabled bracket costs the same as before telemetry existed.
func (e *Engine) begin(ctx context.Context, op, table string) (*qctl, context.Context, func(*error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, _ := BudgetFrom(ctx)
	cancel := func() {}
	if b.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, b.Timeout)
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
	done := func(errp *error) {
		if v := recover(); v != nil {
			*errp = qerr.NewPanic("core/query", v)
		}
		cancel()
		out := e.classify(*errp)
		if tel.Enabled() {
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
			if *errp != nil {
				rec.Err = (*errp).Error()
			}
			tel.Record(rec)
		}
	}
	return qc, ctx, done
}

// classify maps a query's final error to the robustness counters and
// marks the trace, returning the telemetry outcome. Shared by begin's
// done func and the helpers that end queries off the main bracket.
func (e *Engine) classify(err error) telemetry.Outcome {
	if err == nil {
		return telemetry.OutcomeOK
	}
	met := e.metrics()
	var be *BudgetError
	switch {
	case qerr.IsCancel(err):
		met.QueriesCancelled.Inc()
		e.mctx.Tracer().Event("cancel")
		return telemetry.OutcomeCancelled
	case errors.As(err, &be):
		if be.Resource == "rows" {
			met.BudgetRowsExceeded.Inc()
			e.mctx.Tracer().Event("budget")
			return telemetry.OutcomeBudgetRows
		}
		met.BudgetResultsExceeded.Inc()
		e.mctx.Tracer().Event("budget")
		return telemetry.OutcomeBudgetResults
	case qerr.IsPanic(err):
		met.QueryPanics.Inc()
		return telemetry.OutcomePanic
	}
	return telemetry.OutcomeError
}

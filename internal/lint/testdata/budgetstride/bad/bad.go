// Package bad scans MOFT rows on budget-governed paths without a
// bounded budget check.
package bad

import (
	"context"

	"mogis/internal/moft"
)

// qctl mirrors the engine's query controller shape; the analyzer
// resolves it by type name.
type qctl struct{}

func (q *qctl) step(ctx context.Context) error             { return nil }
func (q *qctl) addRows(ctx context.Context, n int64) error { return nil }
func (q *qctl) addResults(n int64) error                   { return nil }

// neverChecks scans every row without consulting the budget.
func neverChecks(ctx context.Context, qc *qctl, cols *moft.Columns) int {
	n := 0
	for r := 0; r < cols.Len(); r++ { // want
		if cols.T[r] > 0 {
			n++
		}
	}
	return n
}

// strideTooWide checks, but only every 4096 rows — four times the
// checkEvery contract.
func strideTooWide(ctx context.Context, qc *qctl, cols *moft.Columns) error {
	for r := 0; r < cols.Len(); r++ { // want
		if r%4096 == 0 {
			if err := qc.addRows(ctx, 4096); err != nil {
				return err
			}
		}
	}
	return nil
}

// unboundedGuard only checks under a data-dependent condition; the
// stride cannot be bounded.
func unboundedGuard(ctx context.Context, qc *qctl, cols *moft.Columns, hot bool) error {
	for r := 0; r < cols.Len(); r++ { // want
		if hot {
			if err := qc.step(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// oidLoopNoCheck walks the candidate set without a check.
func oidLoopNoCheck(ctx context.Context, qc *qctl, cand []moft.Oid) int {
	n := 0
	for _, oid := range cand { // want
		if oid > 0 {
			n++
		}
	}
	return n
}

// run mirrors the engine's query bracket: entry points hand it their
// body as a function literal that receives the controller.
func run[T any](ctx context.Context, body func(context.Context, *qctl) (T, error)) (T, error) {
	return body(ctx, &qctl{})
}

// closureNoCheck is an entry point whose body, inside the literal it
// hands to run, scans every row without consulting the budget.
func closureNoCheck(ctx context.Context, cols *moft.Columns) (int, error) {
	return run(ctx, func(ctx context.Context, qc *qctl) (int, error) {
		n := 0
		for r := 0; r < cols.Len(); r++ { // want
			if cols.T[r] > 0 {
				n++
			}
		}
		return n, nil
	})
}

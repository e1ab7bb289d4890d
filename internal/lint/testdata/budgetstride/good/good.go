// Package good checks the query budget within checkEvery rows on
// every governed scan.
package good

import (
	"context"

	"mogis/internal/moft"
)

type qctl struct{}

func (q *qctl) step(ctx context.Context) error             { return nil }
func (q *qctl) addRows(ctx context.Context, n int64) error { return nil }
func (q *qctl) addResults(n int64) error                   { return nil }

const checkEvery = 1024

// unconditional checks the budget on every row.
func unconditional(ctx context.Context, qc *qctl, cols *moft.Columns) error {
	for r := 0; r < cols.Len(); r++ {
		if err := qc.step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// moduloStride uses the engine's i%256 pattern.
func moduloStride(ctx context.Context, qc *qctl, cand []moft.Oid) error {
	for i, oid := range cand {
		if i%256 == 255 {
			if err := qc.addRows(ctx, 256); err != nil {
				return err
			}
		}
		_ = oid
	}
	return nil
}

// pendingThreshold accumulates and flushes at the checkEvery constant,
// which the type checker folds to 1024.
func pendingThreshold(ctx context.Context, qc *qctl, cols *moft.Columns) error {
	pending := int64(0)
	for r := 0; r < cols.Len(); r++ {
		pending++
		if pending >= checkEvery {
			if err := qc.addRows(ctx, pending); err != nil {
				return err
			}
			pending = 0
		}
	}
	return nil
}

// nestedInner is covered by the check in its outermost row-scan loop.
func nestedInner(ctx context.Context, qc *qctl, cols *moft.Columns) error {
	for i := 0; i < cols.NumObjects(); i++ {
		if err := qc.step(ctx); err != nil {
			return err
		}
		lo, hi := cols.ObjectRange(i)
		for r := lo; r < hi; r++ {
			_ = cols.T[r]
		}
	}
	return nil
}

// notGoverned has no controller in scope: index builders and loaders
// may scan freely.
func notGoverned(cols *moft.Columns) int {
	n := 0
	for r := 0; r < cols.Len(); r++ {
		n++
	}
	return n
}

// run mirrors the engine's query bracket: entry points hand it their
// body as a function literal that receives the controller.
func run[T any](ctx context.Context, body func(context.Context, *qctl) (T, error)) (T, error) {
	return body(ctx, &qctl{})
}

// closureStride is an entry point whose body, inside the literal it
// hands to run, checks the budget every 256 rows.
func closureStride(ctx context.Context, cols *moft.Columns) (int, error) {
	return run(ctx, func(ctx context.Context, qc *qctl) (int, error) {
		n := 0
		for r := 0; r < cols.Len(); r++ {
			if r%256 == 255 {
				if err := qc.step(ctx); err != nil {
					return 0, err
				}
			}
			if cols.T[r] > 0 {
				n++
			}
		}
		return n, nil
	})
}

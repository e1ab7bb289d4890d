// Package good satisfies the telemetry begin/done bracket contract.
package good

import "context"

type qctl struct{}

func (q *qctl) noteWindow(lo, hi int64) {}

// Engine mirrors the core engine facade.
type Engine struct{}

func (e *Engine) begin(ctx context.Context, op, table string) (*qctl, context.Context, func(*error)) {
	return &qctl{}, ctx, func(*error) {}
}

// Count brackets correctly: begin, then defer done(&err) before any
// branch, against the named error result.
func (e *Engine) Count(ctx context.Context, table string) (n int, err error) {
	qc, ctx, done := e.begin(ctx, "count", table)
	defer done(&err)
	_, _ = qc, ctx
	return 1, nil
}

// Windowed interposes a straight-line statement between begin and the
// defer — allowed while control cannot branch.
func (e *Engine) Windowed(ctx context.Context, table string, lo, hi int64) (err error) {
	qc, ctx, done := e.begin(ctx, "windowed", table)
	qc.noteWindow(lo, hi)
	defer done(&err)
	_ = ctx
	return nil
}

// Flush is exported and returns an error but is not a query; the
// directive keeps it out of the contract.
//
//moglint:nobracket
func (e *Engine) Flush(ctx context.Context) error {
	return nil
}

// unexported helpers that never touch the bracket are fine.
func validate(table string) error {
	if table == "" {
		return context.Canceled
	}
	return nil
}

// ServeCount is server-shaped: bracket once up front, then fan the
// work out to a joined worker goroutine. The closure opens no bracket
// of its own — the method's bracket already observes the outcome.
func (e *Engine) ServeCount(ctx context.Context, table string) (err error) {
	qc, ctx, done := e.begin(ctx, "serve_count", table)
	defer done(&err)
	out := make(chan error, 1)
	go func() { out <- nil }()
	_ = qc
	_ = ctx
	return <-out
}

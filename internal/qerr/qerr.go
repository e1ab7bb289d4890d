// Package qerr defines the typed errors shared by the engine's
// cancellable query paths: the recovered-panic error produced by
// worker-pool panic isolation, the resource-budget abort, the Piet-QL
// parse failure, and helpers for classifying cancellation. It sits
// below core, overlay and pietql so all three can agree on one error
// vocabulary without import cycles.
package qerr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// QueryPanicError is a panic recovered inside a query path (a worker
// goroutine, a cache build, an overlay pair). The panicking worker's
// stack is captured at recovery time; sibling workers drain cleanly
// and the engine stays usable.
type QueryPanicError struct {
	// Op names the path that recovered the panic (e.g. "core/fanout").
	Op string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// NewPanic wraps a recovered panic value into a QueryPanicError,
// capturing the current goroutine's stack. Call it directly inside
// the recover() branch so the stack still shows the panic site.
func NewPanic(op string, value any) *QueryPanicError {
	return &QueryPanicError{Op: op, Value: value, Stack: debug.Stack()}
}

func (e *QueryPanicError) Error() string {
	return fmt.Sprintf("%s: recovered panic: %v", e.Op, e.Value)
}

// IsPanic reports whether err wraps a recovered query panic.
func IsPanic(err error) bool {
	var pe *QueryPanicError
	return errors.As(err, &pe)
}

// IsCancel reports whether err means the query was cancelled or timed
// out (context.Canceled or context.DeadlineExceeded anywhere in the
// chain).
func IsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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

// ParseError marks an error raised while parsing the Piet-QL query
// text (as opposed to evaluating it), so callers — the pietql CLI maps
// parse errors to a distinct exit code — can tell the two apart with
// errors.As.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// IsParseError reports whether err originated in the Piet-QL parser.
func IsParseError(err error) bool {
	var pe *ParseError
	return errors.As(err, &pe)
}

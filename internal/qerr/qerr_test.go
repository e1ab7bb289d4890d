package qerr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestNewPanicCapturesStack(t *testing.T) {
	var err error
	func() {
		defer func() {
			if v := recover(); v != nil {
				err = NewPanic("test/op", v)
			}
		}()
		panic("boom")
	}()
	var pe *QueryPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *QueryPanicError", err)
	}
	if pe.Op != "test/op" || pe.Value != "boom" {
		t.Errorf("panic error = %+v", pe)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "qerr") {
		t.Errorf("stack not captured: %q", pe.Stack)
	}
	if !IsPanic(err) {
		t.Error("IsPanic = false")
	}
	if !IsPanic(fmt.Errorf("wrapped: %w", err)) {
		t.Error("IsPanic through wrapping = false")
	}
}

func TestIsCancel(t *testing.T) {
	if !IsCancel(context.Canceled) {
		t.Error("Canceled not recognized")
	}
	if !IsCancel(context.DeadlineExceeded) {
		t.Error("DeadlineExceeded not recognized")
	}
	if !IsCancel(fmt.Errorf("query: %w", context.Canceled)) {
		t.Error("wrapped Canceled not recognized")
	}
	if IsCancel(errors.New("other")) {
		t.Error("plain error misclassified as cancel")
	}
	if IsCancel(nil) {
		t.Error("nil misclassified as cancel")
	}
}

// TestBudgetAndParseErrors: both typed errors are recognised through
// %w wrapping, and neither is mistaken for the other.
func TestBudgetAndParseErrors(t *testing.T) {
	be := &BudgetError{Resource: "rows", Limit: 10, Used: 11}
	if !IsBudget(fmt.Errorf("scan: %w", be)) || IsParseError(be) {
		t.Errorf("budget error misclassified: %v", be)
	}
	if got, want := be.Error(), "core: query exceeded its rows budget (11 > 10)"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	pe := &ParseError{Err: errors.New("unexpected token")}
	if !IsParseError(fmt.Errorf("run: %w", pe)) || IsBudget(pe) {
		t.Errorf("parse error misclassified: %v", pe)
	}
	if IsBudget(errors.New("other")) || IsParseError(errors.New("other")) || IsBudget(nil) {
		t.Error("plain error misclassified")
	}
}

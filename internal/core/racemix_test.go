package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mogis/internal/core"
	"mogis/internal/faultpoint"
	"mogis/internal/qerr"
)

// TestRaceMixQueriesInvalidationFaults is the robustness counterpart
// of TestConcurrentMixedQueries: many goroutines issue queries — some
// cancelled mid-flight, some budgeted — while others invalidate the
// caches and arm/disarm faultpoints. Under -race this is the
// thread-safety contract of the cancellation and fault-injection
// machinery; the error-typing assertions are the fault-isolation
// contract (a query may fail only in one of the sanctioned ways, and
// the engine must keep answering afterwards).
func TestRaceMixQueriesInvalidationFaults(t *testing.T) {
	w := newRobustWorkload(t)
	defer faultpoint.Reset()

	want, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatal(err)
	}

	const (
		queryWorkers = 8
		iters        = 40
	)
	var wgQueries, wgChurn sync.WaitGroup
	errCh := make(chan error, queryWorkers*iters)
	stop := make(chan struct{})

	// Query goroutines: rotate through plain, cancelled, and budgeted
	// calls across several entry points.
	for g := 0; g < queryWorkers; g++ {
		wgQueries.Add(1)
		go func(g int) {
			defer wgQueries.Done()
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				switch i % 4 {
				case 1:
					cancel() // pre-cancelled
				case 2:
					time.AfterFunc(time.Duration(i%7)*100*time.Microsecond, cancel)
				case 3:
					ctx = core.WithBudget(ctx, core.Budget{MaxRows: 512})
				}
				var err error
				switch (g + i) % 4 {
				case 0:
					_, err = w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
				case 1:
					_, err = w.eng.ObjectsSampledInside(ctx, "FM", w.pg, w.win)
				case 2:
					_, err = w.eng.TimeSpentInside(ctx, "FM", w.pg, w.win)
				case 3:
					_, err = w.eng.Trajectories(ctx, "FM")
				}
				if err != nil {
					errCh <- err
				}
				cancel()
			}
		}(g)
	}

	// Invalidators: race the caches out from under the queries.
	churn := func(f func(), pause time.Duration) {
		defer wgChurn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f()
				time.Sleep(pause)
			}
		}
	}
	wgChurn.Add(3)
	go churn(func() { w.eng.InvalidateTrajectories("FM") }, 200*time.Microsecond)
	go churn(func() { w.eng.ResetCache() }, 500*time.Microsecond)
	// Fault toggler: one-shot error injections on the build path while
	// everything above is in flight.
	go churn(func() {
		faultpoint.ArmOnce(faultpoint.CoreLITBuild, faultpoint.ModeError, 0, 1)
	}, 300*time.Microsecond)

	wgQueries.Wait()
	close(stop)
	wgChurn.Wait()
	close(errCh)

	for err := range errCh {
		var be *qerr.BudgetError
		var f *faultpoint.Fault
		switch {
		case qerr.IsCancel(err), qerr.IsPanic(err):
		case errors.As(err, &be), errors.As(err, &f):
		default:
			t.Errorf("query failed in an unsanctioned way: %v", err)
		}
	}

	// The engine must come out of the storm coherent: disarm everything
	// and re-answer the baseline query bit-identically.
	faultpoint.Reset()
	got, err := w.eng.ObjectsPassingThrough(context.Background(), "FM", w.pg, w.win)
	if err != nil {
		t.Fatalf("post-storm query: %v", err)
	}
	if !eqOids(got, want) {
		t.Errorf("post-storm result diverged: got %v, want %v", got, want)
	}
}

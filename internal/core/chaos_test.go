package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mogis/internal/faultpoint"
	"mogis/internal/moft"
	"mogis/internal/qerr"
	"mogis/internal/timedim"
)

// coreSites maps each engine-side faultpoint to a query guaranteed to
// traverse it (overlay/pair is exercised in internal/overlay). The
// chaos matrix below runs every site in every mode and asserts the
// robustness contract: typed errors out, caches coherent, retries
// bit-identical, no stranded goroutines.
func coreSites(w *robustWorkload) map[string]func(ctx context.Context) ([]moft.Oid, error) {
	passThrough := func(ctx context.Context) ([]moft.Oid, error) {
		return w.eng.ObjectsPassingThrough(ctx, "FM", w.pg, w.win)
	}
	return map[string]func(ctx context.Context) ([]moft.Oid, error){
		faultpoint.CoreLITBuild:       passThrough,
		faultpoint.CoreFanoutChunk:    passThrough,
		faultpoint.CorePrefilter:      passThrough,
		faultpoint.CoreIntervalInsert: passThrough,
		faultpoint.CoreGridBuild: func(ctx context.Context) ([]moft.Oid, error) {
			return w.eng.ObjectsSampledInside(ctx, "FM", w.pg, w.win)
		},
	}
}

// regionSetSites maps every faultpoint CountRegionSet traverses to one
// of its shapes: the interpolated count crosses the LIT build, the
// prefilter, the fan-out and the interval cache; the sampled count
// crosses the grid build.
func regionSetSites(w *robustWorkload) map[string]func(ctx context.Context) (any, error) {
	passing := func(ctx context.Context) (any, error) {
		return w.eng.CountRegionSet(ctx, regionSetQuery(w.win, false, timedim.SecondsPerHour))
	}
	return map[string]func(ctx context.Context) (any, error){
		faultpoint.CoreLITBuild:       passing,
		faultpoint.CoreFanoutChunk:    passing,
		faultpoint.CorePrefilter:      passing,
		faultpoint.CoreIntervalInsert: passing,
		faultpoint.CoreGridBuild: func(ctx context.Context) (any, error) {
			return w.eng.CountRegionSet(ctx, regionSetQuery(w.win, true, timedim.SecondsPerHour))
		},
	}
}

// TestChaosMatrix arms every core faultpoint in every injection mode
// and checks, per cell: the query fails with the right typed error
// (or, for a pure delay, is cancelled or completes correctly); after
// disarming, the identical query succeeds and matches the baseline
// bit-for-bit; and no goroutines are stranded by the injected failure.
func TestChaosMatrix(t *testing.T) {
	w := newRobustWorkload(t)
	sites := map[string]func(ctx context.Context) (any, error){}
	for site, q := range coreSites(w) {
		sites[site] = func(ctx context.Context) (any, error) { return q(ctx) }
	}
	runChaosMatrix(t, w, sites)
}

// TestChaosRegionSet runs the chaos matrix over the Piet-QL operator.
func TestChaosRegionSet(t *testing.T) {
	w := newRobustWorkload(t)
	runChaosMatrix(t, w, regionSetSites(w))
}

// sameAnswer compares two query answers: oid lists as eqOids does (nil
// equals empty), anything else exactly.
func sameAnswer(a, b any) bool {
	if x, ok := a.([]moft.Oid); ok {
		y, _ := b.([]moft.Oid)
		return eqOids(x, y)
	}
	return reflect.DeepEqual(a, b)
}

func runChaosMatrix(t *testing.T, w *robustWorkload, sites map[string]func(ctx context.Context) (any, error)) {
	// Baselines from the same engine before any fault: also proves each
	// query shape works, so a later nil error can only mean the site
	// was not traversed.
	baseline := map[string]any{}
	for site, q := range sites {
		out, err := q(context.Background())
		if err != nil {
			t.Fatalf("baseline for %s: %v", site, err)
		}
		baseline[site] = out
	}

	for site, q := range sites {
		for _, mode := range []faultpoint.Mode{faultpoint.ModeError, faultpoint.ModePanic, faultpoint.ModeDelay} {
			t.Run(fmt.Sprintf("%s/%s", site, mode), func(t *testing.T) {
				// Drop caches so build-path sites (lit-build, grid-build)
				// are traversed again, not skipped via the latched unit.
				w.eng.ResetCache()
				before := runtime.NumGoroutine()

				switch mode {
				case faultpoint.ModeError:
					faultpoint.Arm(site, faultpoint.ModeError, 0)
					_, err := q(context.Background())
					faultpoint.Reset()
					var f *faultpoint.Fault
					if !errors.As(err, &f) {
						t.Fatalf("got %v, want injected fault", err)
					}
					if f.Site != site {
						t.Fatalf("fault site %q, want %q", f.Site, site)
					}
				case faultpoint.ModePanic:
					faultpoint.Arm(site, faultpoint.ModePanic, 0)
					_, err := q(context.Background())
					faultpoint.Reset()
					if !qerr.IsPanic(err) {
						t.Fatalf("got %v, want recovered panic", err)
					}
				case faultpoint.ModeDelay:
					// Cancel mid-delay: the next checkpoint after the
					// sleep observes the dead context. Sites with no
					// checkpoint between injection and return may still
					// complete — then the result must be correct.
					faultpoint.Arm(site, faultpoint.ModeDelay, 30*time.Millisecond)
					ctx, cancel := context.WithCancel(context.Background())
					timer := time.AfterFunc(5*time.Millisecond, cancel)
					out, err := q(ctx)
					timer.Stop()
					cancel()
					faultpoint.Reset()
					if err != nil {
						if !qerr.IsCancel(err) {
							t.Fatalf("got %v, want cancellation", err)
						}
					} else if !sameAnswer(out, baseline[site]) {
						t.Fatalf("delayed query completed with wrong result: %v", out)
					}
				}

				// Disarm-then-retry: the same query must now succeed and
				// match the baseline exactly (cache as-if-never-started).
				got, err := q(context.Background())
				if err != nil {
					t.Fatalf("retry after %s fault: %v", mode, err)
				}
				if !sameAnswer(got, baseline[site]) {
					t.Fatalf("retry diverged: got %v, want %v", got, baseline[site])
				}

				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before+2 {
					t.Errorf("goroutines stranded: before=%d after=%d", before, n)
				}
			})
		}
	}
}

// TestChaosCatalogCovered pins that the matrix exercises every known
// site except overlay/pair (owned by the overlay package's own chaos
// test) and the server/* sites (owned by internal/server's chaos
// matrix), so adding a faultpoint without chaos coverage fails here.
func TestChaosCatalogCovered(t *testing.T) {
	w := newRobustWorkload(t)
	sites := coreSites(w)
	for _, name := range faultpoint.Catalog() {
		if name == faultpoint.OverlayPair || strings.HasPrefix(name, "server/") {
			continue
		}
		if _, ok := sites[name]; !ok {
			t.Errorf("faultpoint %s has no chaos coverage in coreSites", name)
		}
	}
}

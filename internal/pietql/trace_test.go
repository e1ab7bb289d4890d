package pietql_test

import (
	"context"
	"testing"
	"time"

	"mogis/internal/faultpoint"
	"mogis/internal/obs"
	"mogis/internal/telemetry"
)

// sampledOnlyQuery is moQuery answered from the sample grid: its
// engine call builds the grid, not the trajectories.
const sampledOnlyQuery = moQuery + ` SAMPLED ONLY`

// awaitFired blocks until a site armed with ArmOnce(…, 1) has fired,
// i.e. until the query that hit it is inside its injected stall.
func awaitFired(t *testing.T, site string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for faultpoint.Armed(site) {
		if time.Now().After(deadline) {
			t.Fatalf("fault site %s never fired", site)
		}
		time.Sleep(time.Millisecond)
	}
}

// count returns how many spans named name the tree holds.
func count(root *obs.Span, name string) int {
	n := 0
	for _, s := range root.Stages() {
		if s == name {
			n++
		}
	}
	return n
}

// TestSampledTracingSurvivesExplainAnalyze: an EXPLAIN ANALYZE that
// starts while a sampled query runs and finishes after it must not
// stop later queries from being sampled. The sampled query stalls in
// its trajectory build, the EXPLAIN ANALYZE in its grid build.
func TestSampledTracingSurvivesExplainAnalyze(t *testing.T) {
	defer faultpoint.Reset()
	sys := system(t, true)
	col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry(), SampleEvery: 1})
	sys.Telemetry = col
	ctx := context.Background()

	faultpoint.ArmOnce(faultpoint.CoreLITBuild, faultpoint.ModeDelay, 100*time.Millisecond, 1)
	faultpoint.ArmOnce(faultpoint.CoreGridBuild, faultpoint.ModeDelay, 400*time.Millisecond, 1)
	sampled := make(chan error, 1)
	go func() {
		_, err := sys.Run(ctx, moQuery)
		sampled <- err
	}()
	awaitFired(t, faultpoint.CoreLITBuild)
	if _, err := sys.Run(ctx, "EXPLAIN ANALYZE "+sampledOnlyQuery); err != nil {
		t.Fatalf("explain analyze: %v", err)
	}
	if err := <-sampled; err != nil {
		t.Fatalf("sampled query: %v", err)
	}

	before := len(col.Traces(false))
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(ctx, moQuery); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(col.Traces(false)) - before; got != 3 {
		t.Errorf("sampled runs after the overlap retained %d traces, want 3", got)
	}
}

// TestTraceHoldsOnlyItsQuery: a sampled query's retained tree holds
// its own spans only, not those of an unsampled query that runs while
// it is in flight. With SampleEvery 2 the second Run is the sampled
// one; it stalls in its trajectory build while the third, unsampled,
// runs to completion through the grid.
func TestTraceHoldsOnlyItsQuery(t *testing.T) {
	defer faultpoint.Reset()
	sys := system(t, true)
	col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry(), SampleEvery: 2})
	sys.Telemetry = col
	ctx := context.Background()

	if _, err := sys.Run(ctx, paperQuery); err != nil { // unsampled
		t.Fatal(err)
	}
	faultpoint.ArmOnce(faultpoint.CoreLITBuild, faultpoint.ModeDelay, 400*time.Millisecond, 1)
	sampled := make(chan error, 1)
	go func() {
		_, err := sys.Run(ctx, moQuery) // sampled
		sampled <- err
	}()
	awaitFired(t, faultpoint.CoreLITBuild)
	if _, err := sys.Run(ctx, sampledOnlyQuery); err != nil { // unsampled
		t.Fatal(err)
	}
	if err := <-sampled; err != nil {
		t.Fatalf("sampled query: %v", err)
	}

	traces := col.Traces(false)
	if len(traces) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(traces))
	}
	root := traces[0].Root
	if count(root, "geo") != 1 || count(root, "mo") != 1 {
		t.Errorf("trace holds %d geo and %d mo spans, want 1 each: %v",
			count(root, "geo"), count(root, "mo"), root.Stages())
	}
	for _, foreign := range []string{"agggrid_build", "regionset_grid"} {
		if root.Find(foreign) != nil {
			t.Errorf("trace holds the other query's %s span: %v", foreign, root.Stages())
		}
	}
}

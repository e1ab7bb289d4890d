package pietql_test

import (
	"context"

	"strings"
	"testing"

	"mogis/internal/obs"
	"mogis/internal/pietql"
)

const moPart = `
| | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln
`

func TestExplainAnalyze(t *testing.T) {
	sys := system(t, true)
	out, err := sys.Run(context.Background(), "EXPLAIN ANALYZE "+paperQuery+moPart)
	if err != nil {
		t.Fatal(err)
	}
	if !out.HasMO || out.MOCount != 5 {
		t.Errorf("EXPLAIN ANALYZE changed the result: HasMO=%v MOCount=%d", out.HasMO, out.MOCount)
	}
	for _, want := range []string{
		"parse", "geo", "overlay_lookup", "mo",
		"mogis_overlay_hits_total", "mogis_litcache_hits_total", "mogis_litcache_misses_total",
		"counters:",
	} {
		if !strings.Contains(out.Explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, out.Explain)
		}
	}
	if !strings.Contains(pietql.FormatOutcome(out), "counters:") {
		t.Error("FormatOutcome does not include the explain output")
	}
}

// TestExplainAnalyzeGridCounters: a SAMPLED ONLY query routes through
// the pre-aggregated grid, and EXPLAIN ANALYZE surfaces the grid
// build/query counters alongside the cache counters.
func TestExplainAnalyzeGridCounters(t *testing.T) {
	sys := system(t, true)
	out, err := sys.Run(context.Background(), "EXPLAIN ANALYZE "+paperQuery+
		` | | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln SAMPLED ONLY`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mogis_agggrid_builds_total", "mogis_agggrid_queries_total",
	} {
		if !strings.Contains(out.Explain, want) {
			t.Errorf("Explain missing %q for a SAMPLED ONLY query:\n%s", want, out.Explain)
		}
	}
}

func TestExplainPlanOnly(t *testing.T) {
	sys := system(t, true)
	out, err := sys.Run(context.Background(), "EXPLAIN "+paperQuery+moPart)
	if err != nil {
		t.Fatal(err)
	}
	if out.HasMO || out.GeoIDs != nil {
		t.Errorf("plain EXPLAIN executed the query: %+v", out)
	}
	for _, want := range []string{"plan:", "intersection(Lr, Ln)", "CONTAINS(Ln, Lstores)", "COUNT(*) from FMbus",
		"window: the table's full time span", "granule: none", "answered by: one count_region_set call on the interval cache"} {
		if !strings.Contains(out.Explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, out.Explain)
		}
	}
}

// TestExplainPlanNamesRoute: EXPLAIN prints the MO part's window, its
// GROUP BY granule and the structure that answers it.
func TestExplainPlanNamesRoute(t *testing.T) {
	sys := system(t, true)
	out, err := sys.Run(context.Background(), "EXPLAIN "+paperQuery+
		`| | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln DURING '2006-01-09 06:10' TO '2006-01-09 07:25:30' SAMPLED ONLY GROUP BY hour`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(sampled-only)",
		"window: 2006-01-09 06:10 to 2006-01-09 07:25:30",
		"granule: hour (3600 s)",
		"answered by: one count_region_set call on the grid/temporal",
	} {
		if !strings.Contains(out.Explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, out.Explain)
		}
	}
}

// TestNoOverlayZeroHits pins the meaning of the overlay counters: a
// system without a precomputed overlay answers every geometric
// predicate naively, so a run records only misses.
func TestNoOverlayZeroHits(t *testing.T) {
	sys := system(t, false)
	before := obs.Default.Snapshot()
	if _, err := sys.Run(context.Background(), paperQuery); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	if d := after.Value("mogis_overlay_hits_total") - before.Value("mogis_overlay_hits_total"); d != 0 {
		t.Errorf("overlay hits = %v, want 0 without an overlay", d)
	}
	if d := after.Value("mogis_overlay_misses_total") - before.Value("mogis_overlay_misses_total"); d <= 0 {
		t.Errorf("overlay misses = %v, want > 0 without an overlay", d)
	}
}

func TestOverlayHitsCounted(t *testing.T) {
	sys := system(t, true)
	before := obs.Default.Snapshot()
	if _, err := sys.Run(context.Background(), paperQuery); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	if d := after.Value("mogis_overlay_hits_total") - before.Value("mogis_overlay_hits_total"); d <= 0 {
		t.Errorf("overlay hits = %v, want > 0 with an overlay", d)
	}
}

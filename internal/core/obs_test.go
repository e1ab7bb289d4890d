package core_test

import (
	"context"

	"testing"

	"mogis/internal/fo"
	"mogis/internal/obs"
	"mogis/internal/scenario"
)

// TestResetCache exercises the litCache accounting: hit/miss counters,
// the size gauges, and reclaiming the memory with ResetCache.
func TestResetCache(t *testing.T) {
	s := sc(t)
	reg := obs.NewRegistry()
	met := obs.NewMetrics(reg)
	s.Engine.SetMetrics(met)
	defer s.Engine.SetMetrics(nil)

	if _, err := s.Engine.Trajectories(context.Background(), "FMbus"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine.Trajectories(context.Background(), "FMbus"); err != nil {
		t.Fatal(err)
	}
	if got := met.LitCacheMisses.Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := met.LitCacheHits.Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if tables, objects := s.Engine.CacheStats(); tables != 1 || objects != 6 {
		t.Errorf("CacheStats = (%d, %d), want (1, 6)", tables, objects)
	}
	if got := met.LitCacheTables.Value(); got != 1 {
		t.Errorf("tables gauge = %d, want 1", got)
	}
	if got := met.LitCacheObjects.Value(); got != 6 {
		t.Errorf("objects gauge = %d, want 6", got)
	}

	s.Engine.ResetCache()
	if tables, objects := s.Engine.CacheStats(); tables != 0 || objects != 0 {
		t.Errorf("CacheStats after reset = (%d, %d), want (0, 0)", tables, objects)
	}
	if got := met.LitCacheTables.Value(); got != 0 {
		t.Errorf("tables gauge after reset = %d, want 0", got)
	}
	if got := met.LitCacheObjects.Value(); got != 0 {
		t.Errorf("objects gauge after reset = %d, want 0", got)
	}

	// The next access repopulates the cache from scratch.
	if _, err := s.Engine.Trajectories(context.Background(), "FMbus"); err != nil {
		t.Fatal(err)
	}
	if got := met.LitCacheMisses.Value(); got != 2 {
		t.Errorf("misses after reset = %d, want 2", got)
	}
	if tables, objects := s.Engine.CacheStats(); tables != 1 || objects != 6 {
		t.Errorf("CacheStats after refill = (%d, %d), want (1, 6)", tables, objects)
	}
}

// TestType4SpanStages asserts the span tree a traced Type-4 query
// produces: plan, then FO evaluation, then aggregation, all under the
// query root.
func TestType4SpanStages(t *testing.T) {
	s := sc(t)
	tr := obs.NewTracer("query")
	n, err := s.Engine.CountRegion(obs.WithTracer(context.Background(), tr), s.MotivatingFormula(), []fo.Var{"o", "t"})
	root := tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("|C| = %d, want 4 (Remark 1)", n)
	}
	stages := root.Stages()
	idx := map[string]int{}
	for i, name := range stages {
		if _, dup := idx[name]; !dup {
			idx[name] = i
		}
	}
	for _, want := range []string{"plan", "fo_eval", "aggregate_count"} {
		if root.Find(want) == nil {
			t.Errorf("missing span %q in %v", want, stages)
		}
	}
	if !(idx["plan"] < idx["fo_eval"] && idx["fo_eval"] < idx["aggregate_count"]) {
		t.Errorf("stage order = %v", stages)
	}
	if got := root.Find("fo_eval").Count("tuples"); got != 4 {
		t.Errorf("fo_eval tuples = %d, want 4", got)
	}
}

// BenchmarkRemark1 quantifies the tracing overhead on the motivating
// query; the disabled state is the production default.
func BenchmarkRemark1(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "tracing-off"
		if traced {
			name = "tracing-on"
		}
		b.Run(name, func(b *testing.B) {
			s := scenario.New()
			ctx := context.Background()
			if _, err := s.MotivatingResult(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if traced {
					tr := obs.NewTracer("remark1")
					if _, err := s.MotivatingResult(obs.WithTracer(ctx, tr)); err != nil {
						b.Fatal(err)
					}
					tr.Finish()
				} else if _, err := s.MotivatingResult(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package telemetry_test

import (
	"context"
	"testing"
	"time"

	"mogis/internal/obs"
	"mogis/internal/scenario"
	"mogis/internal/telemetry"
)

// TestEngineRecords: an engine with a collector attached records its
// queries (EXPERIMENTS.md P11).
func TestEngineRecords(t *testing.T) {
	s := scenario.New()
	col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry()})
	s.Engine.SetTelemetry(col)
	if _, err := s.MotivatingResult(context.Background()); err != nil {
		t.Fatal(err)
	}
	var recorded int64
	for _, row := range col.Stats().Ops {
		recorded += row.Queries
	}
	if recorded == 0 {
		t.Error("the Remark-1 query recorded no engine query")
	}
}

// TestRecordCost bounds the record path every engine query pays with
// telemetry on (EXPERIMENTS.md P11): under 2µs per Record call over
// 5,000 calls (178ns measured), the cost that keeps recording within
// 5 % of a ~40µs Remark-1 query. The best of three rounds is kept, so
// one preempted round on a busy host does not fail it.
// BenchmarkRemark1 in internal/core times the query itself.
func TestRecordCost(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation multiplies the record path's cost")
	}
	col := telemetry.New(telemetry.Config{Registry: obs.NewRegistry()})
	const calls = 5000
	best := time.Duration(1 << 62)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			col.Record(telemetry.QueryRecord{
				Op: "record_cost", Start: t0, Duration: time.Duration(i), Outcome: telemetry.OutcomeOK,
			})
		}
		best = min(best, time.Since(t0)/calls)
	}
	if best >= 2*time.Microsecond {
		t.Errorf("Record costs %v per call, want < 2µs", best)
	}
}

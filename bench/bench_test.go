package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if v, ok := tail(asc, 0.90); !ok || v != 90 {
		t.Errorf("p90 of 100 = %v, %v; want 90 with exactly ten samples beyond", v, ok)
	}
	if _, ok := tail(asc, 0.95); ok {
		t.Error("p95 of 100 reported with only five samples beyond it")
	}
	if _, ok := tail(asc[:99], 0.90); ok {
		t.Error("p90 of 99 reported with only nine samples beyond it")
	}
	if m := highestTail(asc); m.Note != "p90" || m.Value != 90 {
		t.Errorf("highestTail of 100 = %+v, want p90", m)
	}
	if m := highestTail(asc[:20]); m.Note != "max" || m.Value != 20 {
		t.Errorf("highestTail of 20 = %+v, want the maximum", m)
	}
}

// The acceptance spread is computed with Python's
// statistics.quantiles(v, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRoundtrip, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 14},
	}
	tree := buildTree(spans)
	if got := tree.selfTime(spans[0]); got != 50 {
		t.Errorf("self time = %d, want 100 - (10..50) - (90..100) = 50", got)
	}
	if got := tree.selfTime(spans[1]); got != 18 {
		t.Errorf("child self time = %d, want 20 - 2 = 18", got)
	}
	if got := tree.outliving(); got != 1 {
		t.Errorf("outliving = %d, want 1 (span c ends after its parent)", got)
	}
}

func TestRequestStreamIsAFunctionOfSeed(t *testing.T) {
	render := func(seed int64) []byte {
		var b bytes.Buffer
		for i := 0; i < 400; i++ {
			b.WriteString(accelQuery(seed, i))
			b.WriteString(groupedQuery(seed, i))
		}
		sub := subSeed(1, 0)
		sys, err := newSystem(sub, smokeSize, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		extent, err := cityExtent(sys)
		if err != nil {
			t.Fatal(err)
		}
		_, stream := genRows(sub, smokeSize, extent)
		orderStream(stream, seed)
		for i := 0; i < 5; i++ {
			b.WriteString(batchBody(stream, i))
		}
		return b.Bytes()
	}
	a, again, other := render(7), render(7), render(8)
	if !bytes.Equal(a, again) {
		t.Error("equal seeds gave different request streams")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds gave the same request stream")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0
	c := clock{
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d) },
	}
	const period = 10 * time.Millisecond
	cost := []time.Duration{25 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	var late, latency []time.Duration
	c.openLoop(t0, period, len(cost), time.Time{}, func(i int, due time.Time) {
		if want := t0.Add(time.Duration(i) * period); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, due.Sub(t0), want.Sub(t0))
		}
		if now.Before(due) {
			t.Errorf("request %d sent %v early", i, due.Sub(now))
		}
		late = append(late, now.Sub(due))
		now = now.Add(cost[i])
		latency = append(latency, now.Sub(due))
	})
	// Request 0 overruns two periods: 1 and 2 start late and their
	// latency includes the wait; 3 is back on schedule.
	wantLate := []time.Duration{0, 15 * time.Millisecond, 6 * time.Millisecond, 0}
	wantLatency := []time.Duration{25 * time.Millisecond, 16 * time.Millisecond, 7 * time.Millisecond, time.Millisecond}
	if !reflect.DeepEqual(late, wantLate) || !reflect.DeepEqual(latency, wantLatency) {
		t.Errorf("late %v latency %v, want %v and %v", late, latency, wantLate, wantLatency)
	}

	// Without a count the schedule stops at end.
	now, calls := t0, 0
	c.openLoop(t0, period, 0, t0.Add(35*time.Millisecond), func(int, time.Time) { calls++ })
	if calls != 4 {
		t.Errorf("%d requests before end, want 4 (due 0, 10, 20, 30 ms)", calls)
	}
}

func TestTraceFlagTakesBothForms(t *testing.T) {
	got := spreadTraceFlag([]string{"--workload", "x", "--trace", "0", "--seed", "3"})
	if want := []string{"--workload", "x", "-trace=0", "--seed", "3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = spreadTraceFlag([]string{"-seed", "1", "-trace"})
	if want := []string{"-seed", "1", "-trace=1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", bound: 0.10}
	higher := metricDef{name: "throughput_per_s", higher: true, bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		d            metricDef
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{108, 109, 108, 109}, verdictOK},
		{lower, steady, []float64{112, 113, 112, 113}, verdictRegressed},
		{lower, steady, []float64{60, 61, 60, 61}, verdictOK},
		{higher, steady, []float64{88, 89, 88, 89}, verdictRegressed},
		{higher, steady, []float64{130, 131, 130, 131}, verdictOK},
		{lower, steady, []float64{80, 100, 120, 140}, verdictUnresolved},
		{metricDef{name: "fail_ratio"}, []float64{0}, []float64{0}, verdictOK},
		{metricDef{name: "fail_ratio"}, []float64{0}, []float64{0.001}, verdictRegressed},
	} {
		if _, got := judge(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: %v -> %v judged %s, want %s", c.d.name, c.base, c.change, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the
// driver refuses a run whose metrics differ from the file's lists.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []entry  `json:"workloads"`
		EndToEnd  []entry  `json:"end_to_end"`
		PerLayer  []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var workloads, endToEnd, perLayer []entry
	for _, s := range specs {
		workloads = append(workloads, entry{Name: s.name, Why: s.why})
	}
	for _, d := range contractMetrics {
		endToEnd = append(endToEnd, entry{Name: d.name, Unit: d.unit, Better: better(d.higher), Bound: d.bound})
	}
	for _, n := range layerMetricNames {
		perLayer = append(perLayer, entry{Name: n, Unit: layerUnit(n), Better: better(layerHigherIsBetter[n])})
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{{"workloads", file.Workloads, workloads}, {"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %+v\nthe code has %+v", c.what, c.got, c.want)
		}
	}
}

// TestSmoke drives the whole harness on the tiny city: four workloads
// end to end with answer checks, the oracle and SSE matching, then the
// traced run, then -compare over the results.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "runs.jsonl")
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-smoke", "-seed", "3", "-json", results}, &out); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	if !bytes.HasSuffix(last, []byte(`"claim":null}`)) {
		t.Errorf("summary does not end with a null claim: %s", last)
	}
	var sum summary
	if err := json.Unmarshal(last, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != len(specs) {
		t.Fatalf("%d runs, want %d", len(sum.Runs), len(specs))
	}
	for _, r := range sum.Runs {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", r.Workload, r.Attempted, r.Failed)
		}
		for _, d := range contractMetrics {
			if m, ok := r.Metrics[d.name]; !ok || m.Value <= 0 {
				t.Errorf("%s: %s = %+v, want a positive value", r.Workload, d.name, m)
			}
		}
		if r.Workload == "ingest_fence" && r.Metrics["event_lag_p50_ms"].N == 0 {
			t.Error("ingest_fence matched no SSE frame to a batch")
		}
	}

	out.Reset()
	traces := filepath.Join(dir, "out")
	if code := run(context.Background(), []string{"-smoke", "-seed", "3", "-trace", "-out", traces, "-workload", "mixed_rw"}, &out); code != 0 {
		t.Fatalf("traced smoke run exited %d:\n%s", code, out.String())
	}
	lines = bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line contractLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(layerMetricNames) {
		t.Errorf("traced run reports %d metrics, want %d", len(line.Metrics), len(layerMetricNames))
	}
	if v := line.Metrics["trace.outliving_spans"].Value; v != 0 {
		t.Errorf("%v spans outlive their parent", v)
	}
	if v := line.Metrics["agggrid.builds"].Value; v < 2 {
		t.Errorf("agggrid.builds = %v on mixed_rw, want one per round", v)
	}
	if _, err := os.Stat(filepath.Join(traces, "trace-mixed_rw.jsonl")); err != nil {
		t.Error(err)
	}

	out.Reset()
	if code := run(context.Background(), []string{"-compare", results, results}, &out); code != 0 {
		t.Errorf("comparing a result file with itself exited %d:\n%s", code, out.String())
	}
}

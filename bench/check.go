package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"mogis/internal/core"
	"mogis/internal/layer"
	"mogis/internal/olap"
	"mogis/internal/pietql"
	"mogis/internal/scenario"
	"mogis/internal/server"
)

// preflight serves the paper's Table-1 scenario over HTTP and checks
// the Section-5 query's polygons and its GROUP BY hour breakdown
// against the values pinned in pietql/groupby_test.go. Nothing is
// timed before it passes.
func preflight(ctx context.Context) (err error) {
	sys, err := server.NewSystem(server.SystemConfig{Overlay: true})
	if err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	srv, err := server.New(server.Config{System: sys, GeofenceLayer: "Ln"})
	if err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	w := &world{srv: srv, base: "http://" + srv.Addr(), client: &http.Client{}}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("preflight: %w", cerr)
		}
	}()

	query := regionGeo["s5"] + "| | MOVING COUNT(*) FROM FMbus WHERE PASSES THROUGH layer.Ln GROUP BY hour"
	status, body, err := w.post(ctx, nil, "/query", query)
	if err != nil {
		return fmt.Errorf("preflight: %w", err)
	}
	var ans queryAnswer
	if status != http.StatusOK {
		return fmt.Errorf("preflight: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("preflight: decoding answer: %w", err)
	}
	ln := ans.GeoIDs["Ln"]
	if len(ln) != 2 || ln[0] != scenario.PgDam || ln[1] != scenario.PgBerchem {
		return fmt.Errorf("preflight: Section-5 polygons = %v, want [Dam Berchem]", ln)
	}
	if ans.MOGroup == nil {
		return fmt.Errorf("preflight: no GROUP BY result in %s", body)
	}
	for hour, want := range map[olap.Member]float64{"2006-01-09 10": 2, "2006-01-09 11": 2, "2006-01-09 13": 1} {
		if got, ok := ans.MOGroup.Lookup(hour); !ok || got != want {
			return fmt.Errorf("preflight: objects in hour %q = %v, want %v", hour, got, want)
		}
	}
	if ans.MOCount != 5 {
		return fmt.Errorf("preflight: distinct objects = %d, want 5", ans.MOCount)
	}
	return nil
}

// oracleSample is how many distinct query texts the reference
// re-answers per workload.
const oracleSample = 24

// oracle re-answers a seeded sample of the texts the run asked on a
// reference with every acceleration off — scan path, no interval
// cache, one worker, naive geometry instead of the overlay — over a
// copy of the initial table; an answer that differs is a failed request.
func oracle(ctx context.Context, w *world, seed int64, q *queryLoad) (checked int, err error) {
	ref, err := newSystem(w.sub, w.size, nil, tableOf(w.initial))
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	eng := core.New(ref.Ctx)
	eng.SetAggGrid(-1)
	eng.SetIntervalCacheCap(0)
	eng.SetWorkers(1)
	ref.Engine = eng
	ref.Overlay = nil

	order := make([]int, len(q.texts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return mix(seed, order[a]) < mix(seed, order[b]) })
	for _, i := range order[:min(oracleSample, len(order))] {
		text := q.texts[i]
		out, err := ref.Run(ctx, text)
		if err != nil {
			return checked, fmt.Errorf("oracle: %q: %w", text, err)
		}
		checked++
		if want := pietql.FormatOutcome(out); want != q.first[text] {
			q.fail("oracle: %q answered %q, reference %q", text, q.first[text], want)
		}
	}
	return checked, nil
}

// outcomeOf rebuilds the pipeline's Outcome from a decoded answer, so
// the render step can be timed on the same input.
func outcomeOf(a queryAnswer) *pietql.Outcome {
	geo := a.GeoIDs
	if geo == nil {
		geo = map[string][]layer.Gid{}
	}
	return &pietql.Outcome{GeoIDs: geo, MOCount: a.MOCount, HasMO: a.HasMO, MOGroups: a.MOGroup}
}

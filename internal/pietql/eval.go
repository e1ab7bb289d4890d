package pietql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mogis/internal/core"
	"mogis/internal/fo"
	"mogis/internal/layer"
	"mogis/internal/mdx"
	"mogis/internal/obs"
	"mogis/internal/olap"
	"mogis/internal/overlay"
	"mogis/internal/qerr"
	"mogis/internal/telemetry"
	"mogis/internal/timedim"
)

// System is everything a Piet-QL query needs: the model context, the
// per-layer geometry kinds Piet-QL variables range over, optionally a
// precomputed overlay (Section 5's evaluation strategy), and the MDX
// cube catalog. A System is shared by concurrent queries and holds no
// per-query state: a query's trace, budget and deadline travel in the
// context.Context it runs under.
type System struct {
	Ctx *fo.Context
	// Engine answers the moving-object queries (a *core.Engine, or a
	// wrapper around one, behind core.Querier).
	Engine core.Querier
	// Kinds maps each Piet-QL-visible layer name to the geometry kind
	// its variable ranges over.
	Kinds map[string]layer.Kind
	// Overlay, when non-nil, answers the geometric predicates from
	// precomputed relations.
	Overlay *overlay.Overlay
	// Cubes resolves the OLAP part.
	Cubes mdx.Catalog
	// SchemaName is checked against the FROM clause.
	SchemaName string
	// Telemetry, when non-nil, receives one QueryRecord per Run (and
	// retains sampled traces). Nil falls back to telemetry.Default —
	// set core.Engine.SetTelemetry(nil) too if you need a fully silent
	// system in a process with a default collector.
	Telemetry *telemetry.Collector
}

// Outcome is the result of running a Piet-QL query.
type Outcome struct {
	// GeoIDs holds, per selected layer, the geometry ids
	// participating in a satisfying assignment.
	GeoIDs map[string][]layer.Gid
	// OLAP is the MDX result (nil when the query has no OLAP part).
	OLAP *mdx.Result
	// MOCount is the moving-objects aggregate (valid when HasMO).
	MOCount int
	HasMO   bool
	// MOGroups holds the per-bucket counts when the moving-objects
	// part has a GROUP BY.
	MOGroups *olap.AggResult
	// Explain holds the rendered plan (EXPLAIN) or span tree with
	// engine-counter deltas (EXPLAIN ANALYZE); empty otherwise.
	Explain string
}

// parse wraps Parse failures in *qerr.ParseError.
func parse(input string) (*Query, error) {
	q, err := Parse(input)
	if err != nil {
		return nil, &qerr.ParseError{Err: err}
	}
	return q, nil
}

// Run parses and evaluates a Piet-QL query under ctx (nil means
// background): evaluation observes cancellation, deadlines and any
// core.Budget attached to ctx at the engine's cooperative
// checkpoints. A query prefixed with EXPLAIN renders the evaluation
// plan without running it; EXPLAIN ANALYZE runs the query with a
// per-query trace attached and renders the span tree plus
// engine-counter deltas into Outcome.Explain. Parse failures are
// reported as *qerr.ParseError.
func (s *System) Run(ctx context.Context, query string) (out *Outcome, err error) {
	start := time.Now()
	defer func() { obs.Std.QueryDuration.Observe(time.Since(start).Seconds()) }()
	tel := s.telemetry()
	if rest, analyze, ok := stripExplain(query); ok {
		if analyze {
			return s.RunAnalyze(ctx, rest)
		}
		var q *Query
		q, err = parse(rest)
		if tel.Enabled() {
			tel.Record(queryRecord(opExplain, moTable(q), start, err))
		}
		if err != nil {
			return nil, err
		}
		return &Outcome{Explain: ExplainPlan(q)}, nil
	}
	// A sampled query carries its own tracer in ctx, so concurrent
	// sampled queries are each traced, and only with their own spans.
	tr := tel.MaybeTrace()
	if tr != nil {
		ctx = obs.WithTracer(ctx, tr)
	}
	q, err := parse(query)
	if err == nil {
		out, err = s.Eval(ctx, q)
	}
	if tel.Enabled() {
		rec := queryRecord(opQuery, moTable(q), start, err)
		tel.Record(rec)
		if tr != nil {
			tel.RetainTrace(tr, rec, query)
		}
	}
	return out, err
}

// stripExplain removes a leading EXPLAIN [ANALYZE] (case-insensitive)
// and reports whether one was present.
func stripExplain(query string) (rest string, analyze, ok bool) {
	rest = strings.TrimSpace(query)
	fields := strings.Fields(rest)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "EXPLAIN") {
		return query, false, false
	}
	rest = strings.TrimSpace(rest[len(fields[0]):])
	if len(fields) > 1 && strings.EqualFold(fields[1], "ANALYZE") {
		return strings.TrimSpace(rest[len(fields[1]):]), true, true
	}
	return rest, false, true
}

// RunAnalyze parses and evaluates a query with a trace attached to
// its ctx, setting Outcome.Explain to the rendered span tree and the
// engine-counter deltas seen while it ran. The span tree is this
// query's alone; the deltas are read from the process-wide
// obs.Default, so queries running at the same time show in them too.
func (s *System) RunAnalyze(ctx context.Context, query string) (*Outcome, error) {
	start := time.Now()
	tel := s.telemetry()
	tr := obs.NewTracer("query")
	ctx = obs.WithTracer(ctx, tr)
	before := obs.Default.Snapshot()

	sp := tr.Start("parse")
	q, err := parse(query)
	sp.End()
	var out *Outcome
	if err == nil {
		out, err = s.Eval(ctx, q)
	}
	root := tr.Finish()
	if tel.Enabled() {
		// EXPLAIN ANALYZE traces unconditionally; retain every one.
		rec := queryRecord(opExplainAnalyze, moTable(q), start, err)
		tel.Record(rec)
		tel.RetainTrace(tr, rec, query)
	}
	if err != nil {
		return nil, err
	}
	out.Explain = obs.FormatExplain(root, obs.Default.Snapshot().Since(before))
	return out, nil
}

// ExplainPlan renders the evaluation plan of a parsed query without
// running it.
func ExplainPlan(q *Query) string {
	var sb strings.Builder
	sb.WriteString("plan:\n")
	fmt.Fprintf(&sb, "  geo: select %s from %s\n", strings.Join(q.Geo.Select, ", "), q.Geo.Schema)
	for _, p := range q.Geo.Where {
		fmt.Fprintf(&sb, "    %s(%s, %s)\n", p.Kind, p.A, p.B)
	}
	if q.OLAP != "" {
		sb.WriteString("  olap: MDX sub-query\n")
	}
	if q.MO != nil {
		semantics := "interpolated"
		if q.MO.SampledOnly {
			semantics = "sampled-only"
		}
		fmt.Fprintf(&sb, "  mo: %s(*) from %s passing through %s (%s)\n",
			q.MO.Agg, q.MO.Table, q.MO.ThroughLayer, semantics)
		window := "the table's full time span"
		if q.MO.HasWindow {
			window = q.MO.Window.Lo.String() + " to " + q.MO.Window.Hi.String()
		}
		fmt.Fprintf(&sb, "    window: %s\n", window)
		if q.MO.GroupBy != "" {
			fmt.Fprintf(&sb, "    granule: %s (%d s)\n", q.MO.GroupBy, granuleSeconds(q.MO.GroupBy))
		} else {
			sb.WriteString("    granule: none (one count over the window)\n")
		}
		structure := "interval cache (per-polygon inside-intervals over the prefiltered trajectories)"
		if q.MO.SampledOnly {
			structure = "grid/temporal (sample grid with its per-cell time index, plus the rows appended since it was built; columnar scan when the grid is off)"
		}
		fmt.Fprintf(&sb, "    answered by: one count_region_set call on the %s\n", structure)
	}
	return sb.String()
}

// Eval evaluates a parsed query under ctx (nil means background).
func (s *System) Eval(ctx context.Context, q *Query) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := obs.TracerFrom(ctx)
	out := &Outcome{}
	sp := tr.Start("geo")
	ids, err := s.evalGeo(ctx, q.Geo)
	if err != nil {
		sp.End()
		return nil, err
	}
	n := int64(0)
	for _, l := range ids {
		n += int64(len(l))
	}
	sp.SetCount("predicates", int64(len(q.Geo.Where)))
	sp.SetCount("ids", n)
	sp.End()
	out.GeoIDs = ids

	if q.OLAP != "" {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := tr.Start("olap")
		res, err := mdx.Run(s.Cubes, q.OLAP)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("pietql: OLAP part: %w", err)
		}
		out.OLAP = res
	}

	if q.MO != nil {
		sp := tr.Start("mo")
		n, groups, err := s.evalMO(ctx, q.MO, ids)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.SetCount("objects", int64(n))
		sp.End()
		out.MOCount = n
		out.MOGroups = groups
		out.HasMO = true
	}
	return out, nil
}

func (s *System) ref(layerName string) (overlay.Ref, error) {
	kind, ok := s.Kinds[layerName]
	if !ok {
		return overlay.Ref{}, fmt.Errorf("pietql: unknown layer %q", layerName)
	}
	return overlay.Ref{Layer: layerName, Kind: kind}, nil
}

// expectedSubLevel returns the geometry kind an intersection or
// containment of the two kinds materializes.
func expectedSubLevel(pred PredicateKind, a, b layer.Kind) string {
	if pred == PredContains {
		switch b {
		case layer.KindNode:
			return "Point"
		case layer.KindPolyline:
			return "Linestring"
		default:
			return "Polygon"
		}
	}
	if a == layer.KindNode || b == layer.KindNode {
		return "Point"
	}
	if a == layer.KindPolyline || b == layer.KindPolyline {
		return "Linestring"
	}
	return "Polygon"
}

// evalGeo evaluates the geometric part as a conjunctive query over
// one variable per layer.
func (s *System) evalGeo(ctx context.Context, g *GeoQuery) (map[string][]layer.Gid, error) {
	if s.SchemaName != "" && !strings.EqualFold(g.Schema, s.SchemaName) {
		return nil, fmt.Errorf("pietql: unknown schema %q (have %q)", g.Schema, s.SchemaName)
	}
	// Validate layers and predicates up front.
	for _, l := range g.Select {
		if _, err := s.ref(l); err != nil {
			return nil, err
		}
	}
	for _, p := range g.Where {
		ra, err := s.ref(p.A)
		if err != nil {
			return nil, err
		}
		rb, err := s.ref(p.B)
		if err != nil {
			return nil, err
		}
		if p.Anchor != "" {
			if _, err := s.ref(p.Anchor); err != nil {
				return nil, err
			}
		}
		if p.SubLevel != "" {
			want := expectedSubLevel(p.Kind, ra.Kind, rb.Kind)
			if !strings.EqualFold(p.SubLevel, want) {
				return nil, fmt.Errorf("pietql: %s(%s, %s) materializes subplevel.%s, not subplevel.%s",
					p.Kind, p.A, p.B, want, p.SubLevel)
			}
		}
		if p.Kind == PredContains && ra.Kind != layer.KindPolygon {
			return nil, fmt.Errorf("pietql: CONTAINS needs a polygon layer on the left, %q is %s", p.A, ra.Kind)
		}
	}

	// Conjunctive evaluation over bindings layer → gid.
	bindings := []map[string]layer.Gid{{}}
	for _, p := range g.Where {
		sp := obs.TracerFrom(ctx).Start("overlay_lookup")
		var err error
		bindings, err = s.applyPredicate(ctx, bindings, p)
		sp.SetCount("bindings", int64(len(bindings)))
		sp.End()
		if err != nil {
			return nil, err
		}
		if len(bindings) == 0 {
			break
		}
	}

	// A selected layer never mentioned in WHERE ranges over all its
	// geometries.
	for _, l := range g.Select {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(bindings) > 0 {
			if _, bound := bindings[0][l]; bound {
				continue
			}
		}
		r, _ := s.ref(l)
		all, err := s.allIDs(r)
		if err != nil {
			return nil, err
		}
		var next []map[string]layer.Gid
		for _, b := range bindings {
			for _, id := range all {
				nb := cloneBinding(b)
				nb[l] = id
				next = append(next, nb)
			}
		}
		bindings = next
	}

	out := make(map[string][]layer.Gid, len(g.Select))
	for _, l := range g.Select {
		seen := map[layer.Gid]bool{}
		var ids []layer.Gid
		for _, b := range bindings {
			if id, ok := b[l]; ok && !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out[l] = ids
	}
	return out, nil
}

func cloneBinding(b map[string]layer.Gid) map[string]layer.Gid {
	nb := make(map[string]layer.Gid, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

func (s *System) allIDs(r overlay.Ref) ([]layer.Gid, error) {
	l, ok := s.Ctx.GIS().Layer(r.Layer)
	if !ok {
		return nil, fmt.Errorf("pietql: layer %q not attached", r.Layer)
	}
	return l.IDs(r.Kind), nil
}

// applyPredicate extends or filters the bindings with one predicate,
// observing ctx once per input binding (binding sets are the part
// that grows combinatorially).
func (s *System) applyPredicate(ctx context.Context, bindings []map[string]layer.Gid, p Predicate) ([]map[string]layer.Gid, error) {
	ra, _ := s.ref(p.A)
	rb, _ := s.ref(p.B)
	var out []map[string]layer.Gid
	for _, b := range bindings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		aid, aBound := b[p.A]
		bid, bBound := b[p.B]
		switch {
		case aBound && bBound:
			ok, err := s.related(p.Kind, ra, aid, rb, bid)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, b)
			}
		case aBound:
			ids, err := s.relatedIDs(p.Kind, ra, aid, rb)
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				nb := cloneBinding(b)
				nb[p.B] = id
				out = append(out, nb)
			}
		case bBound:
			// Enumerate A candidates related to the bound B.
			all, err := s.allIDs(ra)
			if err != nil {
				return nil, err
			}
			for _, id := range all {
				ok, err := s.related(p.Kind, ra, id, rb, bid)
				if err != nil {
					return nil, err
				}
				if ok {
					nb := cloneBinding(b)
					nb[p.A] = id
					out = append(out, nb)
				}
			}
		default:
			all, err := s.allIDs(ra)
			if err != nil {
				return nil, err
			}
			for _, aid := range all {
				ids, err := s.relatedIDs(p.Kind, ra, aid, rb)
				if err != nil {
					return nil, err
				}
				for _, id := range ids {
					nb := cloneBinding(b)
					nb[p.A] = aid
					nb[p.B] = id
					out = append(out, nb)
				}
			}
		}
	}
	return out, nil
}

// relatedIDs returns the B-ids related to (ra, aid) under the
// predicate, preferring the precomputed overlay.
func (s *System) relatedIDs(pred PredicateKind, ra overlay.Ref, aid layer.Gid, rb overlay.Ref) ([]layer.Gid, error) {
	var candidates []layer.Gid
	if s.Overlay != nil {
		obs.Std.OverlayHits.Inc()
		candidates = s.Overlay.Intersecting(ra, aid, rb)
	} else {
		obs.Std.OverlayMisses.Inc()
		var err error
		candidates, err = overlay.IntersectingNaive(s.layerMap(), ra, aid, rb)
		if err != nil {
			return nil, err
		}
	}
	if pred == PredIntersection {
		return candidates, nil
	}
	// CONTAINS: intersection candidates refined by exact containment.
	var out []layer.Gid
	for _, bid := range candidates {
		ok, err := s.contains(ra, aid, rb, bid)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, bid)
		}
	}
	return out, nil
}

func (s *System) related(pred PredicateKind, ra overlay.Ref, aid layer.Gid, rb overlay.Ref, bid layer.Gid) (bool, error) {
	ids, err := s.relatedIDs(pred, ra, aid, rb)
	if err != nil {
		return false, err
	}
	for _, id := range ids {
		if id == bid {
			return true, nil
		}
	}
	return false, nil
}

func (s *System) layerMap() map[string]*layer.Layer {
	m := make(map[string]*layer.Layer, len(s.Kinds))
	for name := range s.Kinds {
		if l, ok := s.Ctx.GIS().Layer(name); ok {
			m[name] = l
		}
	}
	return m
}

// contains tests full containment of b in a (a must be a polygon).
func (s *System) contains(ra overlay.Ref, aid layer.Gid, rb overlay.Ref, bid layer.Gid) (bool, error) {
	if ra.Kind != layer.KindPolygon {
		return false, fmt.Errorf("pietql: CONTAINS needs a polygon on the left, got %s", ra.Kind)
	}
	la, _ := s.Ctx.GIS().Layer(ra.Layer)
	lb, _ := s.Ctx.GIS().Layer(rb.Layer)
	pa, ok := la.Polygon(aid)
	if !ok {
		return false, fmt.Errorf("pietql: layer %q has no polygon %d", ra.Layer, aid)
	}
	switch rb.Kind {
	case layer.KindNode:
		p, ok := lb.Node(bid)
		if !ok {
			return false, fmt.Errorf("pietql: layer %q has no node %d", rb.Layer, bid)
		}
		return pa.ContainsPoint(p), nil
	case layer.KindPolyline:
		pl, ok := lb.Polyline(bid)
		if !ok {
			return false, fmt.Errorf("pietql: layer %q has no polyline %d", rb.Layer, bid)
		}
		const tol = 1e-9
		return pl.LengthInside(pa) >= pl.Length()-tol, nil
	case layer.KindPolygon:
		pb, ok := lb.Polygon(bid)
		if !ok {
			return false, fmt.Errorf("pietql: layer %q has no polygon %d", rb.Layer, bid)
		}
		return pa.ContainsPolygon(pb), nil
	default:
		return false, fmt.Errorf("pietql: CONTAINS unsupported for kind %s", rb.Kind)
	}
}

// evalMO evaluates the moving-objects part against the geometric
// result in one engine call: CountRegionSet answers every shape
// (sampled or interpolated, grouped or not) on the engine's grid,
// temporal index and interval cache.
func (s *System) evalMO(ctx context.Context, q *MOQuery, geoIDs map[string][]layer.Gid) (int, *olap.AggResult, error) {
	ids, ok := geoIDs[q.ThroughLayer]
	if !ok {
		return 0, nil, fmt.Errorf("pietql: PASSES THROUGH layer %q is not in the geometric SELECT", q.ThroughLayer)
	}
	kind := s.Kinds[q.ThroughLayer]
	if kind != layer.KindPolygon {
		return 0, nil, fmt.Errorf("pietql: PASSES THROUGH needs a polygon layer, %q is %s", q.ThroughLayer, kind)
	}
	tbl, err := s.Ctx.Table(q.Table)
	if err != nil {
		return 0, nil, err
	}
	window := q.Window
	if !q.HasWindow {
		lo, hi, ok := tbl.TimeSpan()
		if !ok {
			return 0, nil, nil
		}
		window = timedim.Interval{Lo: lo, Hi: hi}
	}
	res, err := s.Engine.CountRegionSet(ctx, core.RegionSetQuery{
		Table: q.Table, Layer: q.ThroughLayer, IDs: ids, Window: window,
		Granule: granuleSeconds(q.GroupBy), SampledOnly: q.SampledOnly,
	})
	if err != nil || q.GroupBy == "" {
		return res.Total, nil, err
	}
	groups := &olap.AggResult{GroupCols: []string{string(q.GroupBy)}}
	for _, g := range res.Granules {
		label, _ := timedim.Rollup(q.GroupBy, g.Start)
		groups.Rows = append(groups.Rows, olap.AggResultRow{
			Group: []olap.Member{olap.Member(label)},
			Value: float64(g.Objects),
			N:     int64(g.Objects),
		})
	}
	sort.Slice(groups.Rows, func(i, j int) bool { return groups.Rows[i].Group[0] < groups.Rows[j].Group[0] })
	return res.Total, groups, nil
}

// granuleSeconds is the granule width of a GROUP BY category (0 for
// an ungrouped query).
func granuleSeconds(cat timedim.Category) int64 {
	switch cat {
	case timedim.CatHour:
		return timedim.SecondsPerHour
	case timedim.CatDay:
		return timedim.SecondsPerDay
	}
	return 0
}

// FormatOutcome renders an outcome as text for CLI use.
func FormatOutcome(o *Outcome) string {
	var sb strings.Builder
	if o.Explain != "" {
		sb.WriteString(o.Explain)
		if !strings.HasSuffix(o.Explain, "\n") {
			sb.WriteByte('\n')
		}
	}
	var names []string
	for name := range o.GeoIDs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s: %v\n", name, o.GeoIDs[name])
	}
	if o.OLAP != nil {
		sb.WriteString("OLAP:\n")
		sb.WriteString(o.OLAP.String())
	}
	if o.HasMO {
		fmt.Fprintf(&sb, "moving objects: %d\n", o.MOCount)
		if o.MOGroups != nil {
			sb.WriteString(o.MOGroups.String())
		}
	}
	return sb.String()
}

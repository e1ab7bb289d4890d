package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"mogis/internal/geom"
	"mogis/internal/layer"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/timedim"
)

// This file implements the one operator behind the Piet-QL
// moving-objects part: distinct-object counts over a region set (the
// polygons a geometric sub-query selected), optionally rolled up along
// Time into hour or day granules (Remark 1's "buses per hour"). Every
// shape — sampled or interpolated, grouped or not — accumulates one
// object bitset per granule:
//
//   - sampled: each polygon's grid answer (cover cells, temporal index,
//     boundary refinement) is ORed into the granule's bitset; with the
//     grid disabled a columnar scan fills the same bitsets;
//   - interpolated: the entries of the cached, prefiltered per-polygon
//     interval columns that the window reaches are clipped to it and
//     mark every granule the clipped interval reaches.
//
// A granule's count is its popcount; the total is the popcount of the
// union (interpolated grouped totals keep their own bitset, see
// passingRegionSet). The object-set queries (ObjectsSampledAt,
// ObjectsSampledInside, ObjectsPassingThrough) are the ungrouped,
// one-polygon case, read out as oids instead of counted.

// RegionSetQuery describes the moving-objects part of a Piet-QL query,
// `MOVING COUNT(*) FROM <Table> WHERE PASSES THROUGH layer.<Layer>
// [DURING …] [SAMPLED ONLY] [GROUP BY hour|day]`, as one engine call.
type RegionSetQuery struct {
	// Table is the moving-object fact table.
	Table string
	// Layer and IDs name the region set: polygons of one layer.
	Layer string
	IDs   []layer.Gid
	// Window is the closed query interval.
	Window timedim.Interval
	// Granule is the GROUP BY width in seconds
	// (timedim.SecondsPerHour, timedim.SecondsPerDay); 0 leaves the
	// count ungrouped.
	Granule int64
	// SampledOnly selects raw-sample semantics (an object counts when
	// one of its samples lies in a polygon) instead of interpolation
	// (an object counts when its trajectory passes through one).
	SampledOnly bool
}

// GranuleCount is the distinct-object count of one granule.
type GranuleCount struct {
	// Start is the granule's first instant, a multiple of the width.
	Start   timedim.Instant
	Objects int
}

// RegionSetCount is the answer to a RegionSetQuery.
type RegionSetCount struct {
	// Granules lists, by ascending Start, every granule with at least
	// one object; nil for an ungrouped query.
	Granules []GranuleCount
	// Total is the number of distinct objects over the whole window.
	Total int
}

// CountRegionSet answers the Piet-QL moving-objects part in one call.
// Sampled semantics count an object in a granule when it has a sample
// inside one of the polygons at an instant of granule ∩ window;
// grid-accelerated when the grid is enabled, else a columnar scan
// with the same answer. Interpolated semantics clip every
// inside-interval to the window and count the object in each granule
// from the clipped start's granule up to the clipped end, so an
// interval ending exactly on a granule boundary also counts in the
// next granule; an ungrouped interpolated count is exactly
// CountPassingThroughGeometries.
//
//moglint:deterministic
func (e *Engine) CountRegionSet(ctx context.Context, q RegionSetQuery) (RegionSetCount, error) {
	return run(ctx, e, "count_region_set", q.Table, 7, func(ctx context.Context, qc *qctl) (RegionSetCount, error) {
		qc.noteWindow(q.Window)
		return e.countRegionSet(ctx, qc, q)
	})
}

// countRegionSet is CountRegionSet inside an already open bracket.
func (e *Engine) countRegionSet(ctx context.Context, qc *qctl, q RegionSetQuery) (RegionSetCount, error) {
	if q.Granule < 0 {
		return RegionSetCount{}, fmt.Errorf("core: negative granule %d", q.Granule)
	}
	if err := qc.step(ctx); err != nil {
		return RegionSetCount{}, err
	}
	pgs, err := e.regionPolygons(q.Layer, q.IDs)
	if err != nil {
		return RegionSetCount{}, err
	}
	gr := granules{width: q.Granule, n: 1}
	if gr.width > 0 {
		tbl, err := qc.table()
		if err != nil {
			return RegionSetCount{}, err
		}
		gr = groupedGranules(q.Window, gr.width, tbl)
	}
	s, err := e.regionSet(ctx, qc, pgs, q.Window, gr, q.SampledOnly)
	if err != nil {
		return RegionSetCount{}, err
	}
	return s.count(), nil
}

// regionPolygons resolves a region set's polygon ids.
func (e *Engine) regionPolygons(layerName string, ids []layer.Gid) ([]geom.Polygon, error) {
	l, ok := e.mctx.GIS().Layer(layerName)
	if !ok {
		return nil, fmt.Errorf("core: unknown layer %q", layerName)
	}
	pgs := make([]geom.Polygon, len(ids))
	for i, id := range ids {
		pg, ok := l.Polygon(id)
		if !ok {
			return nil, fmt.Errorf("core: layer %q has no polygon %d", layerName, id)
		}
		pgs[i] = pg
	}
	return pgs, nil
}

// granules maps instants to the granules a RegionSetQuery reports:
// granule k starts at base + k*width. An ungrouped query (width 0) has
// the single granule 0, the whole window.
type granules struct {
	width, base int64
	n           int
}

// groupedGranules spans the window clamped to the table version's
// time extent: samples and interpolated trajectories both live inside
// it, so no granule outside can receive an object, and the granule
// count stays bounded by the data whatever the window.
func groupedGranules(w timedim.Interval, width int64, tbl *moft.Table) granules {
	gr := granules{width: width}
	minT, maxT, ok := tbl.TimeSpan()
	lo, hi := int64(w.Lo), int64(w.Hi)
	if lo < int64(minT) {
		lo = int64(minT)
	}
	if hi > int64(maxT) {
		hi = int64(maxT)
	}
	if !ok || lo > hi {
		return gr
	}
	gr.base = floorTo(lo, width)
	gr.n = int((floorTo(hi, width)-gr.base)/width) + 1
	return gr
}

// floorTo rounds t down to a multiple of w (w > 0), like
// timedim.Instant.TruncateHour for w = one hour.
func floorTo(t, w int64) int64 { return floorDiv(t, w) * w }

// floorDiv is t / w rounded down (w > 0), with one division.
func floorDiv(t, w int64) int64 {
	q := t / w
	if q*w > t {
		q--
	}
	return q
}

// index returns the granule holding instant t, or -1 outside the span.
func (gr granules) index(t int64) int {
	if gr.width == 0 {
		return 0
	}
	k := (floorTo(t, gr.width) - gr.base) / gr.width
	if k < 0 || k >= int64(gr.n) {
		return -1
	}
	return int(k)
}

// window returns granule k's part of the query window.
func (gr granules) window(k int, w timedim.Interval) (lo, hi int64) {
	lo, hi = int64(w.Lo), int64(w.Hi)
	if gr.width == 0 {
		return lo, hi
	}
	start := gr.base + int64(k)*gr.width
	if start > lo {
		lo = start
	}
	if end := start + gr.width - 1; end < hi {
		hi = end
	}
	return lo, hi
}

// objectSets is a region-set operator's answer before its readout:
// one object bitset per granule, the bitset of the objects over the
// whole window, and the objects the bitset ordinals name.
type objectSets struct {
	gr    granules
	words int
	// sets holds gr.n blocks of words words, one per granule; total
	// holds the objects over the whole window.
	sets, total []uint64
	// Ordinal o < len(oids) names oids[o]; the ordinals after them
	// name added in order: the sample index's objects new since its
	// base.
	oids, added []moft.Oid
}

// seal charges the window's objects to the result budget: once, from
// the answer, whichever route and cache state produced it. An operator
// that kept no total bitset takes the union of its granules.
func (s *objectSets) seal(qc *qctl) error {
	if s.total == nil {
		s.total = s.sets
		if s.gr.n > 1 {
			s.total = make([]uint64, s.words)
			for k := 0; k < s.gr.n; k++ {
				for w, b := range s.sets[k*s.words : (k+1)*s.words] {
					s.total[w] |= b
				}
			}
		}
	}
	return qc.addResults(int64(popcount(s.total)))
}

// count reads the sets out as a CountRegionSet answer.
func (s *objectSets) count() RegionSetCount {
	res := RegionSetCount{Total: popcount(s.total)}
	gr := s.gr
	if gr.width == 0 {
		return res
	}
	for k := 0; k < gr.n; k++ {
		if c := popcount(s.sets[k*s.words : (k+1)*s.words]); c > 0 {
			res.Granules = append(res.Granules, GranuleCount{
				Start:   timedim.Instant(gr.base + int64(k)*gr.width),
				Objects: c,
			})
		}
	}
	return res
}

// objects reads the window's object set out as ascending oids, nil
// when it is empty. Only a readout naming an added object sorts.
func (s *objectSets) objects(ctx context.Context, qc *qctl) ([]moft.Oid, error) {
	var out []moft.Oid
	added := false
	for wd, w := range s.total {
		if wd%checkEvery == 0 {
			if err := qc.step(ctx); err != nil {
				return nil, err
			}
		}
		for ; w != 0; w &= w - 1 {
			if o := wd<<6 + bits.TrailingZeros64(w); o < len(s.oids) {
				out = append(out, s.oids[o])
			} else {
				out = append(out, s.added[o-len(s.oids)])
				added = true
			}
		}
	}
	if added {
		slices.Sort(out)
	}
	return out, nil
}

func popcount(set []uint64) int {
	n := 0
	for _, b := range set {
		n += bits.OnesCount64(b)
	}
	return n
}

// regionSet runs the region-set operator of the semantics asked for.
func (e *Engine) regionSet(ctx context.Context, qc *qctl, pgs []geom.Polygon, w timedim.Interval, gr granules, sampled bool) (*objectSets, error) {
	if sampled {
		return e.sampledRegionSet(ctx, qc, pgs, w, gr)
	}
	return e.passingRegionSet(ctx, qc, pgs, w, gr)
}

// objectsIn answers the object-set queries as the ungrouped,
// one-polygon case of a region-set operator: the objects with a sample
// inside pg during w (sampled), else those whose interpolated
// trajectory passes through it, ascending, nil when there are none.
func (e *Engine) objectsIn(ctx context.Context, qc *qctl, pg geom.Polygon, w timedim.Interval, sampled bool) ([]moft.Oid, error) {
	s, err := e.regionSet(ctx, qc, []geom.Polygon{pg}, w, granules{n: 1}, sampled)
	if err != nil {
		return nil, err
	}
	return s.objects(ctx, qc)
}

// sampledRegionSet is the sampled operator: one bitset per granule,
// filled from the sample index (one grid ObjectsSampledInto per
// granule × polygon, then one pass over the tail) or, with the grid
// disabled, by the columnar scan.
func (e *Engine) sampledRegionSet(ctx context.Context, qc *qctl, pgs []geom.Polygon, w timedim.Interval, gr granules) (*objectSets, error) {
	s := &objectSets{gr: gr}
	if e.gridEnabled() {
		ix, err := e.samples(ctx, qc)
		if err != nil {
			return nil, err
		}
		s.words, s.oids, s.added = ix.words, ix.base.cols.Oids, ix.newOids
		sp := obs.TracerFrom(ctx).Start("regionset_grid")
		s.sets, err = e.sampledRegionSetGrid(ctx, qc, ix, pgs, w, gr)
		sp.SetCount("polygons", int64(len(pgs)))
		sp.SetCount("granules", int64(gr.n))
		sp.SetCount("tail_rows", int64(len(ix.tail)))
		sp.End()
		if err != nil {
			return nil, err
		}
	} else {
		tbl, err := qc.table()
		if err != nil {
			return nil, err
		}
		cols, err := tbl.ColumnsCtx(ctx)
		if err != nil {
			return nil, err
		}
		s.words, s.oids = (cols.NumObjects()+63)/64, cols.Oids
		if s.sets, err = e.sampledRegionSetScan(ctx, qc, cols, pgs, w, gr); err != nil {
			return nil, err
		}
	}
	return s, s.seal(qc)
}

// sampledRegionSetGrid ORs every polygon's grid answer for each
// granule's window into that granule's bitset, then the tail's.
func (e *Engine) sampledRegionSetGrid(ctx context.Context, qc *qctl, ix *sampleIndex, pgs []geom.Polygon, w timedim.Interval, gr granules) ([]uint64, error) {
	met := e.metrics()
	g, words := ix.base.grid, ix.words
	sets := make([]uint64, gr.n*words)
	for k := 0; k < gr.n; k++ {
		lo, hi := gr.window(k, w)
		set := sets[k*words : (k+1)*words]
		for _, pg := range pgs {
			if err := qc.step(ctx); err != nil {
				return nil, err
			}
			st := g.ObjectsSampledInto(pg, lo, hi, set, met)
			if err := qc.addRows(ctx, st.Rows); err != nil {
				return nil, err
			}
		}
	}
	if err := qc.addRows(ctx, ix.tailRegionSet(pgs, w, gr, sets)); err != nil {
		return nil, err
	}
	return sets, nil
}

// sampledRegionSetScan is the unaccelerated sampled route: one pass
// over each object's in-window rows, testing a row against the
// polygons only while its object is not yet counted in the row's
// granule.
func (e *Engine) sampledRegionSetScan(ctx context.Context, qc *qctl, cols *moft.Columns, pgs []geom.Polygon, w timedim.Interval, gr granules) ([]uint64, error) {
	sp := obs.TracerFrom(ctx).Start("regionset_scan")
	defer sp.End()
	sp.SetCount("polygons", int64(len(pgs)))
	sp.SetCount("granules", int64(gr.n))
	boxes := make([]geom.BBox, len(pgs))
	for i, pg := range pgs {
		boxes[i] = pg.BBox()
	}
	words := (cols.NumObjects() + 63) / 64
	sets := make([]uint64, gr.n*words)
	err := e.scanWindow(ctx, qc, cols, w, func(i, r int) {
		k := gr.index(cols.T[r])
		wd, bit := i>>6, uint64(1)<<uint(i&63)
		if k < 0 || sets[k*words+wd]&bit != 0 {
			return
		}
		p := geom.Pt(cols.X[r], cols.Y[r])
		for j, pg := range pgs {
			if boxes[j].ContainsPoint(p) && pg.ContainsPoint(p) {
				sets[k*words+wd] |= bit
				return
			}
		}
	})
	return sets, err
}

// scanWindow is the grid-off sample scan: it visits, object by object,
// every row with instant in w — found by binary search in each
// object's time-ordered run — and charges each to the row budget and
// the tuples-scanned counter.
func (e *Engine) scanWindow(ctx context.Context, qc *qctl, cols *moft.Columns, w timedim.Interval, visit func(obj, row int)) error {
	lo, hi := int64(w.Lo), int64(w.Hi)
	scanned, pending := int64(0), int64(0)
	defer func() { e.metrics().MOFTTuplesScanned.Add(scanned + pending) }()
	for i := 0; i < cols.NumObjects(); i++ {
		rlo, rhi := cols.ObjectRange(i)
		ts := cols.T[rlo:rhi]
		for r := rlo + sort.Search(len(ts), func(j int) bool { return ts[j] >= lo }); r < rhi && cols.T[r] <= hi; r++ {
			if pending >= checkEvery {
				scanned += pending
				if err := qc.addRows(ctx, pending); err != nil {
					return err
				}
				pending = 0
			}
			pending++
			visit(i, r)
		}
	}
	return qc.addRows(ctx, pending)
}

// passingRegionSet is the interpolated operator, answered from the
// cached, prefiltered per-polygon interval columns, scanning only the
// entries the window reaches. Ungrouped, an object counts when an
// interval touches the window. Grouped, each interval is clipped to
// the window and marks the granules from its clipped start's granule
// while the granule start is <= the clipped end; the total holds
// objects with a non-empty clipped interval, in its own bitset because
// it is not always the union of the marked granules.
func (e *Engine) passingRegionSet(ctx context.Context, qc *qctl, pgs []geom.Polygon, w timedim.Interval, gr granules) (*objectSets, error) {
	tc, err := e.table(ctx, qc)
	if err != nil {
		return nil, err
	}
	sp := obs.TracerFrom(ctx).Start("regionset_intervals")
	defer sp.End()
	sp.SetCount("polygons", int64(len(pgs)))
	sp.SetCount("granules", int64(gr.n))
	words := (len(tc.oids) + 63) / 64
	total := make([]uint64, words)
	s := &objectSets{gr: gr, words: words, sets: total, total: total, oids: tc.oids}
	if gr.width > 0 {
		s.sets = make([]uint64, gr.n*words)
	}
	wlo, whi := float64(w.Lo), float64(w.Hi)
	scanned := 0
	defer func() { e.metrics().IntervalEntriesScanned.Add(int64(scanned)) }()
	for _, pg := range pgs {
		if err := qc.step(ctx); err != nil {
			return nil, err
		}
		col, err := e.polygonIntervals(ctx, qc, tc, pg)
		if err != nil {
			return nil, err
		}
		cur := col.window(wlo, whi)
		for run := cur.next(); run != nil; run = cur.next() {
			if cur.fresh >= checkEvery {
				if err := qc.step(ctx); err != nil {
					return nil, err
				}
				cur.fresh = 0
			}
			for _, en := range run {
				if gr.width == 0 {
					if en.hi >= wlo {
						o := tc.ordinal(en.oid)
						total[o>>6] |= 1 << uint(o&63)
					}
					continue
				}
				lo, hi := max(en.lo, wlo), min(en.hi, whi)
				if hi < lo {
					continue
				}
				o := tc.ordinal(en.oid)
				wd, bit := o>>6, uint64(1)<<uint(o&63)
				total[wd] |= bit
				// Granule k starts at b; one division finds the clipped
				// start's, then k steps with b.
				k := floorDiv(int64(timedim.Instant(lo))-gr.base, gr.width)
				for b := gr.base + k*gr.width; float64(b) <= hi && k < int64(gr.n); b, k = b+gr.width, k+1 {
					if k >= 0 {
						s.sets[int(k)*words+wd] |= bit
					}
				}
			}
		}
		scanned += cur.scanned
	}
	return s, s.seal(qc)
}

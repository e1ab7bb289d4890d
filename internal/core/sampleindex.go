package core

import (
	"cmp"
	"context"
	"slices"

	"mogis/internal/agggrid"
	"mogis/internal/faultpoint"
	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/obs"
	"mogis/internal/timedim"
)

// This file implements the sample index, the structure every sampled
// query reads while the grid is on (CountSamplesInside,
// ObjectsSampledInside, ObjectsSampledAt and the sampled
// CountRegionSet). A table version's index is a sealed base plus an
// immutable tail:
//
//   - the base is the columnar snapshot and pre-aggregated grid of one
//     version of the table's lineage (moft.Table.Since). It is never
//     modified, and Engine.view hands it on from cache entry to cache
//     entry, so the versions live ingest derives one after another all
//     answer from the same base;
//   - the tail holds the rows appended since the base: for each run that
//     grew, the rows past the base's run length. Finding them costs
//     O(objects + tail log tail); a query binary-searches their instants
//     and scans the rows inside its window.
//
// Sampled answers decompose over base and tail: counts add, and object
// sets OR together, the objects new since the base taking bitset
// ordinals after the base's. Compaction is the only full build: when
// the tail holds more than 1/compactDivisor of the base's rows, the
// version's first sampled reader builds a new base from its own
// version. InvalidateTrajectories and ResetCache drop the base with
// the entry, so the next sampled query builds a full grid.

// compactDivisor bounds the tail: a version whose rows appended since
// its base exceed the base's rows / compactDivisor builds its own
// base instead.
const compactDivisor = 16

// sampleBase is a sealed base: the columnar snapshot and grid of one
// table version. Immutable; read concurrently by the queries of every
// version that answers from it.
type sampleBase struct {
	tbl  *moft.Table
	ver  moft.Version // tbl's Version when the base was built
	cols *moft.Columns
	grid *agggrid.Grid
}

// current reports whether the base still matches its table: rows
// loaded into tbl in place retire it.
func (b *sampleBase) current() bool { return b.tbl.Version() == b.ver }

// sampleIndex is one table version's sample index: a base and the
// rows appended since it. Immutable once built.
type sampleIndex struct {
	base *sampleBase
	// newOids lists, ascending, the tail's objects absent from the
	// base: object newOids[i] has ordinal len(base.cols.Oids)+i.
	newOids []moft.Oid
	// tail holds the rows appended since the base in (instant, object)
	// order.
	tail []tailRow
	// words is the length of an object bitset over base and tail.
	words int
}

// tailRow is one appended sample: instant, position and the object's
// bitset ordinal.
type tailRow struct {
	t    int64
	x, y float64
	obj  int32
}

// sampleIndex returns the version's sample index, building it
// single-flight on first use: from the inherited base plus a tail when
// the base is of this lineage and the tail stays under the compaction
// bound, else by building a new base from this version. Independent of
// the LIT build: sampled queries never pay for interpolation.
func (tc *tableCache) sampleIndex(ctx context.Context, e *Engine) (*sampleIndex, error) {
	_, err := tc.sampleUnit.run(ctx, "core/grid-build", func() error {
		if err := faultpoint.Hit(faultpoint.CoreGridBuild); err != nil {
			return err
		}
		if b := tc.base; b != nil && b.current() && (tc.tbl.Len()-b.tbl.Len())*compactDivisor <= b.tbl.Len() {
			if changed, ok := tc.tbl.Since(b.tbl); ok {
				ix, err := e.tailIndex(ctx, b, tc.tbl, changed)
				if err != nil {
					return err
				}
				tc.samp = ix
				return nil
			}
		}
		b, err := e.buildBase(ctx, tc.tbl, tc.ver)
		if err != nil {
			return err
		}
		tc.samp = &sampleIndex{base: b, words: b.grid.SetWords()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tc.samp, nil
}

// handOn returns the sample base a later version's entry inherits:
// the one this entry's index answers from once built, else the one it
// inherited itself.
func (tc *tableCache) handOn() *sampleBase {
	if tc.sampleUnit.ok() {
		return tc.samp.base
	}
	return tc.base
}

// buildBase builds a sealed base from a table version: its columnar
// snapshot and pre-aggregated grid.
func (e *Engine) buildBase(ctx context.Context, tbl *moft.Table, ver moft.Version) (*sampleBase, error) {
	sp := obs.TracerFrom(ctx).Start("agggrid_build")
	defer sp.End()
	cols, err := tbl.ColumnsCtx(ctx)
	if err != nil {
		return nil, err
	}
	// Time buckets are sized adaptively: the observed query windows
	// of the interval-taking grid ops refine the extent + density
	// seed (GeoBlocks-style query-driven refinement); with no
	// telemetry or no windowed queries yet, the hint stays 0.
	cfg := agggrid.Config{WindowHint: e.telemetry().MeanWindow(windowHintOps...)}
	g, err := agggrid.BuildCtx(ctx, cols, cfg)
	if err != nil {
		return nil, err
	}
	sp.SetCount("cells", int64(g.Cells()))
	sp.SetCount("samples", int64(cols.Len()))
	sp.SetCount("time_buckets", int64(g.TimeBuckets()))
	e.metrics().AggGridBuilds.Inc()
	return &sampleBase{tbl: tbl, ver: ver, cols: cols, grid: g}, nil
}

// windowHintOps are the ops whose observed query windows feed the
// grid's adaptive time-bucket sizing: the interval-taking queries the
// sample grid answers.
var windowHintOps = []string{"count_samples_inside", "objects_sampled_inside", "count_region_set"}

// tailIndex gathers the rows tbl holds past base: the changed objects'
// rows beyond their base run length (all rows of an object new since
// the base).
func (e *Engine) tailIndex(ctx context.Context, b *sampleBase, tbl *moft.Table, changed []moft.Oid) (*sampleIndex, error) {
	sp := obs.TracerFrom(ctx).Start("sample_tail")
	defer sp.End()
	cols := b.cols
	ix := &sampleIndex{base: b, tail: make([]tailRow, 0, tbl.Len()-cols.Len())}
	for i, oid := range changed {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rows := tbl.ObjectTuples(oid)
		o, found := slices.BinarySearch(cols.Oids, oid)
		from := 0
		if found {
			lo, hi := cols.ObjectRange(o)
			from = hi - lo
		} else {
			o = len(cols.Oids) + len(ix.newOids)
			ix.newOids = append(ix.newOids, oid)
		}
		for _, tp := range rows[from:] {
			ix.tail = append(ix.tail, tailRow{t: int64(tp.T), x: tp.X, y: tp.Y, obj: int32(o)})
		}
	}
	// In time order a query reads only the rows inside its window.
	slices.SortFunc(ix.tail, func(a, b tailRow) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.obj, b.obj)
	})
	ix.words = (len(cols.Oids) + len(ix.newOids) + 63) / 64
	sp.SetCount("rows", int64(len(ix.tail)))
	sp.SetCount("new_objects", int64(len(ix.newOids)))
	return ix, nil
}

// window returns the tail rows with instant in [lo, hi].
func (ix *sampleIndex) window(lo, hi int64) []tailRow {
	r0, _ := slices.BinarySearchFunc(ix.tail, lo, func(r tailRow, t int64) int { return cmp.Compare(r.t, t) })
	r1 := r0
	for r1 < len(ix.tail) && ix.tail[r1].t <= hi {
		r1++
	}
	return ix.tail[r0:r1]
}

// countSamples counts the samples inside the closed polygon with
// instant in [lo, hi]: the grid's count of the base plus the tail's.
func (ix *sampleIndex) countSamples(pg geom.Polygon, lo, hi int64, met *obs.Metrics) (int, agggrid.Stats) {
	n, st := ix.base.grid.CountSamplesStats(pg, lo, hi, met)
	box := pg.BBox()
	for _, r := range ix.window(lo, hi) {
		st.Rows++
		if p := geom.Pt(r.x, r.y); box.ContainsPoint(p) && pg.ContainsPoint(p) {
			n++
		}
	}
	return n, st
}

// tailRegionSet ORs the tail into per-granule object bitsets (gr.n
// blocks of ix.words words) for the sampled region-set operator: one
// pass marks each in-window row's granule, testing a row against the
// polygons only while its object is not yet counted there. It returns
// the rows tested.
func (ix *sampleIndex) tailRegionSet(pgs []geom.Polygon, w timedim.Interval, gr granules, sets []uint64) int64 {
	if len(ix.tail) == 0 {
		return 0
	}
	boxes := make([]geom.BBox, len(pgs))
	for i, pg := range pgs {
		boxes[i] = pg.BBox()
	}
	tested := int64(0)
	for _, r := range ix.window(int64(w.Lo), int64(w.Hi)) {
		k := gr.index(r.t)
		if k < 0 {
			continue
		}
		wd, bit := k*ix.words+int(r.obj>>6), uint64(1)<<uint(r.obj&63)
		if sets[wd]&bit != 0 {
			continue
		}
		tested++
		p := geom.Pt(r.x, r.y)
		for j, pg := range pgs {
			if boxes[j].ContainsPoint(p) && pg.ContainsPoint(p) {
				sets[wd] |= bit
				break
			}
		}
	}
	return tested
}

// Package agggrid implements a GeoBlocks-style pre-aggregated uniform
// grid over a MOFT's columnar snapshot. The grid partitions the
// table's bounding box into cells and pre-aggregates, per cell, the
// sample rows falling in it (a CSR index listing them in time order),
// the sample count, an object-presence bitset, and a temporal index
// over fixed-width time buckets (see temporal.go). A polygon aggregate
// then classifies the cells overlapping the polygon's bounding box
// into
//
//   - interior cells — not touched by any polygon boundary segment and
//     with their center inside the polygon: every sample in them is
//     inside, so the pre-aggregated count/bitset answers in O(1) when
//     the time window is vacuous, and the temporal index resolves a
//     proper window with two binary searches plus a prefix-sum
//     subtraction otherwise;
//   - boundary cells — touched by a boundary segment: refined with an
//     exact point-in-polygon test per in-window sample;
//   - exterior cells — skipped entirely.
//
// The classification is exact, so accelerated results are identical to
// a full scan: cells partition the samples, a cell whose rectangle
// meets no boundary segment is uniformly inside or outside the closed
// polygon (classified by its center), and any sample lying exactly on
// the polygon boundary is inside a boundary cell, where it gets the
// exact test. Closed-polygon semantics (boundary points count as
// inside) match geom.Polygon.ContainsPoint.
//
// Every function here is a query hot path and must answer
// bit-identically to the serial scan it accelerates:
//
//moglint:deterministic
package agggrid

import (
	"context"
	"math"
	"math/bits"

	"mogis/internal/geom"
	"mogis/internal/moft"
	"mogis/internal/obs"
)

// Config controls grid construction. The temporal index is always
// built and always sized from the data: the time extent, the sample
// density and the query-window hint.
type Config struct {
	// NX, NY are the cell counts per axis; 0 derives them from the
	// sample count (targeting ~64 samples per cell, side clamped to
	// [8, 256]).
	NX, NY int
	// WindowHint is the typical query-interval width in model time
	// (e.g. telemetry's observed mean window) used by auto sizing; 0
	// means unknown.
	WindowHint int64

	// timeBuckets, when positive, forces the per-cell bucket count
	// (clamped to [1, 256]); the package's tests sweep it.
	timeBuckets int
}

// targetPerCell is the sample count the default sizing aims at per
// cell: small enough that boundary-cell refinement stays cheap, large
// enough that the cell directory stays negligible next to the data.
const targetPerCell = 64

// Grid is the immutable pre-aggregated index over one columnar
// snapshot. Safe for concurrent use.
type Grid struct {
	cols   *moft.Columns
	extent geom.BBox
	nx, ny int
	cellW  float64
	cellH  float64

	// cellStart/rows is a CSR layout: cell c owns sample rows
	// rows[cellStart[c]:cellStart[c+1]], each an index into the
	// snapshot's columns, listed in (instant, row) order.
	cellStart []int32
	rows      []int32
	// presence holds one bitset of NumObjects bits per cell
	// (words uint64 words each): bit o set iff object ordinal o has a
	// sample in the cell.
	words    int
	presence []uint64

	minT, maxT int64

	// Temporal index (nb >= 1 on every non-empty grid):
	// bktOff[c*(nb+1)+b] counts cell c's rows in buckets [0, b) (a
	// per-cell prefix sum over fixed-width time buckets of width bktW);
	// bktPresence holds one object-presence bitset per (cell, bucket).
	nb          int
	bktW        int64
	bktOff      []int32
	bktPresence []uint64
}

// Stats reports the row-level work a query did: Rows counts the
// sample rows examined one at a time (fringe-bucket refinement, exact
// point-in-polygon tests); answers taken from pre-aggregates
// contribute nothing.
type Stats struct {
	Rows int64
}

// Build constructs the grid for a snapshot. An empty snapshot yields a
// grid that answers every query with zero.
func Build(cols *moft.Columns, cfg Config) *Grid {
	g, _ := BuildCtx(context.Background(), cols, cfg)
	return g
}

// BuildCtx is Build with cooperative cancellation: ctx is observed
// every few thousand rows in both passes, and an abandoned build
// returns the context's error with no grid published.
func BuildCtx(ctx context.Context, cols *moft.Columns, cfg Config) (*Grid, error) {
	g := &Grid{cols: cols, extent: cols.BBox()}
	n := cols.Len()
	if n == 0 || g.extent.IsEmpty() {
		g.nx, g.ny = 1, 1
		g.cellW, g.cellH = 1, 1
		g.cellStart = make([]int32, 2)
		return g, nil
	}
	g.nx, g.ny = cfg.NX, cfg.NY
	if g.nx <= 0 || g.ny <= 0 {
		side := int(math.Sqrt(float64(n) / targetPerCell))
		if side < 8 {
			side = 8
		}
		if side > 256 {
			side = 256
		}
		g.nx, g.ny = side, side
	}
	// A degenerate (zero-width/height) extent still gets positive cell
	// sizes so cellOf never divides by zero; clamping does the rest.
	if g.cellW = g.extent.Width() / float64(g.nx); g.cellW <= 0 {
		g.cellW = 1
	}
	if g.cellH = g.extent.Height() / float64(g.ny); g.cellH <= 0 {
		g.cellH = 1
	}
	lo, hi, _ := cols.TimeSpan()
	g.minT, g.maxT = int64(lo), int64(hi)
	g.words = (cols.NumObjects() + 63) / 64

	cells := g.nx * g.ny
	// Pass 1: per-cell counts (shifted by one so the prefix sum turns
	// counts into start offsets in place).
	g.cellStart = make([]int32, cells+1)
	cellOfRow := make([]int32, n)
	for i := 0; i < n; i++ {
		if i%4096 == 4095 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := int32(g.cellOf(cols.X[i], cols.Y[i]))
		cellOfRow[i] = c
		g.cellStart[c+1]++
	}
	for c := 0; c < cells; c++ {
		g.cellStart[c+1] += g.cellStart[c]
	}
	// Pass 2 streams the rows in global (instant, row) order: per-cell
	// cursors keep each cell's slice of rows time-sorted without a
	// per-cell sort, and each row sets its presence bits and counts
	// into its time bucket on the way through.
	nb := g.pickBuckets(cfg)
	g.nb = nb
	g.bktW = (g.maxT-g.minT)/int64(nb) + 1
	g.rows = make([]int32, n)
	g.presence = make([]uint64, cells*g.words)
	g.bktOff = make([]int32, cells*(nb+1))
	g.bktPresence = make([]uint64, cells*nb*g.words)
	cursor := make([]int32, cells)
	copy(cursor, g.cellStart[:cells])
	for k, row := range cols.TimeOrder() {
		if k%4096 == 4095 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := int(cellOfRow[row])
		g.rows[cursor[c]] = row
		cursor[c]++
		o := cols.Obj[row]
		bit := uint64(1) << uint(o&63)
		g.presence[c*g.words+int(o>>6)] |= bit
		b := int((cols.T[row] - g.minT) / g.bktW)
		g.bktOff[c*(nb+1)+b+1]++
		g.bktPresence[(c*nb+b)*g.words+int(o>>6)] |= bit
	}
	// Per-cell prefix sums turn bucket counts into offsets into the
	// cell's slice of rows: bucket b of cell c is
	// rows[cellStart[c]:][bktOff[base+b]:bktOff[base+b+1]].
	for c := 0; c < cells; c++ {
		base := c * (nb + 1)
		for b := 0; b < nb; b++ {
			g.bktOff[base+b+1] += g.bktOff[base+b]
		}
	}
	return g, nil
}

// Cells returns the total cell count.
func (g *Grid) Cells() int { return g.nx * g.ny }

// Dims returns the per-axis cell counts.
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// cellOf maps a point inside the extent to its cell index; points on
// the max edges map to the last cell.
func (g *Grid) cellOf(x, y float64) int {
	cx := int((x - g.extent.MinX) / g.cellW)
	cy := int((y - g.extent.MinY) / g.cellH)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	if cy < 0 {
		cy = 0
	}
	return cy*g.nx + cx
}

// cellBox returns the rectangle of cell c.
func (g *Grid) cellBox(c int) geom.BBox {
	cx, cy := c%g.nx, c/g.nx
	return geom.BBox{
		MinX: g.extent.MinX + float64(cx)*g.cellW,
		MinY: g.extent.MinY + float64(cy)*g.cellH,
		MaxX: g.extent.MinX + float64(cx+1)*g.cellW,
		MaxY: g.extent.MinY + float64(cy+1)*g.cellH,
	}
}

// cellRange clamps a bounding box to the grid's cell index ranges,
// with ok=false when the box misses the extent entirely.
func (g *Grid) cellRange(b geom.BBox) (x0, x1, y0, y1 int, ok bool) {
	if !b.Intersects(g.extent) {
		return 0, 0, 0, 0, false
	}
	x0 = int((b.MinX - g.extent.MinX) / g.cellW)
	x1 = int((b.MaxX - g.extent.MinX) / g.cellW)
	y0 = int((b.MinY - g.extent.MinY) / g.cellH)
	y1 = int((b.MaxY - g.extent.MinY) / g.cellH)
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	return clamp(x0, g.nx-1), clamp(x1, g.nx-1), clamp(y0, g.ny-1), clamp(y1, g.ny-1), true
}

// Cover is a polygon's exact cell classification (exterior cells
// omitted).
type Cover struct {
	Interior []int32 // cells fully inside the closed polygon
	Boundary []int32 // cells met by the polygon boundary (need refinement)
}

// Cover classifies the cells overlapping pg's bounding box. A cell is
// Boundary iff some polygon boundary segment intersects its closed
// rectangle grown by a small slack; the remaining cells are uniformly
// inside or outside and classified by one center point-in-polygon
// test.
func (g *Grid) Cover(pg geom.Polygon) Cover {
	var cv Cover
	x0, x1, y0, y1, ok := g.cellRange(pg.BBox())
	if !ok {
		return cv
	}
	// cellOf's division and cellBox's multiply-add round separately, so
	// a sample can sit a few ulps outside its cell's computed rectangle
	// (on the extent's max edge, for one). The slack, far above that
	// error, keeps every cell such a sample's boundary edge passes
	// through a Boundary cell, which is refined exactly.
	e := g.extent
	slack := 1e-9 * (math.Abs(e.MinX) + math.Abs(e.MaxX) + math.Abs(e.MinY) + math.Abs(e.MaxY) + g.cellW + g.cellH)
	marked := make([]bool, g.nx*g.ny)
	for _, r := range pg.Rings() {
		for i := 0; i < r.NumVertices(); i++ {
			seg := r.Segment(i)
			sx0, sx1, sy0, sy1, ok := g.cellRange(seg.BBox())
			if !ok {
				continue
			}
			for cy := sy0; cy <= sy1; cy++ {
				for cx := sx0; cx <= sx1; cx++ {
					c := cy*g.nx + cx
					if !marked[c] && segIntersectsRect(seg, g.cellBox(c).Expand(slack)) {
						marked[c] = true
					}
				}
			}
		}
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			c := cy*g.nx + cx
			if marked[c] {
				cv.Boundary = append(cv.Boundary, int32(c))
			} else if pg.ContainsPoint(g.cellBox(c).Center()) {
				cv.Interior = append(cv.Interior, int32(c))
			}
		}
	}
	return cv
}

// segIntersectsRect reports whether the segment meets the closed
// rectangle: an endpoint inside, or a crossing with one of its edges.
func segIntersectsRect(s geom.Segment, b geom.BBox) bool {
	if !b.Intersects(s.BBox()) {
		return false
	}
	if b.ContainsPoint(s.A) || b.ContainsPoint(s.B) {
		return true
	}
	c := b.Corners()
	for i := 0; i < 4; i++ {
		if s.Intersects(geom.Seg(c[i], c[(i+1)%4])) {
			return true
		}
	}
	return false
}

// metricsOrNop makes a nil bundle safe: the zero Metrics has nil
// instruments, which are no-ops.
func metricsOrNop(met *obs.Metrics) *obs.Metrics {
	if met == nil {
		return &obs.Metrics{}
	}
	return met
}

// timeVacuous reports whether [lo, hi] covers every sample instant, so
// interior cells can be answered from pre-aggregates without touching
// sample rows. Every window is vacuous on an empty grid.
func (g *Grid) timeVacuous(lo, hi int64) bool {
	return len(g.rows) == 0 || lo <= g.minT && hi >= g.maxT
}

// CountSamples returns the number of samples positioned inside the
// closed polygon with instant in [lo, hi] — exactly what a full scan
// with per-sample ContainsPoint would count.
func (g *Grid) CountSamples(pg geom.Polygon, lo, hi int64, met *obs.Metrics) int {
	n, _ := g.CountSamplesStats(pg, lo, hi, met)
	return n
}

// CountSamplesStats is CountSamples plus the row-level work done.
func (g *Grid) CountSamplesStats(pg geom.Polygon, lo, hi int64, met *obs.Metrics) (int, Stats) {
	met = metricsOrNop(met)
	cv := g.Cover(pg)
	met.AggGridQueries.Inc()
	met.AggGridInteriorCells.Add(int64(len(cv.Interior)))
	met.AggGridBoundaryCells.Add(int64(len(cv.Boundary)))
	total := 0
	if g.timeVacuous(lo, hi) {
		for _, c := range cv.Interior {
			total += int(g.cellStart[c+1] - g.cellStart[c])
		}
	} else {
		met.AggGridTemporalQueries.Inc()
		for _, c := range cv.Interior {
			total += g.temporalCount(c, lo, hi)
		}
	}
	met.AggGridInteriorSamples.Add(int64(total))
	var st Stats
	refined := int64(0)
	cols := g.cols
	for _, c := range cv.Boundary {
		for _, row := range g.boundaryWindow(c, lo, hi, &st) {
			refined++
			if pg.ContainsPoint(geom.Pt(cols.X[row], cols.Y[row])) {
				total++
			}
		}
	}
	met.AggGridRefinedSamples.Add(refined)
	return total, st
}

// boundaryWindow returns the rows of boundary cell c with instant in
// [lo, hi] — the time-sorted row list narrowed by two binary searches
// — and counts them into st.
func (g *Grid) boundaryWindow(c int32, lo, hi int64, st *Stats) []int32 {
	rows := g.cellRows(c)
	i0 := 0
	if lo > g.minT {
		i0 = g.searchT(rows, lo)
	}
	i1 := len(rows)
	if hi < g.maxT {
		i1 = g.searchAfter(rows, hi)
	}
	if i0 > i1 {
		i0 = i1
	}
	st.Rows += int64(i1 - i0)
	return rows[i0:i1]
}

// ObjectsSampled returns, in ascending order, the distinct objects
// with at least one sample inside the closed polygon during [lo, hi].
// The result is nil when no object qualifies.
func (g *Grid) ObjectsSampled(pg geom.Polygon, lo, hi int64, met *obs.Metrics) []moft.Oid {
	set := make([]uint64, g.words)
	g.ObjectsSampledInto(pg, lo, hi, set, met)
	var out []moft.Oid
	for w, bitsw := range set {
		for bitsw != 0 {
			o := w*64 + bits.TrailingZeros64(bitsw)
			out = append(out, g.cols.Oids[o])
			bitsw &= bitsw - 1
		}
	}
	return out
}

// SetWords returns the length, in uint64 words, of an object bitset
// over the grid's snapshot: bit o stands for object ordinal o, the
// object cols.Oids[o].
func (g *Grid) SetWords() int { return g.words }

// ObjectsSampledInto ORs into set (SetWords words) the bit of every
// object with at least one sample inside the closed polygon during
// [lo, hi], and returns the row-level work done. Bits already set are
// kept, so several polygons or windows accumulate into one union, and
// boundary samples of objects already in the set skip the exact test.
func (g *Grid) ObjectsSampledInto(pg geom.Polygon, lo, hi int64, set []uint64, met *obs.Metrics) Stats {
	met = metricsOrNop(met)
	cv := g.Cover(pg)
	met.AggGridQueries.Inc()
	met.AggGridInteriorCells.Add(int64(len(cv.Interior)))
	met.AggGridBoundaryCells.Add(int64(len(cv.Boundary)))
	var st Stats
	if g.words == 0 {
		return st
	}
	cols := g.cols
	interior := int64(0)
	if g.timeVacuous(lo, hi) {
		for _, c := range cv.Interior {
			blk := g.presence[int(c)*g.words : (int(c)+1)*g.words]
			for w, bitsw := range blk {
				set[w] |= bitsw
			}
			interior += int64(g.cellStart[c+1] - g.cellStart[c])
		}
	} else {
		met.AggGridTemporalQueries.Inc()
		for _, c := range cv.Interior {
			interior += g.temporalObjects(c, lo, hi, set, &st)
		}
		met.AggGridFringeSamples.Add(st.Rows)
	}
	met.AggGridInteriorSamples.Add(interior)
	refined := int64(0)
	for _, c := range cv.Boundary {
		for _, row := range g.boundaryWindow(c, lo, hi, &st) {
			o := cols.Obj[row]
			if set[o>>6]&(1<<uint(o&63)) != 0 {
				continue // already in; skip the exact test
			}
			refined++
			if pg.ContainsPoint(geom.Pt(cols.X[row], cols.Y[row])) {
				set[o>>6] |= 1 << uint(o&63)
			}
		}
	}
	met.AggGridRefinedSamples.Add(refined)
	return st
}

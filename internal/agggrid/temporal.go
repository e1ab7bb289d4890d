package agggrid

// The per-cell temporal index turns region×interval aggregates from
// O(rows-in-cell) time filters into pre-aggregated lookups, in the
// spirit of the aRB-tree's per-node time aggregates: each cell's rows,
// listed in (instant, row) order, are partitioned into fixed-width
// time buckets with a per-cell prefix sum over bucket counts and one
// object-presence bitset per (cell, bucket). An interior cell then
// answers a count over [lo, hi] with two binary searches (one per
// fringe bucket) and a prefix-sum subtraction, and an object query ORs
// the fully covered buckets' bitsets, refining only the two fringe
// buckets row by row. Boundary cells binary-search the same
// time-sorted row list to confine the exact point-in-polygon
// refinement to the query window.

const (
	// defaultTimeBuckets seeds the bucket count when density gives no
	// signal (tiny cells).
	defaultTimeBuckets = 16
	// maxTimeBuckets caps the per-cell bucket count.
	maxTimeBuckets = 256
	// maxBucketPresenceWords caps the total memory of the per-bucket
	// presence bitsets (uint64 words); the bucket count is halved
	// until the index fits.
	maxBucketPresenceWords = 1 << 22
	// targetPerBucket is the row count the density seed aims at per
	// (populated cell, bucket): small enough that fringe-bucket
	// refinement touches a handful of rows.
	targetPerBucket = 4
)

// pickBuckets resolves the bucket count of a non-empty grid: a forced
// count when the config sets one, else auto-sized from the time extent
// and sample density, widened by the query-window hint (GeoBlocks-style
// query-driven adaptation: a typical window should span several
// buckets so most of it is answered from pre-aggregates). The result
// is always at least 1.
func (g *Grid) pickBuckets(cfg Config) int {
	nb := cfg.timeBuckets
	if nb <= 0 {
		populated := 0
		for c := 0; c < g.nx*g.ny; c++ {
			if g.cellStart[c+1] > g.cellStart[c] {
				populated++
			}
		}
		nb = max(defaultTimeBuckets, g.cols.Len()/populated/targetPerBucket)
		if span := g.maxT - g.minT; cfg.WindowHint > 0 && span > 0 {
			// Aim the bucket width at a quarter of the typical query
			// window, so the two fringe buckets cover at most half of
			// a typical interval.
			w := max(cfg.WindowHint/4, 1)
			nb = max(nb, int(span/w)+1)
		}
	}
	nb = min(max(nb, 1), maxTimeBuckets)
	// Halve until the per-bucket presence bitsets fit the memory cap;
	// nb == 1 always fits (it mirrors the spatial presence bitsets).
	for nb > 1 && g.nx*g.ny*nb*g.words > maxBucketPresenceWords {
		nb /= 2
	}
	return nb
}

// TimeBuckets returns the per-cell temporal bucket count: at least 1
// on every non-empty grid, 0 on an empty one.
func (g *Grid) TimeBuckets() int { return g.nb }

// cellRows returns cell c's rows in (instant, row) order.
func (g *Grid) cellRows(c int32) []int32 {
	return g.rows[g.cellStart[c]:g.cellStart[c+1]]
}

// searchT returns the first index in rows (time-sorted) whose instant
// is >= t.
func (g *Grid) searchT(rows []int32, t int64) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.cols.T[rows[m]] < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchAfter returns the first index in rows (time-sorted) whose
// instant is > t. Using a strict predicate instead of searching t+1
// avoids overflow at the extremes.
func (g *Grid) searchAfter(rows []int32, t int64) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.cols.T[rows[m]] <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// temporalCount counts cell c's rows with instant in [lo, hi] using
// the temporal index: two binary searches, each confined to one fringe
// bucket, and a prefix-sum subtraction.
func (g *Grid) temporalCount(c int32, lo, hi int64) int {
	if lo < g.minT {
		lo = g.minT
	}
	if hi > g.maxT {
		hi = g.maxT
	}
	if lo > hi {
		return 0
	}
	base := int(c) * (g.nb + 1)
	rows := g.cellRows(c)
	bLo := int((lo - g.minT) / g.bktW)
	bHi := int((hi - g.minT) / g.bktW)
	// Rows in buckets below bLo all precede lo, so the count of rows
	// with instant < lo is the bucket prefix plus a search inside the
	// fringe bucket alone; symmetrically for instant <= hi.
	lower := int(g.bktOff[base+bLo]) + g.searchT(rows[g.bktOff[base+bLo]:g.bktOff[base+bLo+1]], lo)
	upper := int(g.bktOff[base+bHi]) + g.searchAfter(rows[g.bktOff[base+bHi]:g.bktOff[base+bHi+1]], hi)
	return upper - lower
}

// temporalObjects ORs into set the presence bits of cell c's rows with
// instant in [lo, hi]: fully covered buckets contribute their
// pre-aggregated bitset, only the fringe buckets are filtered row by
// row. Returns the number of in-window rows and adds the fringe rows
// examined to st.
func (g *Grid) temporalObjects(c int32, lo, hi int64, set []uint64, st *Stats) int64 {
	if lo < g.minT {
		lo = g.minT
	}
	if hi > g.maxT {
		hi = g.maxT
	}
	if lo > hi {
		return 0
	}
	cols := g.cols
	base := int(c) * (g.nb + 1)
	rows := g.cellRows(c)
	bLo := int((lo - g.minT) / g.bktW)
	bHi := int((hi - g.minT) / g.bktW)
	accepted := int64(0)
	for b := bLo; b <= bHi; b++ {
		cnt := g.bktOff[base+b+1] - g.bktOff[base+b]
		if cnt == 0 {
			continue
		}
		if bStart := g.minT + int64(b)*g.bktW; lo <= bStart && bStart+g.bktW-1 <= hi {
			blk := g.bktPresence[(int(c)*g.nb+b)*g.words : (int(c)*g.nb+b+1)*g.words]
			for w, bitsw := range blk {
				set[w] |= bitsw
			}
			accepted += int64(cnt)
			continue
		}
		for _, row := range rows[g.bktOff[base+b]:g.bktOff[base+b+1]] {
			st.Rows++
			if t := cols.T[row]; t >= lo && t <= hi {
				o := cols.Obj[row]
				set[o>>6] |= 1 << uint(o&63)
				accepted++
			}
		}
	}
	return accepted
}

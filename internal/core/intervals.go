package core

import (
	"cmp"
	"sort"

	"mogis/internal/moft"
	"mogis/internal/traj"
)

// This file implements the interval column, the content of one
// interval-cache entry: every (object, inside-interval) pair of one
// polygon as a flat, immutable slice sorted by (interval start, oid),
// with the largest interval end of each fixed block of entries beside
// it. A reader of the window [wlo, whi] skips the blocks whose largest
// end falls before wlo and stops at the first entry starting after
// whi, so its work follows the window, not the table: an interval
// longer than the window (an object parked in the polygon all day)
// widens only its own block. Entries of one object keep that object's
// own interval order, so per-object sums accumulated along the column
// add in the same order as over the object's interval list.

// ivBlock is the number of column entries summarised by one block
// maximum: the most entries a window can scan in a block it reaches
// only through one long interval.
const ivBlock = 16

// ivEntry is one inside-interval of one object.
type ivEntry struct {
	lo, hi float64
	oid    moft.Oid
}

// cmpIvEntry orders entries by (lo, oid). An object's merged intervals
// have distinct starts, so no two entries of a column compare equal.
func cmpIvEntry(a, b ivEntry) int {
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	return cmp.Compare(a.oid, b.oid)
}

// ivColumn is one polygon's interval column. The zero value is the
// empty column.
type ivColumn struct {
	ents []ivEntry
	// maxHi[b] is the largest hi of ents[b*ivBlock : (b+1)*ivBlock].
	maxHi []float64
}

// newIvColumn seals entries sorted by cmpIvEntry into a column.
func newIvColumn(ents []ivEntry) ivColumn {
	if len(ents) == 0 {
		return ivColumn{}
	}
	maxHi := make([]float64, (len(ents)+ivBlock-1)/ivBlock)
	for b := range maxHi {
		m := ents[b*ivBlock].hi
		for _, en := range ents[b*ivBlock+1 : min((b+1)*ivBlock, len(ents))] {
			m = max(m, en.hi)
		}
		maxHi[b] = m
	}
	return ivColumn{ents: ents, maxHi: maxHi}
}

// appendIvEntries appends one object's intervals as column entries.
func appendIvEntries(ents []ivEntry, oid moft.Oid, ivs []traj.TimeInterval) []ivEntry {
	for _, iv := range ivs {
		ents = append(ents, ivEntry{lo: iv.Lo, hi: iv.Hi, oid: oid})
	}
	return ents
}

// ivCursor walks the runs of entries a window [wlo, whi] can reach,
// block by block: blocks that end before wlo are skipped, and the last
// run is cut before the first entry starting after whi. Every entry
// of a run starts at or before whi; the reader still tests each
// entry's end. scanned counts the entries returned; fresh counts
// those since the reader last checked for cancellation, which it
// resets.
type ivCursor struct {
	col            *ivColumn
	wlo, whi       float64
	b              int
	scanned, fresh int
}

// window returns a cursor over the entries [wlo, whi] can reach.
func (c *ivColumn) window(wlo, whi float64) ivCursor {
	return ivCursor{col: c, wlo: wlo, whi: whi}
}

// next returns the next run, or nil when the window has none left.
func (cur *ivCursor) next() []ivEntry {
	c, b := cur.col, cur.b
	for b < len(c.maxHi) && c.maxHi[b] < cur.wlo {
		b++ // every entry of the block ends before the window
	}
	if b >= len(c.maxHi) {
		return nil
	}
	cur.b = b + 1
	run := c.ents[b*ivBlock : min(b*ivBlock+ivBlock, len(c.ents))]
	if run[len(run)-1].lo > cur.whi {
		run = cur.cut(run)
	}
	cur.scanned += len(run)
	cur.fresh += len(run)
	return run
}

// cut ends the walk within run, the block where the column passes
// whi: it returns the entries up to the first one starting after whi.
func (cur *ivCursor) cut(run []ivEntry) []ivEntry {
	cur.b = len(cur.col.maxHi)
	return run[:sort.Search(len(run), func(i int) bool { return run[i].lo > cur.whi })]
}

// mergeIvEntries merges b into the entries of a that keep accepts
// (all of them when keep is nil); both must be sorted by cmpIvEntry,
// and so is the result.
func mergeIvEntries(a []ivEntry, keep func(moft.Oid) bool, b []ivEntry) []ivEntry {
	out := make([]ivEntry, 0, len(a)+len(b))
	j := 0
	for _, en := range a {
		if keep != nil && !keep(en.oid) {
			continue
		}
		for j < len(b) && cmpIvEntry(b[j], en) < 0 {
			out = append(out, b[j])
			j++
		}
		out = append(out, en)
	}
	return append(out, b[j:]...)
}

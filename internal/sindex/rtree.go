package sindex

import (
	"context"
	"math"
	"sort"

	"mogis/internal/geom"
	"mogis/internal/obs"
)

// Entry is an indexed item: a bounding box and an opaque identifier.
type Entry struct {
	Box BBoxer
	ID  int64
}

// BBoxer is anything with a bounding box.
type BBoxer interface {
	BBox() geom.BBox
}

// boxOnly adapts a raw geom.BBox to BBoxer.
type boxOnly geom.BBox

func (b boxOnly) BBox() geom.BBox { return geom.BBox(b) }

// Box wraps a raw bounding box as a BBoxer.
func Box(b geom.BBox) BBoxer { return boxOnly(b) }

// RTree is an in-memory R-tree over 2-D bounding boxes, packed once
// by BulkLoad and read-only afterwards. Zero value is not usable.
type RTree struct {
	root      *rnode
	size      int
	maxFanout int
}

type rnode struct {
	box      geom.BBox
	leaf     bool
	children []*rnode // internal nodes
	entries  []rentry // leaf nodes
}

type rentry struct {
	box geom.BBox
	id  int64
}

// DefaultFanout is the default maximum node fanout.
const DefaultFanout = 16

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.size }

// Bounds returns the bounding box of all entries.
func (t *RTree) Bounds() geom.BBox { return t.root.box }

// Search appends to dst the ids of all entries whose boxes intersect
// query, and returns dst.
func (t *RTree) Search(query geom.BBox, dst []int64) []int64 {
	dst, _ = t.SearchCtx(context.Background(), query, dst)
	return dst
}

// SearchCtx is Search with cooperative cancellation: ctx is observed
// every few dozen node visits, and an abandoned search returns the
// context's error with a partial (unusable) dst.
func (t *RTree) SearchCtx(ctx context.Context, query geom.BBox, dst []int64) ([]int64, error) {
	visits := 0
	return searchNode(ctx, t.root, query, dst, &visits)
}

func searchNode(ctx context.Context, n *rnode, query geom.BBox, dst []int64, visits *int) ([]int64, error) {
	obs.Std.SindexNodeVisits.Inc()
	if *visits++; *visits%64 == 0 {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
	}
	if !n.box.Intersects(query) {
		return dst, nil
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.box.Intersects(query) {
				dst = append(dst, e.id)
			}
		}
		return dst, nil
	}
	var err error
	for _, c := range n.children {
		if dst, err = searchNode(ctx, c, query, dst, visits); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Visit calls f for every entry whose box intersects query; returning
// false stops the traversal.
func (t *RTree) Visit(query geom.BBox, f func(box geom.BBox, id int64) bool) {
	visitNode(t.root, query, f)
}

func visitNode(n *rnode, query geom.BBox, f func(geom.BBox, int64) bool) bool {
	obs.Std.SindexNodeVisits.Inc()
	if !n.box.Intersects(query) {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.box.Intersects(query) {
				if !f(e.box, e.id) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !visitNode(c, query, f) {
			return false
		}
	}
	return true
}

// Height returns the tree height (1 for a single leaf).
func (t *RTree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// BulkLoad builds an R-tree from entries with the Sort-Tile-Recursive
// (STR) packing algorithm, producing near-optimal leaves. The fanout
// is raised to at least 4. Entries with an empty box are skipped: no
// query can intersect them.
func BulkLoad(entries []Entry, fanout int) *RTree {
	if fanout < 4 {
		fanout = 4
	}
	t := &RTree{root: &rnode{leaf: true, box: geom.EmptyBBox()}, maxFanout: fanout}
	leavesIn := make([]rentry, 0, len(entries))
	for _, e := range entries {
		if box := e.Box.BBox(); !box.IsEmpty() {
			leavesIn = append(leavesIn, rentry{box: box, id: e.ID})
		}
	}
	t.size = len(leavesIn)
	if t.size == 0 {
		return t
	}
	leaves := strPackLeaves(leavesIn, t.maxFanout)
	level := leaves
	for len(level) > 1 {
		level = strPackNodes(level, t.maxFanout)
	}
	t.root = level[0]
	return t
}

func strPackLeaves(items []rentry, fanout int) []*rnode {
	sort.Slice(items, func(i, j int) bool {
		return items[i].box.Center().X < items[j].box.Center().X
	})
	sliceCount := int(math.Ceil(math.Sqrt(math.Ceil(float64(len(items)) / float64(fanout)))))
	sliceSize := sliceCount * fanout
	var leaves []*rnode
	for s := 0; s < len(items); s += sliceSize {
		end := s + sliceSize
		if end > len(items) {
			end = len(items)
		}
		slice := items[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].box.Center().Y < slice[j].box.Center().Y
		})
		for o := 0; o < len(slice); o += fanout {
			oe := o + fanout
			if oe > len(slice) {
				oe = len(slice)
			}
			n := &rnode{leaf: true, box: geom.EmptyBBox()}
			n.entries = append(n.entries, slice[o:oe]...)
			for _, e := range n.entries {
				n.box = n.box.Union(e.box)
			}
			leaves = append(leaves, n)
		}
	}
	return leaves
}

func strPackNodes(nodes []*rnode, fanout int) []*rnode {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].box.Center().X < nodes[j].box.Center().X
	})
	sliceCount := int(math.Ceil(math.Sqrt(math.Ceil(float64(len(nodes)) / float64(fanout)))))
	sliceSize := sliceCount * fanout
	var out []*rnode
	for s := 0; s < len(nodes); s += sliceSize {
		end := s + sliceSize
		if end > len(nodes) {
			end = len(nodes)
		}
		slice := nodes[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].box.Center().Y < slice[j].box.Center().Y
		})
		for o := 0; o < len(slice); o += fanout {
			oe := o + fanout
			if oe > len(slice) {
				oe = len(slice)
			}
			n := &rnode{leaf: false, box: geom.EmptyBBox()}
			n.children = append(n.children, slice[o:oe]...)
			for _, c := range n.children {
				n.box = n.box.Union(c.box)
			}
			out = append(out, n)
		}
	}
	return out
}

// Package layer implements thematic layers, the storage unit of the
// paper's GIS dimensions (Definition 1): each layer carries geometries
// of several kinds (point, node, line, polyline, polygon, All),
// rollup relations r^{Gj,Gk}_L between them, and attribute functions
// α^{A,G}_L linking application-part concepts to geometry
// identifiers.
package layer

import (
	"fmt"
	"sort"
	"sync"

	"mogis/internal/geom"
	"mogis/internal/sindex"
)

// Kind names a geometry kind (the set G of the paper, Section 3).
type Kind string

// The geometry kinds the model requires; more can be added.
const (
	KindPoint    Kind = "point"
	KindNode     Kind = "node"
	KindLine     Kind = "line"
	KindPolyline Kind = "polyline"
	KindPolygon  Kind = "polygon"
	KindAll      Kind = "All"
)

// Gid identifies a geometry element within a layer (the paper's
// geometry identifier domain Gid).
type Gid int64

// AllGid is the identifier of the single member of KindAll.
const AllGid Gid = -1

// Layer is a thematic layer instance.
type Layer struct {
	name string

	polygons  map[Gid]geom.Polygon
	polylines map[Gid]geom.Polyline
	lines     map[Gid]geom.Segment
	nodes     map[Gid]geom.Point

	// compositions holds the finite rollup relations between non-point
	// kinds, child → parents (e.g. line → polyline).
	compositions map[kindEdge]map[Gid][]Gid

	// alpha holds the attribute functions α^{A,G}_L: attribute name →
	// concept member → geometry id.
	alpha map[string]alphaFunc

	mu        sync.Mutex
	locator   *sindex.PointLocator // lazy polygon point locator
	plIndex   *sindex.RTree        // lazy polyline bbox index
	nodeIndex *sindex.RTree        // lazy node point index
}

type kindEdge struct {
	child, parent Kind
}

type alphaFunc struct {
	kind    Kind
	mapping map[string]Gid
}

// New creates an empty layer.
func New(name string) *Layer {
	return &Layer{
		name:         name,
		polygons:     make(map[Gid]geom.Polygon),
		polylines:    make(map[Gid]geom.Polyline),
		lines:        make(map[Gid]geom.Segment),
		nodes:        make(map[Gid]geom.Point),
		compositions: make(map[kindEdge]map[Gid][]Gid),
		alpha:        make(map[string]alphaFunc),
	}
}

// Name returns the layer name.
func (l *Layer) Name() string { return l.name }

// invalidate drops lazily built indexes after mutation.
func (l *Layer) invalidate() {
	l.mu.Lock()
	l.locator = nil
	l.plIndex = nil
	l.nodeIndex = nil
	l.mu.Unlock()
}

// AddPolygon stores a polygon under id.
func (l *Layer) AddPolygon(id Gid, pg geom.Polygon) *Layer {
	l.polygons[id] = pg
	l.invalidate()
	return l
}

// AddPolyline stores a polyline under id.
func (l *Layer) AddPolyline(id Gid, pl geom.Polyline) *Layer {
	l.polylines[id] = pl
	l.invalidate()
	return l
}

// AddLine stores a line segment under id.
func (l *Layer) AddLine(id Gid, s geom.Segment) *Layer {
	l.lines[id] = s
	l.invalidate()
	return l
}

// AddNode stores a point geometry under id.
func (l *Layer) AddNode(id Gid, p geom.Point) *Layer {
	l.nodes[id] = p
	l.invalidate()
	return l
}

// Polygon returns the polygon stored under id.
func (l *Layer) Polygon(id Gid) (geom.Polygon, bool) {
	pg, ok := l.polygons[id]
	return pg, ok
}

// Polyline returns the polyline stored under id.
func (l *Layer) Polyline(id Gid) (geom.Polyline, bool) {
	pl, ok := l.polylines[id]
	return pl, ok
}

// Line returns the segment stored under id.
func (l *Layer) Line(id Gid) (geom.Segment, bool) {
	s, ok := l.lines[id]
	return s, ok
}

// Node returns the point stored under id.
func (l *Layer) Node(id Gid) (geom.Point, bool) {
	p, ok := l.nodes[id]
	return p, ok
}

// IDs returns the sorted geometry ids of a kind (empty for KindPoint,
// whose domain is infinite, and [AllGid] for KindAll).
func (l *Layer) IDs(kind Kind) []Gid {
	var out []Gid
	switch kind {
	case KindPolygon:
		for id := range l.polygons {
			out = append(out, id)
		}
	case KindPolyline:
		for id := range l.polylines {
			out = append(out, id)
		}
	case KindLine:
		for id := range l.lines {
			out = append(out, id)
		}
	case KindNode:
		for id := range l.nodes {
			out = append(out, id)
		}
	case KindAll:
		return []Gid{AllGid}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Count returns the number of stored geometries of a kind.
func (l *Layer) Count(kind Kind) int {
	switch kind {
	case KindPolygon:
		return len(l.polygons)
	case KindPolyline:
		return len(l.polylines)
	case KindLine:
		return len(l.lines)
	case KindNode:
		return len(l.nodes)
	case KindAll:
		return 1
	default:
		return 0
	}
}

// Kinds returns the geometry kinds with at least one stored element,
// sorted, always including KindAll and KindPoint (the algebraic
// bottom).
func (l *Layer) Kinds() []Kind {
	set := map[Kind]bool{KindPoint: true, KindAll: true}
	for k := range map[Kind]int{
		KindPolygon: len(l.polygons), KindPolyline: len(l.polylines),
		KindLine: len(l.lines), KindNode: len(l.nodes),
	} {
		if l.Count(k) > 0 {
			set[k] = true
		}
	}
	out := make([]Kind, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BBox returns the bounding box of every stored geometry.
func (l *Layer) BBox() geom.BBox {
	b := geom.EmptyBBox()
	for _, pg := range l.polygons {
		b = b.Union(pg.BBox())
	}
	for _, pl := range l.polylines {
		b = b.Union(pl.BBox())
	}
	for _, s := range l.lines {
		b = b.Union(s.BBox())
	}
	for _, p := range l.nodes {
		b = b.ExtendPoint(p)
	}
	return b
}

// SetComposition records that child (of childKind) is part of parent
// (of parentKind): one tuple of the finite rollup relation
// r^{childKind,parentKind}_L.
func (l *Layer) SetComposition(childKind Kind, child Gid, parentKind Kind, parent Gid) *Layer {
	e := kindEdge{childKind, parentKind}
	if l.compositions[e] == nil {
		l.compositions[e] = make(map[Gid][]Gid)
	}
	l.compositions[e][child] = append(l.compositions[e][child], parent)
	return l
}

// Parents returns the parents of child under the finite rollup
// relation childKind→parentKind. Rolling up to KindAll always yields
// AllGid.
func (l *Layer) Parents(childKind Kind, child Gid, parentKind Kind) []Gid {
	if parentKind == KindAll {
		return []Gid{AllGid}
	}
	return l.compositions[kindEdge{childKind, parentKind}][child]
}

// Children returns the children mapping to parent under the finite
// rollup relation childKind→parentKind, sorted.
func (l *Layer) Children(childKind Kind, parentKind Kind, parent Gid) []Gid {
	var out []Gid
	for c, ps := range l.compositions[kindEdge{childKind, parentKind}] {
		for _, p := range ps {
			if p == parent {
				out = append(out, c)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetAlpha records α^{A,G}_L(member) = id for attribute (concept
// level) attr whose geometries are of the given kind.
func (l *Layer) SetAlpha(attr string, kind Kind, member string, id Gid) *Layer {
	f, ok := l.alpha[attr]
	if !ok {
		f = alphaFunc{kind: kind, mapping: make(map[string]Gid)}
		l.alpha[attr] = f
	}
	f.mapping[member] = id
	return l
}

// Alpha resolves α^{A,G}_L(member), returning the geometry kind and
// id.
func (l *Layer) Alpha(attr, member string) (Kind, Gid, bool) {
	f, ok := l.alpha[attr]
	if !ok {
		return "", 0, false
	}
	id, ok := f.mapping[member]
	return f.kind, id, ok
}

// AlphaMembers returns the concept members bound by attribute attr,
// sorted.
func (l *Layer) AlphaMembers(attr string) []string {
	f, ok := l.alpha[attr]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(f.mapping))
	for m := range f.mapping {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// AlphaInverse returns the concept member mapped to geometry id under
// attr, inverting α by scan.
func (l *Layer) AlphaInverse(attr string, id Gid) (string, bool) {
	f, ok := l.alpha[attr]
	if !ok {
		return "", false
	}
	for m, g := range f.mapping {
		if g == id {
			return m, true
		}
	}
	return "", false
}

// ensureLocator builds the polygon point locator on first use.
func (l *Layer) ensureLocator() *sindex.PointLocator {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.locator == nil {
		pgs := make(map[int64]geom.Polygon, len(l.polygons))
		for id, pg := range l.polygons {
			pgs[int64(id)] = pg
		}
		l.locator = sindex.NewPointLocator(pgs)
	}
	return l.locator
}

// PolygonsContaining evaluates the infinite rollup relation
// r^{point,polygon}_L: the ids, ascending, of all polygons containing
// p (boundary inclusive, so a point on a shared edge belongs to both
// neighbors, as the paper notes in Example 1).
func (l *Layer) PolygonsContaining(p geom.Point) []Gid {
	if len(l.polygons) == 0 {
		return nil
	}
	ids := l.ensureLocator().Locate(p, nil)
	out := make([]Gid, len(ids))
	for i, id := range ids {
		out[i] = Gid(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ensurePolylineIndex builds the polyline bbox R-tree on first use.
func (l *Layer) ensurePolylineIndex() *sindex.RTree {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.plIndex == nil {
		entries := make([]sindex.Entry, 0, len(l.polylines))
		for id, pl := range l.polylines {
			entries = append(entries, sindex.Entry{Box: sindex.Box(pl.BBox()), ID: int64(id)})
		}
		l.plIndex = sindex.BulkLoad(entries, sindex.DefaultFanout)
	}
	return l.plIndex
}

// PolylinesNear returns the ids of polylines with distance to p at
// most r, sorted: the evaluation primitive behind proximity queries
// (paper's Q6/Q7).
func (l *Layer) PolylinesNear(p geom.Point, r float64) []Gid {
	if len(l.polylines) == 0 {
		return nil
	}
	query := geom.BBox{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
	var out []Gid
	l.ensurePolylineIndex().Visit(query, func(_ geom.BBox, id int64) bool {
		if l.polylines[Gid(id)].DistToPoint(p) <= r {
			out = append(out, Gid(id))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PolylinesThrough returns the ids of polylines passing through p
// exactly.
func (l *Layer) PolylinesThrough(p geom.Point) []Gid {
	var out []Gid
	l.ensurePolylineIndex().Visit(geom.NewBBox(p), func(_ geom.BBox, id int64) bool {
		if l.polylines[Gid(id)].ContainsPoint(p) {
			out = append(out, Gid(id))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ensureNodeIndex builds the node point R-tree on first use.
func (l *Layer) ensureNodeIndex() *sindex.RTree {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nodeIndex == nil {
		entries := make([]sindex.Entry, 0, len(l.nodes))
		for id, p := range l.nodes {
			entries = append(entries, sindex.Entry{Box: sindex.Box(geom.NewBBox(p)), ID: int64(id)})
		}
		l.nodeIndex = sindex.BulkLoad(entries, sindex.DefaultFanout)
	}
	return l.nodeIndex
}

// NodesNearest returns the k node ids closest to p, ordered by
// distance ("the nearest schools"), via best-first R-tree search.
func (l *Layer) NodesNearest(p geom.Point, k int) []Gid {
	ns := l.ensureNodeIndex().Nearest(p, k)
	out := make([]Gid, len(ns))
	for i, n := range ns {
		out[i] = Gid(n.ID)
	}
	return out
}

// NodesNear returns ids of node geometries within distance r of p,
// sorted.
func (l *Layer) NodesNear(p geom.Point, r float64) []Gid {
	var out []Gid
	r2 := r * r
	for id, n := range l.nodes {
		if n.Dist2(p) <= r2 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks referential integrity: compositions and alpha
// bindings must reference stored geometries.
func (l *Layer) Validate() error {
	has := func(kind Kind, id Gid) bool {
		switch kind {
		case KindPolygon:
			_, ok := l.polygons[id]
			return ok
		case KindPolyline:
			_, ok := l.polylines[id]
			return ok
		case KindLine:
			_, ok := l.lines[id]
			return ok
		case KindNode:
			_, ok := l.nodes[id]
			return ok
		case KindAll:
			return id == AllGid
		default:
			return false
		}
	}
	for e, rel := range l.compositions {
		for c, ps := range rel {
			if !has(e.child, c) {
				return fmt.Errorf("layer %s: composition %s→%s references missing child %d", l.name, e.child, e.parent, c)
			}
			for _, p := range ps {
				if !has(e.parent, p) {
					return fmt.Errorf("layer %s: composition %s→%s references missing parent %d", l.name, e.child, e.parent, p)
				}
			}
		}
	}
	for attr, f := range l.alpha {
		for m, id := range f.mapping {
			if !has(f.kind, id) {
				return fmt.Errorf("layer %s: α_%s(%q) references missing %s %d", l.name, attr, m, f.kind, id)
			}
		}
	}
	return nil
}

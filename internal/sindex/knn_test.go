package sindex

import (
	"math/rand"
	"sort"
	"testing"

	"mogis/internal/geom"
)

func TestNearestBasic(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(50, 50), geom.Pt(51, 50),
	}
	tr := bulkBoxes(4, len(pts), func(i int) geom.BBox { return geom.NewBBox(pts[i]) })
	got := tr.Nearest(geom.Pt(49, 50), 2)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 4 {
		t.Errorf("Nearest = %+v", got)
	}
	if got[0].Dist != 1 || got[1].Dist != 2 {
		t.Errorf("distances = %+v", got)
	}
	// k larger than the tree returns everything, ordered.
	all := tr.Nearest(geom.Pt(0, 0), 10)
	if len(all) != 5 || all[0].ID != 0 {
		t.Errorf("all = %+v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Dist < all[i-1].Dist {
			t.Error("not ordered by distance")
		}
	}
	// Degenerate inputs.
	if got := tr.Nearest(geom.Pt(0, 0), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := BulkLoad(nil, 4).Nearest(geom.Pt(0, 0), 3); got != nil {
		t.Error("empty tree should return nil")
	}
}

func TestNearestAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 500)
	entries := make([]Entry, len(pts))
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		entries[i] = Entry{Box: Box(geom.NewBBox(pts[i])), ID: int64(i)}
	}
	tr := BulkLoad(entries, 8)
	for q := 0; q < 50; q++ {
		query := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		const k = 7
		got := tr.Nearest(query, k)
		if len(got) != k {
			t.Fatalf("got %d results", len(got))
		}
		// Brute-force reference.
		type ref struct {
			id int64
			d  float64
		}
		refs := make([]ref, len(pts))
		for i, p := range pts {
			refs[i] = ref{int64(i), p.Dist(query)}
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].d < refs[j].d })
		for i := 0; i < k; i++ {
			if got[i].ID != refs[i].id {
				t.Fatalf("query %d rank %d: got %d (d=%v), want %d (d=%v)",
					q, i, got[i].ID, got[i].Dist, refs[i].id, refs[i].d)
			}
		}
	}
}

func TestBoxDist(t *testing.T) {
	b := geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	cases := []struct {
		p    geom.Point
		want float64
	}{
		{geom.Pt(5, 5), 0},
		{geom.Pt(0, 0), 0},
		{geom.Pt(13, 14), 5},
		{geom.Pt(-3, 5), 3},
		{geom.Pt(5, 14), 4},
	}
	for _, c := range cases {
		if got := boxDist(b, c.p); got != c.want {
			t.Errorf("boxDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

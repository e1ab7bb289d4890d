package sindex

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mogis/internal/geom"
)

func boxAround(x, y, r float64) geom.BBox {
	return geom.BBox{MinX: x - r, MinY: y - r, MaxX: x + r, MaxY: y + r}
}

// bulkBoxes bulk-loads n entries whose i-th box is box(i) and id i.
func bulkBoxes(fanout, n int, box func(i int) geom.BBox) *RTree {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Box: Box(box(i)), ID: int64(i)}
	}
	return BulkLoad(entries, fanout)
}

func TestRTreeEmpty(t *testing.T) {
	tr := BulkLoad(nil, 8)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.Search(boxAround(0, 0, 100), nil); len(got) != 0 {
		t.Errorf("Search on empty = %v", got)
	}
	if h := tr.Height(); h != 1 {
		t.Errorf("Height = %d", h)
	}
}

func TestRTreeInsertSearch(t *testing.T) {
	tr := bulkBoxes(4, 100, func(i int) geom.BBox {
		return boxAround(float64(i%10)*10, float64(i/10)*10, 1)
	})
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Query a window covering ids with x in {0,1}, y in {0,1}: ids 0,1,10,11.
	got := tr.Search(geom.BBox{MinX: -2, MinY: -2, MaxX: 12, MaxY: 12}, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{0, 1, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRTreeIgnoresEmptyBox(t *testing.T) {
	tr := BulkLoad([]Entry{
		{Box: Box(geom.EmptyBBox()), ID: 1},
		{Box: Box(boxAround(5, 5, 1)), ID: 2},
	}, 4)
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1: an empty box should be skipped", tr.Len())
	}
	got := tr.Search(geom.BBox{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("full search = %v, want [2]", got)
	}
}

// TestRTreeAgainstLinearScan cross-validates random workloads at
// several fanouts; fanout 1 is raised to the minimum of 4.
func TestRTreeAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, fanout := range []int{1, 4, 8, 16} {
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			n := 500
			boxes := make([]geom.BBox, n)
			for i := range boxes {
				boxes[i] = boxAround(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*5)
			}
			tr := bulkBoxes(fanout, n, func(i int) geom.BBox { return boxes[i] })
			if tr.Len() != n {
				t.Fatalf("Len = %d", tr.Len())
			}
			for q := 0; q < 50; q++ {
				query := boxAround(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*60)
				got := tr.Search(query, nil)
				var want []int64
				for i, b := range boxes {
					if b.Intersects(query) {
						want = append(want, int64(i))
					}
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if len(got) != len(want) {
					t.Fatalf("query %v: got %d ids, want %d", query, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("query %v: got %v, want %v", query, got, want)
					}
				}
			}
		})
	}
}

func TestRTreeVisitEarlyStop(t *testing.T) {
	tr := bulkBoxes(4, 50, func(i int) geom.BBox { return boxAround(float64(i), 0, 0.4) })
	count := 0
	tr.Visit(geom.BBox{MinX: -1, MinY: -1, MaxX: 100, MaxY: 1}, func(_ geom.BBox, _ int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("Visit count = %d, want 5 (early stop)", count)
	}
}

func TestRTreeBulkLoadSmall(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 17, 64, 1000} {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Box: Box(boxAround(float64(i*3), float64((i*7)%50), 1)), ID: int64(i)}
		}
		tr := BulkLoad(entries, 16)
		if tr.Len() != n {
			t.Errorf("n=%d: Len = %d", n, tr.Len())
		}
		got := tr.Search(geom.BBox{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}, nil)
		if len(got) != n {
			t.Errorf("n=%d: full search returned %d", n, len(got))
		}
	}
}

func TestRTreeHeightGrowth(t *testing.T) {
	tr := bulkBoxes(4, 1000, func(i int) geom.BBox {
		return boxAround(float64(i%100), float64(i/100), 0.4)
	})
	if h := tr.Height(); h < 3 {
		t.Errorf("Height = %d, want >= 3 for 1000 entries at fanout 4", h)
	}
	if !tr.Bounds().ContainsPoint(geom.Pt(50, 5)) {
		t.Error("Bounds should cover inserted area")
	}
}

package sindex

import (
	"math/rand"
	"testing"

	"mogis/internal/geom"
)

func benchTree(n int) (*RTree, []geom.BBox) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, n)
	boxes := make([]geom.BBox, n)
	for i := range entries {
		boxes[i] = boxAround(rng.Float64()*10000, rng.Float64()*10000, 5)
		entries[i] = Entry{Box: Box(boxes[i]), ID: int64(i)}
	}
	return BulkLoad(entries, DefaultFanout), boxes
}

func BenchmarkRTreeSearch(b *testing.B) {
	tr, _ := benchTree(100000)
	query := boxAround(5000, 5000, 100)
	var dst []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tr.Search(query, dst[:0])
	}
}

func BenchmarkRTreeSearchLinearBaseline(b *testing.B) {
	_, boxes := benchTree(100000)
	query := boxAround(5000, 5000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for _, bb := range boxes {
			if bb.Intersects(query) {
				count++
			}
		}
	}
}

func BenchmarkRTreeNearest(b *testing.B) {
	tr, _ := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(geom.Pt(5000, 5000), 10)
	}
}

func BenchmarkPointLocator(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pgs := make(map[int64]geom.Polygon)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			x, y := float64(i*50), float64(j*50)
			pgs[int64(i*20+j)] = geom.Polygon{Shell: geom.Ring{
				geom.Pt(x, y), geom.Pt(x+50, y), geom.Pt(x+50, y+50), geom.Pt(x, y+50),
			}}
		}
	}
	loc := NewPointLocator(pgs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		loc.Locate(p, nil)
	}
}

package mogis

// Root benchmarks: one per experiment table of EXPERIMENTS.md that
// times the model's own evaluation strategy (P1–P3 and P5, plus the
// paper-artifact query E4 and the γ operator). paper_test.go holds
// the paper's worked example as tests; the other timings are
// benchmarks beside the code they time (DESIGN.md §4).

import (
	"context"
	"strconv"
	"testing"

	"mogis/internal/fo"
	"mogis/internal/gis"
	"mogis/internal/layer"
	"mogis/internal/olap"
	"mogis/internal/overlay"
	"mogis/internal/scenario"
	"mogis/internal/timedim"
	"mogis/internal/workload"
)

// BenchmarkE4MotivatingQuery measures the Remark-1 query end to end
// on the paper instance.
func BenchmarkE4MotivatingQuery(b *testing.B) {
	s := scenario.New()
	f := s.MotivatingFormula()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := s.Engine.RegionC(context.Background(), f, []fo.Var{"o", "t"})
		if err != nil {
			b.Fatal(err)
		}
		if rel.Len() != 4 {
			b.Fatalf("|C| = %d", rel.Len())
		}
	}
}

// BenchmarkP1Overlay measures overlay lookups vs naive geometric
// evaluation of "neighborhoods crossed by the river" (Section 5).
func BenchmarkP1Overlay(b *testing.B) {
	for _, g := range []int{8, 16, 32} {
		city := workload.GenCity(workload.CityConfig{Seed: 1, Cols: g, Rows: g})
		layers := city.Layers()
		refN := overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}
		refR := overlay.Ref{Layer: "Lr", Kind: layer.KindPolyline}
		ov, err := overlay.Precompute(context.Background(), layers, []overlay.Pair{{A: refR, B: refN}})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName("overlay", g*g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := ov.Intersecting(refR, 1, refN); len(got) == 0 {
					b.Fatal("no results")
				}
			}
		})
		b.Run(sizeName("naive", g*g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := overlay.IntersectingNaive(layers, refR, 1, refN)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkP2Summable measures the summable rewriting against numeric
// integration (Definition 4).
func BenchmarkP2Summable(b *testing.B) {
	city := workload.GenCity(workload.CityConfig{Seed: 2, Cols: 8, Rows: 8})
	density := make(map[layer.Gid]float64)
	pop := make(map[layer.Gid]float64)
	for _, m := range city.Neighborhoods.Members("neighborhood") {
		v, _ := city.Neighborhoods.Attr("neighborhood", m, "population")
		p, _ := v.Num()
		_, id, _ := city.Ln.Alpha("neighb", string(m))
		pg, _ := city.Ln.Polygon(id)
		pop[id] = p
		density[id] = p / pg.Area()
	}
	b.Run("summable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum float64
			for _, id := range city.LowIncomeIDs {
				sum += pop[id]
			}
			if sum <= 0 {
				b.Fatal("no population")
			}
		}
	})
	for _, subdiv := range []int{0, 3} {
		b.Run(sizeName("integrate-subdiv", subdiv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sum float64
				for _, id := range city.LowIncomeIDs {
					pg, _ := city.Ln.Polygon(id)
					v, err := gis.IntegratePolygon(gis.ConstDensity(density[id]), pg, subdiv)
					if err != nil {
						b.Fatal(err)
					}
					sum += v
				}
			}
		})
	}
}

// BenchmarkP3Interpolation measures interpolated versus sample-only
// passes-through queries.
func BenchmarkP3Interpolation(b *testing.B) {
	city := workload.GenCity(workload.CityConfig{Seed: 3, Cols: 8, Rows: 8})
	target, _ := city.Ln.Polygon(city.LowIncomeIDs[0])
	for _, n := range []int{100, 400} {
		fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
			Seed: 3, Objects: n, Samples: 30, Step: 120, Speed: 3,
		})
		_, eng := city.Context(fm)
		lo, hi, _ := fm.TimeSpan()
		window := timedim.Interval{Lo: lo, Hi: hi}
		// Warm the trajectory cache so both variants measure query
		// work.
		if _, err := eng.Trajectories(context.Background(), "FM"); err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName("sampled", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.ObjectsSampledInside(context.Background(), "FM", target, window); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("interpolated", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.ObjectsPassingThrough(context.Background(), "FM", target, window); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP5RegionC measures first-order region-C evaluation over
// growing MOFTs.
func BenchmarkP5RegionC(b *testing.B) {
	city := workload.GenCity(workload.CityConfig{Seed: 5, Cols: 8, Rows: 8})
	for _, n := range []int{1000, 4000} {
		fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{
			Seed: 5, Objects: n / 50, Samples: 50, Step: 300, Speed: 3,
		})
		_, eng := city.Context(fm)
		f := fo.Exists([]fo.Var{"x", "y", "pg", "nb"}, fo.And(
			&fo.MemberOf{Concept: "neighb", M: fo.V("nb")},
			&fo.TimeRollup{Cat: timedim.CatTimeOfDay, T: fo.V("t"), V: fo.CStr(timedim.Morning)},
			&fo.Fact{Table: "FM", O: fo.V("o"), T: fo.V("t"), X: fo.V("x"), Y: fo.V("y")},
			&fo.PointIn{Layer: "Ln", Kind: layer.KindPolygon, X: fo.V("x"), Y: fo.V("y"), G: fo.V("pg")},
			&fo.Alpha{Attr: "neighb", A: fo.V("nb"), G: fo.V("pg")},
			&fo.AttrCmp{Concept: "neighb", M: fo.V("nb"), Attr: "income", Op: fo.LT, Rhs: fo.CReal(1500)},
		))
		b.Run(sizeName("samples", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.RegionC(context.Background(), f, []fo.Var{"o", "t"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGammaAggregation measures the γ operator of Definition 7
// over a synthetic region-C relation.
func BenchmarkGammaAggregation(b *testing.B) {
	ft := olap.NewFactTable(olap.FactSchema{
		Dims:     []olap.DimCol{{Name: "hour", Level: "hour"}},
		Measures: []string{"v"},
	})
	for i := 0; i < 10000; i++ {
		ft.MustAdd([]olap.Member{olap.Member(rune('A' + i%24))}, []float64{float64(i % 97)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ft.Gamma(olap.Avg, "v", []string{"hour"}); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(prefix string, n int) string {
	return prefix + "-" + strconv.Itoa(n)
}

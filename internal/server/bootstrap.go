package server

import (
	"context"

	"mogis/internal/layer"
	"mogis/internal/mdx"
	"mogis/internal/olap"
	"mogis/internal/overlay"
	"mogis/internal/pietql"
	"mogis/internal/scenario"
	"mogis/internal/telemetry"
	"mogis/internal/workload"
)

// SystemConfig selects the model a daemon serves: the paper's running
// example (default) or a generated synthetic city.
type SystemConfig struct {
	// City switches from the paper scenario (MOFT "FMbus") to a
	// synthetic city (MOFT "FM") of Grid×Grid blocks with Objects
	// moving objects generated from Seed.
	City    bool
	Grid    int
	Objects int
	Seed    int64
	// Overlay precomputes the geometric-predicate overlay (the
	// pietql default); false falls back to naive geometry.
	Overlay bool
	// Telemetry is handed to the Piet-QL pipeline (nil = default).
	Telemetry *telemetry.Collector
}

// NewSystem wires the Piet-QL system a Server serves. It mirrors the
// pietql CLI's bootstrap so daemon answers match CLI answers exactly.
func NewSystem(cfg SystemConfig) (*pietql.System, error) {
	kinds := map[string]layer.Kind{
		"Ln": layer.KindPolygon, "Lr": layer.KindPolyline,
		"Ls": layer.KindNode, "Lstores": layer.KindNode, "Lh": layer.KindPolyline,
	}
	var sys *pietql.System
	var layers map[string]*layer.Layer
	if !cfg.City {
		s := scenario.New()
		sys = &pietql.System{
			Ctx: s.Ctx, Engine: s.Engine, Kinds: kinds,
			SchemaName: "PietSchema",
			Cubes:      mdx.Catalog{"CityCube": &mdx.Cube{Name: "CityCube", Fact: populationCube(s.Neighborhoods)}},
		}
		layers = map[string]*layer.Layer{
			"Ln": s.Ln, "Lr": s.Lr, "Ls": s.Ls, "Lstores": s.Lstores, "Lh": s.Lh,
		}
	} else {
		grid := cfg.Grid
		if grid <= 0 {
			grid = 8
		}
		objects := cfg.Objects
		if objects <= 0 {
			objects = 100
		}
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		city := workload.GenCity(workload.CityConfig{Seed: seed, Cols: grid, Rows: grid})
		fm := workload.GenTrajectories(city.Extent, workload.TrajConfig{Seed: seed, Objects: objects})
		ctx, eng := city.Context(fm)
		sys = &pietql.System{
			Ctx: ctx, Engine: eng, Kinds: kinds,
			SchemaName: "PietSchema",
			Cubes:      mdx.Catalog{"CityCube": &mdx.Cube{Name: "CityCube", Fact: populationCube(city.Neighborhoods)}},
		}
		layers = city.Layers()
	}
	sys.Telemetry = cfg.Telemetry

	if cfg.Overlay {
		refN := overlay.Ref{Layer: "Ln", Kind: layer.KindPolygon}
		pairs := []overlay.Pair{
			{A: refN, B: overlay.Ref{Layer: "Lr", Kind: layer.KindPolyline}},
			{A: refN, B: overlay.Ref{Layer: "Lstores", Kind: layer.KindNode}},
			{A: refN, B: overlay.Ref{Layer: "Ls", Kind: layer.KindNode}},
			{A: refN, B: overlay.Ref{Layer: "Lh", Kind: layer.KindPolyline}},
		}
		ov, err := overlay.Precompute(context.Background(), layers, pairs)
		if err != nil {
			return nil, err
		}
		sys.Overlay = ov
	}
	return sys, nil
}

// populationCube builds the CityCube fact table from the neighborhood
// dimension's population/income attributes (same cube the CLI serves).
func populationCube(dim *olap.Dimension) *olap.FactTable {
	ft := olap.NewFactTable(olap.FactSchema{
		Dims:     []olap.DimCol{{Name: "place", Dimension: dim, Level: "neighborhood"}},
		Measures: []string{"population", "income"},
	})
	for _, m := range dim.Members("neighborhood") {
		pop, inc := 0.0, 0.0
		if v, ok := dim.Attr("neighborhood", m, "population"); ok {
			pop, _ = v.Num()
		}
		if v, ok := dim.Attr("neighborhood", m, "income"); ok {
			inc, _ = v.Num()
		}
		ft.MustAdd([]olap.Member{m}, []float64{pop, inc})
	}
	return ft
}

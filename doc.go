// Package mogis is a Go implementation of the moving-objects
// GIS-OLAP data model of Kuijpers & Vaisman, "A Data Model for Moving
// Objects Supporting Aggregation" (ICDE 2007): GIS dimensions over
// thematic layers, OLAP dimensions with a first-class Time dimension,
// moving-object fact tables, trajectory interpolation, first-order
// spatio-temporal region queries with aggregation, the Piet-QL query
// language, and the precomputed-overlay evaluation strategy.
//
// The implementation lives in the internal packages (see DESIGN.md
// for the map); the binaries under cmd/ and the programs under
// examples/ are the entry points:
//
//	cmd/moviz    — render Figure 1 and print the Figure-2 schema
//	cmd/pietql   — run Piet-QL queries (REPL or one-shot)
//	cmd/mogen    — generate synthetic cities and trajectories
//	cmd/mogisd   — serve Piet-QL, ingest and geofence events over HTTP
//
// The experiments of EXPERIMENTS.md are tests and benchmarks: the
// paper's worked example is paper_test.go, and every other gate and
// timing sits beside the code it covers (DESIGN.md §4).
package mogis

// Version is the library version.
const Version = "1.0.0"

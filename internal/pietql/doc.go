// Package pietql implements Piet-QL, the query language the paper
// sketches in Section 5. A Piet-QL query has up to three parts
// separated by pipes:
//
//	<geometric part> | <OLAP part> | <moving objects part>
//
// The geometric part follows the paper's example verbatim:
//
//	SELECT layer.usa_rivers, layer.usa_cities, layer.usa_stores;
//	FROM PietSchema;
//	WHERE intersection(layer.usa_rivers, layer.usa_cities, subplevel.Linestring)
//	AND (layer.usa_cities)
//	CONTAINS (layer.usa_cities, layer.usa_stores, subplevel.Point);
//
// Semantics: the WHERE clause is a conjunctive query over one
// geometry variable per referenced layer; intersection(A, B[, sub])
// holds when the A-geometry and the B-geometry share a point, and
// CONTAINS(A, B[, sub]) holds when the A-geometry fully contains the
// B-geometry. The optional "subplevel.<Kind>" annotation documents
// the geometry kind materialized by the predicate (Linestring,
// Point, Polygon) and is checked against the layer's declared kind.
// The parenthesized "(layer.X)" between AND and the next predicate
// — present in the paper's example — re-anchors the conjunction on
// layer X and is accepted and checked (the layer must be known), as
// is a plain AND between predicates. The result of the geometric
// part is, per selected layer, the set of geometry identifiers that
// participate in at least one satisfying assignment. Evaluation uses
// the precomputed overlay (Section 5's strategy) when one is
// attached, and falls back to on-the-fly geometry otherwise.
//
// The OLAP part is an MDX query (package mdx) evaluated against the
// registered cubes.
//
// The paper does not fix a syntax for the moving-objects part; ours
// is (a design decision documented here and in DESIGN.md):
//
//	MOVING COUNT(*) FROM FMbus
//	WHERE PASSES THROUGH layer.usa_cities
//	[DURING '2006-01-07 00:00' TO '2006-01-08 00:00']
//	[SAMPLED ONLY]
//	[GROUP BY hour|day]
//
// COUNT(*) is the only aggregate; the three optional clauses may
// appear in any order. It counts the moving objects of the named
// MOFT whose trajectory (linear interpolation by default, raw
// samples with SAMPLED ONLY) passes through any geometry the
// geometric part selected for that layer, optionally restricted to
// a time window — exactly the evaluation procedure Section 5
// describes: "for each object, and for each consecutive pair of
// points in the moving objects fact table, check if the intersection
// between the segment defined by these two points and a city in the
// answer to the geometric part is not empty". GROUP BY hour (or day,
// lower case) breaks the count down per Time-dimension bucket — the
// "per hour" of Remark 1 — counting an object in every bucket its
// passage overlaps. The whole moving-objects part is one engine call,
// core.Engine.CountRegionSet; EXPLAIN prints its window, granule and
// the structure that answers it.
package pietql

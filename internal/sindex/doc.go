// Package sindex provides spatial indexing for the moving-objects
// GIS-OLAP system: an STR bulk-loaded R-tree with k-nearest-neighbour
// search, and a uniform grid index for point location. The
// pre-aggregated spatio-temporal counts live in internal/agggrid.
package sindex

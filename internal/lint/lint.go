// Package lint implements moglint, the repository's domain-invariant
// static-analysis suite. Each analyzer codifies one invariant the
// query engine's correctness rests on but that neither the compiler
// nor go vet checks:
//
//   - spanend        — every obs.Tracer.Start/Root span is ended on
//     every path out of the function that opened it;
//   - cacheinvalidate — mutations of snapshot-bearing tables clear
//     their derived state;
//   - determinism    — the parallel query hot paths stay bit-identical
//     to serial: no wall-clock, no randomness, no map-iteration-order
//     result assembly without a subsequent sort;
//   - metricname     — metric and span names handed to internal/obs
//     are untyped constants, snake_case, and collision-free;
//   - ctxfirst       — exported query entry points on Engine/System
//     take context.Context as their first parameter, any context
//     parameter is first, and goroutines spawned in ctx-first
//     functions reference that context;
//   - lockorder      — no blocking operation (channel send/receive,
//     select without default, WaitGroup.Wait) runs under a held
//     mutex, and locks are acquired in one global order;
//   - goroutinejoin  — every go statement carries a join discipline
//     (WaitGroup, channel, or context), or an explicit
//     //moglint:detached annotation;
//   - budgetstride   — loops over MOFT rows on budget-governed paths
//     call the query controller within checkEvery rows;
//   - errwrap        — typed qerr/budget errors cross package
//     boundaries via %w and errors.Is/As, never string matching.
//
// The suite is stdlib-only, but no longer syntax-only: the loader
// (load.go) type-checks every package with go/types, resolving
// imports from compiler export data (go/importer) with a source
// fallback, and hands each analyzer a shared *types.Info. Checks
// resolve receivers, fields, and constants by type identity rather
// than name matching. Each check remains a documented approximation
// that errs toward silence on constructs it cannot resolve;
// deliberate exceptions are declared in code with //moglint:
// directives rather than suppressed silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one parsed and type-checked package: the unit the
// loader produces and analyzers consume. Test files are excluded —
// tests deliberately violate invariants (out-of-order span ends,
// ad-hoc tracers) to exercise them.
type Package struct {
	Path  string // import path, e.g. mogis/internal/core
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File

	// Types and Info carry the shared go/types view of the package;
	// every analyzer resolves identifiers, selections and constants
	// through Info instead of name heuristics. TypeErrors collects what
	// the checker could not resolve — analyzers err toward silence on
	// such code, and cmd/moglint reports the errors separately so an
	// unresolvable tree cannot masquerade as a clean one.
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Analyzer is one codified invariant. Run receives every loaded
// package at once so cross-package checks (metric-name uniqueness)
// see the whole program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkgs []*Package) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerSpanEnd,
		AnalyzerCacheInvalidate,
		AnalyzerDeterminism,
		AnalyzerMetricName,
		AnalyzerCtxFirst,
		AnalyzerLockOrder,
		AnalyzerGoroutineJoin,
		AnalyzerBudgetStride,
		AnalyzerErrWrap,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAll runs the given analyzers over the packages and returns the
// findings sorted by position then analyzer, ready to print.
func RunAll(analyzers []*Analyzer, pkgs []*Package) []Finding {
	var out []Finding
	for _, a := range analyzers {
		out = append(out, a.Run(pkgs)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// finding builds a Finding at the position of node n.
func (p *Package) finding(analyzer string, n ast.Node, format string, args ...any) Finding {
	pos := p.Fset.Position(n.Pos())
	return Finding{
		Analyzer: analyzer,
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

package lint

import (
	"go/ast"
)

// AnalyzerGoroutineJoin enforces that no goroutine in the engine can
// outlive the query that spawned it unobserved. Every `go` statement
// must show one of the accepted join/cancellation disciplines somewhere
// in the spawned expression:
//
//   - a sync.WaitGroup (the spawner Waits for it: fan-out workers);
//   - a channel-typed value (the spawner joins by receiving the
//     result or closing the work feed: pipeline stages);
//   - a context.Context (cancellation reaches the worker even if the
//     result is discarded: watchdogs, samplers);
//   - an errgroup-style `.Go(` call shape, where the group carries
//     the join.
//
// Resolution is by type, not name: a WaitGroup reached through a
// struct field or a renamed channel alias still counts. A goroutine
// that is deliberately fire-and-forget — a process-lifetime service
// loop — carries `//moglint:detached` on its own line (or the line
// above), which is greppable and reviewable, unlike silence.
var AnalyzerGoroutineJoin = &Analyzer{
	Name: "goroutinejoin",
	Doc:  "every go statement joins via WaitGroup, channel, or context; //moglint:detached opts out",
	Run:  runGoroutineJoin,
}

func runGoroutineJoin(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			file := f
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				line := p.Fset.Position(gs.Pos()).Line
				if lineDirective(p, file, line, "moglint:detached") {
					return true
				}
				if !p.hasJoinDiscipline(gs) {
					out = append(out, p.finding("goroutinejoin", gs,
						"goroutine has no join discipline: no WaitGroup, channel, or context in the spawned expression (add one, or annotate //moglint:detached)"))
				}
				return true
			})
		}
	}
	return out
}

// hasJoinDiscipline scans the entire go statement subtree — the callee
// expression, its arguments, and a func literal's body — for any
// expression whose type is a WaitGroup, a channel, or a context.
func (p *Package) hasJoinDiscipline(gs *ast.GoStmt) bool {
	found := false
	ast.Inspect(gs.Call, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := p.typeOf(e)
		if t == nil {
			return true
		}
		if typeIs(t, "sync", "WaitGroup") || isChanType(t) || isContextType(t) {
			found = true
			return false
		}
		// An errgroup-style group.Go(func() error {...}) shape: the
		// method name Go on any receiver is a join-carrying call.
		if call, ok := e.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

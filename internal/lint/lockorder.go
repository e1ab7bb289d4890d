package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// AnalyzerLockOrder guards the two classic mutex failure modes on the
// engine's and server's concurrent paths:
//
//  1. a sync.Mutex / sync.RWMutex held across a blocking operation — a
//     channel send or receive, a select without a default clause, or a
//     sync.WaitGroup.Wait — which turns one worker's fan-in stall into
//     a whole-engine stall (and deadlocks outright when the blocked
//     goroutine is the one that would unblock the channel);
//  2. two locks acquired in opposite orders at different sites, the
//     precondition for an ABBA deadlock.
//
// Locks are identified through go/types as package.Type.field (or
// package.var for globals), so the same mutex reached through
// different receiver names at different sites still unifies. The scan
// is lexical per function body: Lock/RLock adds to the held set,
// Unlock/RUnlock removes, `defer mu.Unlock()` holds to the end of the
// body. sync.Cond.Wait is exempt (it releases the associated lock
// while blocked), and each func literal is scanned with its own empty
// held set — a goroutine body does not inherit the spawner's locks
// lexically.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no blocking ops under a held mutex; consistent lock acquisition order",
	Run:  runLockOrder,
}

// lockMethodKind classifies sel as a mutex operation on a
// sync.Mutex/sync.RWMutex-typed receiver: +1 acquire, -1 release, 0
// neither.
func (p *Package) lockMethodKind(call *ast.CallExpr) (id string, kind int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	recv := p.typeOf(sel.X)
	if !typeIs(recv, "sync", "Mutex") && !typeIs(recv, "sync", "RWMutex") {
		return "", 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = 1
	case "Unlock", "RUnlock":
		kind = -1
	case "TryLock", "TryRLock":
		// TryLock never blocks and its success is branch-dependent;
		// the lexical scan cannot track it, so it is out of scope.
		return "", 0
	default:
		return "", 0
	}
	return p.lockIdentity(sel.X), kind
}

// isBlockingOp reports whether s irreducibly blocks: channel send,
// channel receive, select without default, or WaitGroup.Wait. Returns
// a short description for the diagnostic.
func (p *Package) isBlockingOp(s ast.Stmt) (string, bool) {
	switch v := s.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // default clause: non-blocking
			}
		}
		return "select without default", true
	case *ast.ExprStmt:
		if un, ok := v.X.(*ast.UnaryExpr); ok && un.Op == token.ARROW {
			return "channel receive", true
		}
		if call, ok := v.X.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if typeIs(p.typeOf(sel.X), "sync", "WaitGroup") {
					return "WaitGroup.Wait", true
				}
			}
		}
	case *ast.AssignStmt:
		// v := <-ch and v = <-ch
		for _, r := range v.Rhs {
			if un, ok := r.(*ast.UnaryExpr); ok && un.Op == token.ARROW {
				if isChanType(p.typeOf(un.X)) {
					return "channel receive", true
				}
			}
		}
	}
	return "", false
}

// lockOrderState accumulates cross-site acquisition orders for one run.
type lockOrderState struct {
	// order maps "a\x00b" (a acquired before b while a held) to the
	// node of the first site that established that direction.
	order map[[2]string]ast.Node
	pkgs  map[[2]string]*Package
}

func runLockOrder(pkgs []*Package) []Finding {
	st := &lockOrderState{
		order: map[[2]string]ast.Node{},
		pkgs:  map[[2]string]*Package{},
	}
	var out []Finding
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, scanLockBody(p, fd.Name.Name, fd.Body, st)...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos.Offset < out[j].Pos.Offset })
	return out
}

// scanLockBody walks one function (or func literal) body lexically
// with an empty held set, recursing into nested literals.
func scanLockBody(p *Package, fname string, body *ast.BlockStmt, st *lockOrderState) []Finding {
	var out []Finding
	held := []string{} // acquisition-ordered
	heldSet := map[string]bool{}

	release := func(id string) {
		if !heldSet[id] {
			return
		}
		delete(heldSet, id)
		for i, h := range held {
			if h == id {
				held = append(held[:i], held[i+1:]...)
				break
			}
		}
	}

	// Func literals get their own scan with an empty held set — a
	// goroutine or callback body does not run under the spawner's
	// locks. The statement walk below never descends into them.
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, scanLockBody(p, fname+" (func literal)", fl.Body, st)...)
			return false
		}
		return true
	})

	var walkStmt func(s ast.Stmt)
	var walkList func(list []ast.Stmt)
	walkList = func(list []ast.Stmt) {
		for _, s := range list {
			walkStmt(s)
		}
	}
	walkStmt = func(s ast.Stmt) {
		if desc, blocking := p.isBlockingOp(s); blocking && len(held) > 0 {
			out = append(out, p.finding("lockorder", s,
				"%s in %s while %s is held; a stalled peer deadlocks every caller of this lock", desc, fname, held[len(held)-1]))
		}

		switch v := s.(type) {
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				if id, kind := p.lockMethodKind(call); id != "" {
					switch kind {
					case 1:
						if heldSet[id] {
							out = append(out, p.finding("lockorder", s,
								"%s re-acquires %s already held on this path; sync.Mutex is not reentrant", fname, id))
							return
						}
						for _, h := range held {
							recordOrder(p, st, h, id, s, fname, &out)
						}
						held = append(held, id)
						heldSet[id] = true
					case -1:
						release(id)
					}
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the remainder
			// of this lexical body: no release event.
			_ = v
		case *ast.BlockStmt:
			walkList(v.List)
		case *ast.IfStmt:
			if v.Init != nil {
				walkStmt(v.Init)
			}
			// Each arm sees the current held set; mutations inside an
			// arm are kept (lexical, conservative toward reporting).
			walkStmt(v.Body)
			if v.Else != nil {
				walkStmt(v.Else)
			}
		case *ast.ForStmt:
			if v.Init != nil {
				walkStmt(v.Init)
			}
			walkStmt(v.Body)
		case *ast.RangeStmt:
			walkStmt(v.Body)
		case *ast.SwitchStmt:
			if v.Init != nil {
				walkStmt(v.Init)
			}
			walkStmt(v.Body)
		case *ast.TypeSwitchStmt:
			walkStmt(v.Body)
		case *ast.SelectStmt:
			walkStmt(v.Body)
		case *ast.CaseClause:
			walkList(v.Body)
		case *ast.CommClause:
			walkList(v.Body)
		case *ast.LabeledStmt:
			walkStmt(v.Stmt)
		}
	}
	walkList(body.List)
	return out
}

// recordOrder notes that outer was held when inner was acquired, and
// reports when a previous site established the opposite direction.
func recordOrder(p *Package, st *lockOrderState, outer, inner string, at ast.Node, fname string, out *[]Finding) {
	if outer == inner {
		return
	}
	fwd := [2]string{outer, inner}
	rev := [2]string{inner, outer}
	if prev, ok := st.order[rev]; ok {
		prevPkg := st.pkgs[rev]
		prevPos := prevPkg.Fset.Position(prev.Pos())
		*out = append(*out, p.finding("lockorder", at,
			"%s acquires %s then %s, but %s:%d acquires them in the opposite order (ABBA deadlock)",
			fname, outer, inner, prevPos.Filename, prevPos.Line))
		return
	}
	if _, ok := st.order[fwd]; !ok {
		st.order[fwd] = at
		st.pkgs[fwd] = p
	}
}

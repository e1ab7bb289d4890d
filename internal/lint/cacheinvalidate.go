package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCacheInvalidate enforces the every-mutation-invalidates-
// derived-state contract inside a package defining a snapshot-bearing
// table (a struct with an atomic.Pointer snapshot field, like
// moft.Table's columnar snapshot): every exported method that mutates
// a slice field of the receiver (append or element assignment) must
// clear each snapshot field with .Store(nil) — directly or via another
// method of the type that does. The engine's caches need no such
// rule: they belong to a table version, and loading rows into a table
// gives it a new one.
var AnalyzerCacheInvalidate = &Analyzer{
	Name: "cacheinvalidate",
	Doc:  "table mutations must clear snapshots",
	Run:  runCacheInvalidate,
}

func runCacheInvalidate(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		out = append(out, checkSnapshotClearing(p)...)
	}
	return out
}

// snapshotStruct describes one struct with derived-snapshot state.
type snapshotStruct struct {
	name       string
	snapFields []string // atomic.Pointer fields (the derived snapshots)
	sliceSet   map[string]bool
}

// collectSnapshotStructs finds the package's snapshot-bearing structs:
// at least one atomic.Pointer field and at least one slice field,
// classified through go/types so aliased imports resolve.
func collectSnapshotStructs(p *Package) map[string]*snapshotStruct {
	out := map[string]*snapshotStruct{}
	structFields(p, func(name *ast.Ident, st *ast.StructType) {
		ss := &snapshotStruct{name: name.Name, sliceSet: map[string]bool{}}
		for _, fld := range st.Fields.List {
			t := p.typeOf(fld.Type)
			isPtr := typeIs(t, "sync/atomic", "Pointer")
			isSlice := false
			if t != nil {
				_, isSlice = t.Underlying().(*types.Slice)
			}
			for _, fname := range fld.Names {
				if isPtr {
					ss.snapFields = append(ss.snapFields, fname.Name)
				}
				if isSlice {
					ss.sliceSet[fname.Name] = true
				}
			}
		}
		if len(ss.snapFields) > 0 && len(ss.sliceSet) > 0 {
			out[ss.name] = ss
		}
	})
	return out
}

// methodIndex maps method name → body for every method of the given
// receiver type in the package (for the one-level transitive
// Store(nil) check).
func methodIndex(p *Package, recvType string) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if name, _ := recvTypeName(fd); name == recvType {
				out[fd.Name.Name] = fd
			}
		}
	}
	return out
}

// recvIdent returns the receiver identifier object of a method (nil
// for unnamed receivers).
func recvIdent(fd *ast.FuncDecl) *ast.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return fd.Recv.List[0].Names[0].Obj
}

// mutatesSliceField reports whether the body assigns to (or appends
// into) a slice field of the receiver.
func mutatesSliceField(fd *ast.FuncDecl, recv *ast.Object, ss *snapshotStruct) (string, bool) {
	var hit string
	isRecvField := func(e ast.Expr) (string, bool) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || !ss.sliceSet[sel.Sel.Name] {
			return "", false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Obj != recv {
			return "", false
		}
		return sel.Sel.Name, true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if name, ok := isRecvField(lhs); ok {
				hit = name
				return false
			}
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				if name, ok := isRecvField(ix.X); ok {
					hit = name
					return false
				}
			}
		}
		return true
	})
	return hit, hit != ""
}

// clearsSnapshot reports whether the body calls recv.snap.Store(nil)
// for the given snapshot field, or (when methods is non-nil) calls a
// method on recv that does.
func clearsSnapshot(fd *ast.FuncDecl, recv *ast.Object, snap string, methods map[string]*ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// recv.snap.Store(nil)
		if sel.Sel.Name == "Store" && len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok && id.Name == "nil" {
				if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == snap {
					if rid, ok := inner.X.(*ast.Ident); ok && rid.Obj == recv {
						found = true
						return false
					}
				}
			}
		}
		// recv.other() where other clears the snapshot (one level).
		if methods != nil {
			if rid, ok := sel.X.(*ast.Ident); ok && rid.Obj == recv {
				if callee, ok := methods[sel.Sel.Name]; ok && callee != fd {
					if clearsSnapshot(callee, recvIdent(callee), snap, nil) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// checkSnapshotClearing applies rule 1 to the package's own
// snapshot-bearing structs.
func checkSnapshotClearing(p *Package) []Finding {
	structs := collectSnapshotStructs(p)
	if len(structs) == 0 {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recvType, isPtr := recvTypeName(fd)
			ss := structs[recvType]
			if ss == nil || !isPtr {
				continue
			}
			recv := recvIdent(fd)
			if recv == nil {
				continue
			}
			field, mutates := mutatesSliceField(fd, recv, ss)
			if !mutates {
				continue
			}
			methods := methodIndex(p, recvType)
			for _, snap := range ss.snapFields {
				if !clearsSnapshot(fd, recv, snap, methods) {
					out = append(out, p.finding("cacheinvalidate", fd.Name,
						"exported method %s.%s mutates %s but never clears snapshot field %s (missing %s.Store(nil))",
						recvType, fd.Name.Name, field, snap, snap))
				}
			}
		}
	}
	return out
}

package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// This file holds the type-resolution helpers the analyzers share.
// Every helper is nil-safe against missing type information (a
// package that failed to type-check has incomplete Info maps): the
// convention is to return false/nil/"" so the calling analyzer stays
// silent on code it cannot resolve.

// typeOf returns the type of e, or nil when the checker did not
// resolve it.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// objectOf returns the object an identifier denotes (use or def), or
// nil.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if pt, ok := t.(*types.Pointer); ok {
		return pt.Elem()
	}
	return t
}

// namedType resolves t (through pointers and aliases) to its named
// type, or nil for unnamed types.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = deref(types.Unalias(t))
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// typeIs reports whether t (through pointers and aliases) is the
// named type pkgPath.name. An empty pkgPath matches any package;
// pkgTail matches on the last path element instead (fixture packages
// stand in for engine packages under different roots).
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Name() != name {
		return false
	}
	pkg := n.Obj().Pkg()
	if pkgPath == "" {
		return true
	}
	return pkg != nil && pkg.Path() == pkgPath
}

// typeIsTail matches a named type by name and the last element of its
// package path ("obs", "moft"): exact enough for the module's unique
// package tails while letting fixture trees model engine packages.
func typeIsTail(t types.Type, pkgTail, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Name() != name {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pathTail(pkg.Path()) == pkgTail
}

// typeNameIs reports whether t resolves to a named type with the
// given bare name, in any package.
func typeNameIs(t types.Type, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == name
}

// pkgFunc resolves a call to a package-level function and reports
// whether it is pkgPath.name (e.g. "time".Now). Methods do not match.
func (p *Package) pkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	fn := p.calleeObj(call)
	if fn == nil || fn.Name() != name {
		return false
	}
	if _, isFunc := fn.(*types.Func); !isFunc {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// calleeObj resolves the callee of a call expression to its object
// (function, method, or builtin), or nil.
func (p *Package) calleeObj(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.objectOf(fn)
	case *ast.SelectorExpr:
		return p.objectOf(fn.Sel)
	}
	return nil
}

// constString resolves e to its compile-time string value through the
// checker's constant folding (literals, constants from any package,
// concatenations). ok is false for non-constant expressions.
func (p *Package) constString(e ast.Expr) (string, bool) {
	if p.Info == nil {
		return "", false
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isErrorType reports whether t is (or implements) the builtin error
// interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := types.Unalias(t).(*types.Named); ok &&
		named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return true
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return typeIs(t, "context", "Context")
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// structFields iterates the package's named struct types, calling
// visit with each type name and its syntactic struct declaration.
func structFields(p *Package, visit func(name *ast.Ident, st *ast.StructType)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					visit(ts.Name, st)
				}
			}
		}
	}
}

// selectionField resolves a selector expression to the struct field
// it denotes, or nil for method selections, package qualifiers and
// unresolved code.
func (p *Package) selectionField(sel *ast.SelectorExpr) *types.Var {
	if p.Info == nil {
		return nil
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// fieldOwnerName returns the name of the named type that declares the
// struct field behind sel, resolving through the package's struct
// declarations ("" when unknown).
func (p *Package) fieldOwnerName(field *types.Var) string {
	if field == nil || field.Pkg() == nil {
		return ""
	}
	scope := field.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn.Name()
			}
		}
	}
	return ""
}

// receiverType resolves a method declaration's receiver to its named
// type, or nil.
func (p *Package) receiverType(fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return namedType(p.typeOf(fd.Recv.List[0].Type))
}

// exprString renders a stable identity for a lock expression like
// "e.mu" or "tc.imu": the chain of identifiers and field names,
// ignoring positions. Used to correlate lock sites.
func exprString(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := exprString(v.X)
		if base == "" {
			return v.Sel.Name
		}
		return base + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "()"
	case *ast.StarExpr:
		return exprString(v.X)
	case *ast.UnaryExpr:
		return exprString(v.X)
	}
	return ""
}

// lockIdentity names a lock globally: the declaring package path, the
// owning struct type (when the lock is a field), and the field or
// variable name. Two call sites locking the same field of the same
// type — on any receiver — share an identity, which is what lock-order
// comparison needs.
func (p *Package) lockIdentity(e ast.Expr) string {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if f := p.selectionField(sel); f != nil {
			owner := p.fieldOwnerName(f)
			pkg := ""
			if f.Pkg() != nil {
				pkg = f.Pkg().Path()
			}
			if owner != "" {
				return pkg + "." + owner + "." + f.Name()
			}
			return pkg + "." + f.Name()
		}
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := p.objectOf(id); obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	s := exprString(e)
	if s == "" {
		return ""
	}
	return p.Path + ":" + s
}

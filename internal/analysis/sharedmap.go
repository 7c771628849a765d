package analysis

import (
	"go/ast"
	"go/types"
)

// sharedmapChecker flags writes to map-typed struct fields on types that
// participate in goroutine fan-out but carry no guarding mutex in the
// struct. Concurrent map writes crash the runtime outright; this is the
// fan-out failure mode (routing tables, capability caches, usage
// counters) that only shows up under production load.
//
// A type "participates in goroutine fan-out" when one of its methods
// spawns a goroutine, or a value of the type is captured inside a
// `go func` literal in the same package. A struct with a sync.Mutex or
// sync.RWMutex field is assumed to guard its own maps — the checker
// validates structure, not lock discipline.
func sharedmapChecker() Checker {
	return Checker{
		Name: "sharedmap",
		Doc:  "map fields of goroutine-active structs need a guarding mutex in the struct",
		Run:  runSharedmap,
	}
}

type structFacts struct {
	mapFields map[string]bool
	hasMutex  bool
}

func runSharedmap(pass *Pass) []Finding {
	facts := collectStructFacts(pass)
	active := collectGoroutineActive(pass, facts)

	var out []Finding
	flag := func(pos ast.Node, field string, named *types.Named) {
		out = append(out, pass.finding(pos.Pos(), "sharedmap",
			"map field %q of %s is written without a guarding mutex in the struct, but %s is used from goroutines",
			field, named.Obj().Name(), named.Obj().Name()))
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range nn.Lhs {
					if named, field, ok := mapFieldWrite(pass, facts, active, lhs); ok {
						flag(nn, field, named)
					}
				}
			case *ast.IncDecStmt:
				if named, field, ok := mapFieldWrite(pass, facts, active, nn.X); ok {
					flag(nn, field, named)
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(nn.Fun).(*ast.Ident); ok && id.Name == "delete" && len(nn.Args) > 0 {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						if sel, ok := ast.Unparen(nn.Args[0]).(*ast.SelectorExpr); ok {
							if named, field, ok := fieldOnUnguardedActive(pass, facts, active, sel); ok {
								flag(nn, field, named)
							}
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// mapFieldWrite reports whether expr is `x.field[key]` where field is a
// map field of an unguarded goroutine-active struct.
func mapFieldWrite(pass *Pass, facts map[*types.Named]*structFacts, active map[*types.Named]bool, expr ast.Expr) (*types.Named, string, bool) {
	idx, ok := ast.Unparen(expr).(*ast.IndexExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	return fieldOnUnguardedActive(pass, facts, active, sel)
}

func fieldOnUnguardedActive(pass *Pass, facts map[*types.Named]*structFacts, active map[*types.Named]bool, sel *ast.SelectorExpr) (*types.Named, string, bool) {
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, "", false
	}
	named := derefNamed(selection.Recv())
	if named == nil {
		return nil, "", false
	}
	// Instantiated generics (Cache[string, int]) index facts under their
	// generic origin, which is what collectStructFacts recorded.
	named = named.Origin()
	f, ok := facts[named]
	if !ok || f.hasMutex || !f.mapFields[sel.Sel.Name] || !active[named] {
		return nil, "", false
	}
	return named, sel.Sel.Name, true
}

// collectStructFacts indexes the package's named struct types: their
// map-typed fields and whether a sync mutex lives in the struct.
func collectStructFacts(pass *Pass) map[*types.Named]*structFacts {
	facts := map[*types.Named]*structFacts{}
	for _, obj := range pass.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		f := &structFacts{mapFields: map[string]bool{}}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			switch field.Type().Underlying().(type) {
			case *types.Map:
				f.mapFields[field.Name()] = true
			}
			if isSyncMutex(field.Type()) {
				f.hasMutex = true
			}
		}
		facts[named] = f
	}
	return facts
}

func isSyncMutex(t types.Type) bool {
	named := derefNamed(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// collectGoroutineActive marks struct types whose methods spawn
// goroutines or whose values are captured in `go func` literals.
func collectGoroutineActive(pass *Pass, facts map[*types.Named]*structFacts) map[*types.Named]bool {
	active := map[*types.Named]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			spawns := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					spawns = true
					return false
				}
				return true
			})
			if !spawns {
				continue
			}
			if def, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				if sig, ok := def.Type().(*types.Signature); ok && sig.Recv() != nil {
					if named := derefNamed(sig.Recv().Type()); named != nil {
						active[named.Origin()] = true
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[id]
				if !ok || tv.Type == nil {
					return true
				}
				if named := derefNamed(tv.Type); named != nil {
					if _, tracked := facts[named.Origin()]; tracked {
						active[named.Origin()] = true
					}
				}
				return true
			})
			return true
		})
	}
	return active
}

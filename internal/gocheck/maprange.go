package gocheck

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// MapRange bans map-range iteration feeding ordered outputs: a `for ...
// range m` over a map whose body appends to a slice declared outside the
// loop, inside a function that never sorts. Go's map iteration order is
// randomized per run, so such a function returns its facts, rows, or ids
// in a different order every call — exactly the bug class the engine's
// determinism contract (bit-identical derived-fact order and traces
// across runs) forbids on response paths. Scoped to
// internal/engine and internal/server, the two packages that build
// ordered outputs.
//
// Syntactic approximations: map-ness is inferred from make calls,
// composite literals, declared types, struct fields, and range/index
// value types — not a type checker; a sort call anywhere in the function
// (sort.*, slices.*, anything named *Sort*) counts as ordering the
// output. A deliberate unordered append can be waived with a
// `//tddlint:unordered` comment on the range statement or the line above.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration that appends to an outer slice in a function that never sorts",
	AppliesTo: func(path string) bool {
		return underTDD(path, "tdd/internal/engine", "tdd/internal/server")
	},
	Run: runMapRange,
}

func runMapRange(p *Pass) {
	idx := buildTypeIndex(p.Files)
	for _, f := range p.Files {
		waived := commentWaivers(p.Fset, f, "tddlint:unordered")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			scope := functionScope(fn, idx)
			if functionSorts(fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := idx.exprType(rs.X, scope)
				if !strings.HasPrefix(t, "map[") {
					return true
				}
				line := p.Fset.Position(rs.Pos()).Line
				if waived[line] || waived[line-1] {
					return true
				}
				if target := appendsToOuter(rs); target != "" {
					p.Reportf(rs.Pos(), "map iteration feeds append to %s in a function with no sort; map order is randomized — sort the result or annotate //tddlint:unordered", target)
				}
				return true
			})
		}
	}
}

// functionSorts reports whether the function calls anything that orders a
// slice: the sort or slices packages, or any function/method whose name
// contains "Sort" (ast.SortFacts, sortFacts, ...).
func functionSorts(fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch f := call.Fun.(type) {
		case *ast.Ident:
			if strings.Contains(f.Name, "Sort") || strings.Contains(f.Name, "sort") {
				found = true
			}
		case *ast.SelectorExpr:
			if x, ok := f.X.(*ast.Ident); ok && (x.Name == "sort" || x.Name == "slices") {
				found = true
			}
			if strings.Contains(f.Sel.Name, "Sort") {
				found = true
			}
		}
		return !found
	})
	return found
}

// appendsToOuter finds `x = append(x, ...)` inside the range body where x
// is not declared within the body itself; it returns the rendered target
// or "" when none is found.
func appendsToOuter(rs *ast.RangeStmt) string {
	declared := make(map[string]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						declared[id.Name] = true
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, sp := range gd.Specs {
					if vs, ok := sp.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							declared[name.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	target := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || target != "" {
			return target == ""
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || len(call.Args) == 0 {
			return true
		}
		switch dst := call.Args[0].(type) {
		case *ast.Ident:
			if !declared[dst.Name] {
				target = dst.Name
			}
		case *ast.SelectorExpr:
			target = renderExpr(dst)
		}
		return target == ""
	})
	return target
}

// typeIndex resolves rough type strings for expressions: struct fields,
// package-level vars, and whatever a function's scope recorded.
type typeIndex struct {
	// fields maps a struct type name to field name to rendered type.
	fields map[string]map[string]string
	// pkgVars maps package-level var names to rendered types.
	pkgVars map[string]string
	// named maps a defined type name to its underlying rendered type
	// (for `type registry map[string]*entry`).
	named map[string]string
}

func buildTypeIndex(files []*ast.File) *typeIndex {
	idx := &typeIndex{
		fields:  make(map[string]map[string]string),
		pkgVars: make(map[string]string),
		named:   make(map[string]string),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, sp := range gd.Specs {
				switch s := sp.(type) {
				case *ast.TypeSpec:
					if st, ok := s.Type.(*ast.StructType); ok {
						m := make(map[string]string)
						for _, field := range st.Fields.List {
							t := renderExpr(field.Type)
							for _, name := range field.Names {
								m[name.Name] = t
							}
						}
						idx.fields[s.Name.Name] = m
					} else {
						idx.named[s.Name.Name] = renderExpr(s.Type)
					}
				case *ast.ValueSpec:
					if s.Type != nil {
						t := renderExpr(s.Type)
						for _, name := range s.Names {
							idx.pkgVars[name.Name] = t
						}
					}
				}
			}
		}
	}
	return idx
}

// resolve chases named types to their underlying form so map-ness shows.
func (idx *typeIndex) resolve(t string) string {
	for i := 0; i < 8; i++ {
		base := strings.TrimPrefix(t, "*")
		u, ok := idx.named[base]
		if !ok {
			return t
		}
		t = u
	}
	return t
}

// exprType renders a rough type for e given local variable types in
// scope. Returns "" when unknown.
func (idx *typeIndex) exprType(e ast.Expr, scope map[string]string) string {
	switch x := e.(type) {
	case *ast.Ident:
		if t, ok := scope[x.Name]; ok {
			return idx.resolve(t)
		}
		if t, ok := idx.pkgVars[x.Name]; ok {
			return idx.resolve(t)
		}
	case *ast.SelectorExpr:
		base := strings.TrimPrefix(idx.exprType(x.X, scope), "*")
		if m, ok := idx.fields[base]; ok {
			return idx.resolve(m[x.Sel.Name])
		}
	case *ast.IndexExpr:
		t := idx.exprType(x.X, scope)
		if strings.HasPrefix(t, "map[") {
			return idx.resolve(mapValueType(t))
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
			return idx.resolve(renderExpr(x.Args[0]))
		}
	case *ast.CompositeLit:
		if x.Type != nil {
			return idx.resolve(renderExpr(x.Type))
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return "*" + idx.exprType(x.X, scope)
		}
	case *ast.ParenExpr:
		return idx.exprType(x.X, scope)
	}
	return ""
}

// functionScope collects rough types for the function's receiver,
// parameters, and locals assigned from type-revealing expressions (make,
// composite literals, map indexing, map ranges). Source order, no
// shadowing analysis — good enough for lint.
func functionScope(fn *ast.FuncDecl, idx *typeIndex) map[string]string {
	scope := make(map[string]string)
	if fn.Recv != nil {
		for _, field := range fn.Recv.List {
			t := renderExpr(field.Type)
			for _, name := range field.Names {
				scope[name.Name] = t
			}
		}
	}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			t := renderExpr(field.Type)
			for _, name := range field.Names {
				scope[name.Name] = t
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					if t := idx.exprType(s.Rhs[0], scope); t != "" {
						scope[id.Name] = t
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, sp := range gd.Specs {
					if vs, ok := sp.(*ast.ValueSpec); ok && vs.Type != nil {
						t := renderExpr(vs.Type)
						for _, name := range vs.Names {
							scope[name.Name] = t
						}
					}
				}
			}
		case *ast.RangeStmt:
			t := idx.exprType(s.X, scope)
			if strings.HasPrefix(t, "map[") {
				if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
					scope[id.Name] = mapKeyType(t)
				}
				if id, ok := s.Value.(*ast.Ident); ok && id != nil && id.Name != "_" {
					scope[id.Name] = idx.resolve(mapValueType(t))
				}
			} else if strings.HasPrefix(t, "[]") {
				if id, ok := s.Value.(*ast.Ident); ok && id != nil && id.Name != "_" {
					scope[id.Name] = idx.resolve(t[2:])
				}
			}
		}
		return true
	})
	return scope
}

// mapKeyType extracts K from "map[K]V" (bracket-aware).
func mapKeyType(t string) string {
	depth := 0
	for i := len("map["); i < len(t); i++ {
		switch t[i] {
		case '[':
			depth++
		case ']':
			if depth == 0 {
				return t[len("map["):i]
			}
			depth--
		}
	}
	return ""
}

// mapValueType extracts V from "map[K]V" (bracket-aware).
func mapValueType(t string) string {
	depth := 0
	for i := len("map["); i < len(t); i++ {
		switch t[i] {
		case '[':
			depth++
		case ']':
			if depth == 0 {
				return t[i+1:]
			}
			depth--
		}
	}
	return ""
}

// commentWaivers maps line numbers carrying the given annotation.
func commentWaivers(fset *token.FileSet, f *ast.File, annotation string) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, annotation) {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// renderExpr prints an expression back to source text.
func renderExpr(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}

// Package detrange enforces the repo's bit-determinism contract: same seed
// ⇒ same pool ⇒ same rankings, for any worker count. Go randomizes both map
// iteration order and the choice among ready select cases, so inside the
// determinism-critical packages a `range` over a map (or a select with two
// or more ready communication cases) is an ordering decision the runtime
// makes differently on every run — the exact class of bug that made PR 9's
// drift-analyzer selection depend on which map entry happened to come first.
//
// A map range is accepted when it provably only collects keys or values into
// a slice that the same function sorts afterwards (the collect-and-sort
// idiom); everything else needs either a rewrite or a justified
// //srlint:ordered directive explaining why ordering cannot escape.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"

	"stablerank/internal/lint"
)

// DefaultPackages are the determinism-critical import paths: the Monte-Carlo
// and ranking engines whose outputs are promised bit-identical across runs
// and worker counts, the root package with its query planner, and the
// server/cluster layers whose JSON renderings and peer fan-outs are pinned
// byte-stable by tests.
var DefaultPackages = []string{
	"stablerank",
	"stablerank/internal/mc",
	"stablerank/internal/md",
	"stablerank/internal/rank",
	"stablerank/internal/vecmat",
	"stablerank/internal/twod",
	"stablerank/internal/cluster",
	"stablerank/server",
}

// New returns the detrange analyzer restricted to the given import paths.
// No paths means DefaultPackages; the single pattern "*" means every
// package (used by fixtures and one-off audits).
func New(pkgs ...string) *lint.Analyzer {
	if len(pkgs) == 0 {
		pkgs = DefaultPackages
	}
	return &lint.Analyzer{
		Name:      "detrange",
		Directive: "ordered",
		Doc: "flags nondeterministic iteration (map range, multi-ready select) in determinism-critical packages; " +
			"collect-and-sort loops pass, anything else needs //srlint:ordered <reason>",
		Run: func(pass *lint.Pass) { run(pass, pkgs) },
	}
}

func run(pass *lint.Pass, pkgs []string) {
	if !critical(pass.Pkg.Path(), pkgs) {
		return
	}
	for _, f := range pass.Files {
		funcs := collectFuncs(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				if fn := enclosing(funcs, n.Pos()); fn != nil && collectsAndSorts(pass, fn, n) {
					return true
				}
				pass.Reportf(n.Pos(),
					"range over map %s iterates in runtime-randomized order in a determinism-critical package; "+
						"iterate sorted keys (or justify with //srlint:ordered <reason>)",
					types.ExprString(n.X))
			case *ast.SelectStmt:
				ready := 0
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						ready++
					}
				}
				if ready >= 2 {
					pass.Reportf(n.Pos(),
						"select with %d communication cases picks a ready case pseudorandomly; "+
							"order the operations explicitly (or justify with //srlint:ordered <reason>)", ready)
				}
			}
			return true
		})
	}
}

func critical(path string, pkgs []string) bool {
	for _, p := range pkgs {
		if p == "*" || p == path {
			return true
		}
	}
	return false
}

// funcBody is one function scope: the node delimiting it and its body.
type funcBody struct {
	pos, end token.Pos
	body     *ast.BlockStmt
}

func collectFuncs(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, funcBody{n.Pos(), n.End(), n.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{n.Pos(), n.End(), n.Body})
		}
		return true
	})
	return out
}

// enclosing returns the innermost function containing pos.
func enclosing(funcs []funcBody, pos token.Pos) *funcBody {
	var best *funcBody
	for i := range funcs {
		fn := &funcs[i]
		if fn.pos <= pos && pos < fn.end {
			if best == nil || fn.pos > best.pos {
				best = fn
			}
		}
	}
	return best
}

// collectsAndSorts recognizes the one deterministic map-range idiom accepted
// without a directive: every statement in the loop body appends the key or
// value to a slice (filter guards of the form `if cond { continue }` are
// allowed), and every such slice is passed to a sort.* or slices.Sort* call
// after the loop in the same function.
func collectsAndSorts(pass *lint.Pass, fn *funcBody, rs *ast.RangeStmt) bool {
	targets := make(map[types.Object]bool)
	for _, st := range rs.Body.List {
		switch s := st.(type) {
		case *ast.AssignStmt:
			obj := appendTarget(pass, s)
			if obj == nil {
				return false
			}
			targets[obj] = true
		case *ast.IfStmt:
			if !isFilterGuard(s) {
				return false
			}
		default:
			return false
		}
	}
	if len(targets) == 0 {
		return false
	}
	for obj := range targets { //srlint:ordered membership check only; no order-dependent effect
		if !sortedAfter(pass, fn, rs.End(), obj) {
			return false
		}
	}
	return true
}

// appendTarget returns the object of x in `x = append(x, ...)`, else nil.
func appendTarget(pass *lint.Pass, s *ast.AssignStmt) types.Object {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil
	}
	if b, ok := pass.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.Info.Uses[first] != pass.Info.Uses[lhs] && pass.Info.Uses[first] != pass.Info.Defs[lhs] {
		return nil
	}
	if obj := pass.Info.Uses[lhs]; obj != nil {
		return obj
	}
	return pass.Info.Defs[lhs]
}

// isFilterGuard accepts `if cond { continue }` (any condition, body exactly
// one continue) so collect loops may skip entries.
func isFilterGuard(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	b, ok := s.Body.List[0].(*ast.BranchStmt)
	return ok && b.Tok == token.CONTINUE
}

// sortedAfter reports whether obj is passed to a sort call after pos within
// the function body.
func sortedAfter(pass *lint.Pass, fn *funcBody, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}

var sortFuncs = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

func isSortCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return false
	}
	names, ok := sortFuncs[pn.Imported().Path()]
	return ok && names[sel.Sel.Name]
}

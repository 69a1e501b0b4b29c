// Package versiondominance forbids comparing version vectors by their sums.
//
// Invariant encoded: a shard group's state is a version VECTOR (one counter
// per shard), and "newer" is componentwise dominance, not a larger total.
// PR 5's exact-joiner cache advanced whenever sum(next) > sum(prev) — but
// sums alias across concurrent captures ((4,2) and (3,3) both sum to 6), so
// a cache built at (4,2) could masquerade as (3,3) and serve answers from a
// different shard interleaving. The fix deleted sumVersions and compares
// through versionsAdvance / versionPairAdvances. This analyzer keeps it
// deleted: folding a version vector into a scalar with += and then
// comparing (or returning) that scalar is flagged everywhere except inside
// the whitelisted dominance helpers.
package versiondominance

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"lshjoin/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "versiondominance",
	Doc: "version vectors compare by componentwise dominance, never by arithmetic " +
		"folds: sums alias across concurrent captures (PR 5 exact-joiner cache bug)",
	Run: run,
}

// whitelist names the componentwise helpers allowed to reduce version
// vectors: core.VersionsDominate, the one element-by-element comparison, and
// the two advance rules built on it (the root package's versionsAdvance and
// core's versionPairAdvances). None of them actually folds.
var whitelist = map[string]bool{
	"VersionsDominate":    true,
	"versionsAdvance":     true,
	"versionPairAdvances": true,
}

// versionName matches identifiers that carry version vectors.
var versionName = regexp.MustCompile(`(?i)ver(s|sion)`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || whitelist[fd.Name.Name] {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// rangeVars maps a range value variable to the version vector it walks:
	// for _, v := range versions { ... }.
	rangeVars := map[*types.Var]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || rs.Value == nil || !isVersionVector(pass, rs.X) {
			return true
		}
		if id, ok := rs.Value.(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				rangeVars[v] = true
			}
		}
		return true
	})

	// folds maps accumulator variables to the position of the fold that
	// filled them from a version vector.
	folds := map[*types.Var]token.Pos{}
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		acc := objOf(pass, id)
		if acc == nil {
			return true
		}
		rhs := as.Rhs[0]
		if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
			// s = s + vers[i] — only additive self-assignments count.
			be, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
			if !ok || be.Op != token.ADD {
				return true
			}
			if !mentionsObj(pass, be.X, acc) && !mentionsObj(pass, be.Y, acc) {
				return true
			}
			rhs = be.Y
			if mentionsObj(pass, be.Y, acc) {
				rhs = be.X
			}
		} else if as.Tok != token.ADD_ASSIGN {
			return true
		}
		if foldsVersionElement(pass, rhs, rangeVars) {
			folds[acc] = as.Pos()
		}
		return true
	})
	if len(folds) == 0 {
		return
	}

	// Any comparison or return of a folded accumulator loses dominance.
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				for acc := range folds {
					if mentionsObj(pass, n.X, acc) || mentionsObj(pass, n.Y, acc) {
						pass.Reportf(n.OpPos,
							"comparing summed version vector %s: sums alias across concurrent captures ((4,2) vs (3,3)) — compare componentwise via versionsAdvance/versionPairAdvances",
							acc.Name())
						return true
					}
				}
			}
		case *ast.ReturnStmt:
			// Only a bare accumulator counts here; comparisons inside the
			// return expression are caught by the BinaryExpr case above.
			for _, res := range n.Results {
				id, ok := ast.Unparen(res).(*ast.Ident)
				if !ok {
					continue
				}
				acc := objOf(pass, id)
				if _, folded := folds[acc]; folded {
					pass.Reportf(n.Return,
						"returning summed version vector %s: the sum discards componentwise ordering — expose the vector and compare via versionsAdvance",
						acc.Name())
					return true
				}
			}
		}
		return true
	})
}

// foldsVersionElement reports whether e reads one element of a version
// vector: vers[i], or a range value variable over one.
func foldsVersionElement(pass *analysis.Pass, e ast.Expr, rangeVars map[*types.Var]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		return isVersionVector(pass, e.X)
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[e].(*types.Var)
		return ok && rangeVars[v]
	}
	return false
}

// isVersionVector reports whether e is an integer slice whose name says
// "version": vers, versions, shardVersions, c.joinerVers, ShardVersions().
func isVersionVector(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return false
	}
	return versionName.MatchString(nameOf(e))
}

// nameOf extracts the human name of an expression's rightmost component.
func nameOf(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.CallExpr:
		return nameOf(e.Fun)
	case *ast.IndexExpr:
		return nameOf(e.X)
	}
	return ""
}

// objOf resolves an identifier wherever it is defined or used.
func objOf(pass *analysis.Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// mentionsObj reports whether the expression references the variable.
func mentionsObj(pass *analysis.Pass, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(pass, id) == v {
			found = true
		}
		return !found
	})
	return found
}

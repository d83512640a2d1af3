// Package sema implements semantic analysis for Modula-2+: constant
// expression evaluation, type denotation resolution and the declaration
// analyzer that the Parser/Declarations-Analyzer tasks run.
//
// Name resolution follows the concurrent compiler's rules (§2.2 of the
// paper): the current scope is searched with strict declare-before-use,
// while every other scope is effectively searched *as completed* —
// whichever DKY strategy is active, a search that reaches another
// stream's table either finds the final entry or waits for the table to
// complete, so the result is schedule- and strategy-independent.  The
// sequential compiler (internal/seq) orders its work to produce exactly
// the same resolutions, which is what the differential tests rely on.
package sema

import (
	"fmt"

	"m2cc/internal/ast"
	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/symtab"
	"m2cc/internal/token"
	"m2cc/internal/types"
	"m2cc/internal/vm"
)

// Env is the per-task analysis context shared by declaration analysis,
// constant evaluation and code generation.
type Env struct {
	Tab    *symtab.Table
	Search symtab.Searcher
	Ctx    *ctrace.TaskCtx
	Diags  *diag.Bag
	File   string
	Reg    *vm.Registry
}

// Errorf reports an error at pos in this task's file.
func (e *Env) Errorf(pos token.Pos, format string, args ...any) {
	e.Diags.Errorf(e.File, pos, format, args...)
}

// Warnf reports a warning at pos in this task's file.
func (e *Env) Warnf(pos token.Pos, format string, args ...any) {
	e.Diags.Warnf(e.File, pos, format, args...)
}

// Insert publishes sym into scope with this task's context.
func (e *Env) Insert(scope *symtab.Scope, sym *symtab.Symbol) bool {
	return scope.Insert(e.Ctx, e.Errorf, sym)
}

// ResolveQualident resolves a (possibly qualified) identifier to a
// symbol, handling module qualification: "M.x" looks up M, then x in
// M's interface scope.  Longer chains re-qualify step by step (a module
// re-exporting a module name is not supported, so chains longer than
// two parts are errors unless each prefix resolves to a module).
// Returns nil after reporting an error.
func (e *Env) ResolveQualident(scope *symtab.Scope, q *ast.Qualident, withs []symtab.WithBinding) *symtab.Symbol {
	head := q.Parts[0]
	res := e.Search.Lookup(scope, head.Text, withs)
	if !res.Found() {
		if res.DeepAlias {
			e.Errorf(head.Pos, "import chain for %s is cyclic or too deep (more than %d re-export links)", head.Text, symtab.MaxAliasDepth)
		} else {
			e.Errorf(head.Pos, "undeclared identifier %s", head.Text)
		}
		return nil
	}
	if res.Field != nil {
		e.Errorf(head.Pos, "%s is a record field, not a qualifier", head.Text)
		return nil
	}
	sym := res.Sym
	for _, part := range q.Parts[1:] {
		if sym.Kind != symtab.KModule {
			e.Errorf(part.Pos, "%s is not a module; cannot qualify with .%s", sym.Name, part.Text)
			return nil
		}
		qres := e.Search.QualifiedLookup(sym.IfaceScope, part.Text)
		if qres.Sym == nil {
			if qres.DeepAlias {
				e.Errorf(part.Pos, "import chain for %s.%s is cyclic or too deep (more than %d re-export links)", sym.Name, part.Text, symtab.MaxAliasDepth)
			} else {
				e.Errorf(part.Pos, "%s is not declared in module %s", part.Text, sym.Name)
			}
			return nil
		}
		sym = qres.Sym
	}
	return sym
}

// ResolveTypeName resolves a qualident that must denote a type.
func (e *Env) ResolveTypeName(scope *symtab.Scope, q *ast.Qualident) *types.Type {
	sym := e.ResolveQualident(scope, q, nil)
	if sym == nil {
		return types.Bad
	}
	if sym.Kind != symtab.KType {
		e.Errorf(q.Pos(), "%s is a %s, not a type", q, sym.Kind)
		return types.Bad
	}
	return sym.Type
}

// TypeErrorf reports a type mismatch with a uniform phrasing so the
// sequential and concurrent compilers produce identical messages.
func (e *Env) TypeErrorf(pos token.Pos, what string, got, want *types.Type) {
	e.Errorf(pos, "%s: have %s, want %s", what, got, want)
}

// CheckAssignable reports an error unless src may be assigned to dst.
func (e *Env) CheckAssignable(pos token.Pos, dst, src *types.Type) {
	if !types.Assignable(dst, src) {
		e.Errorf(pos, "incompatible assignment: %s := %s", dst, src)
	}
}

// ExcName builds the deterministic fully qualified exception name used
// for cross-object unification (scope path + declared name).
func ExcName(scopePath, name string) string {
	return fmt.Sprintf("%s:%s", scopePath, name)
}

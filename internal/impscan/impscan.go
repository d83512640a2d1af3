// Package impscan implements the Importer task: a shallow scan of a
// token stream for IMPORT declarations (§3).
//
// The importer runs concurrently with the stream's parser, reading the
// same token queue through its own cursor.  Every module name it finds
// is reported immediately, so definition-module streams start as early
// as possible; a compilation-wide once-only table (owned by the driver)
// guarantees each interface is processed exactly once no matter how
// many import paths reach it.
//
// The same prologue scan, run over a .def's text, drives Closures: the
// transitive import-closure hashing both compilation caches key on.
package impscan

import (
	"m2cc/internal/ctrace"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

// Run scans the stream for "FROM M IMPORT ..." and "IMPORT M, N;"
// declarations, invoking onImport for each imported module name.  The
// scan stops at the first declaration keyword: imports only appear in
// the module prologue.
func Run(ctx *ctrace.TaskCtx, in *tokq.Reader, onImport func(name string, pos token.Pos)) {
	for {
		t := in.Next()
		ctx.Add(ctrace.CostScanToken)
		switch t.Kind {
		case token.FROM:
			id := in.Next()
			ctx.Add(ctrace.CostScanToken)
			if id.Kind == token.Ident {
				onImport(id.Text, id.Pos)
			}
			skipToSemicolon(ctx, in)

		case token.IMPORT:
			// Plain import list: every identifier up to ";" is a module.
			for {
				id := in.Next()
				ctx.Add(ctrace.CostScanToken)
				if id.Kind == token.Ident {
					onImport(id.Text, id.Pos)
					continue
				}
				if id.Kind == token.Comma {
					continue
				}
				break // ";" or anything unexpected
			}

		case token.CONST, token.TYPE, token.VAR, token.PROCEDURE,
			token.EXCEPTION, token.BEGIN, token.END, token.EOF:
			return
		}
	}
}

// Names runs the same prologue automaton over an already-lexed token
// slice and returns the imported module names in order of appearance
// (duplicates preserved).  The interface cache uses it to discover a
// definition module's direct imports without task machinery.
func Names(toks []token.Token) []string {
	var names []string
	i := 0
	next := func() token.Token {
		if i >= len(toks) {
			return token.Token{Kind: token.EOF}
		}
		t := toks[i]
		i++
		return t
	}
	for {
		t := next()
		switch t.Kind {
		case token.FROM:
			if id := next(); id.Kind == token.Ident {
				names = append(names, id.Text)
			}
			for {
				t := next()
				if t.Kind == token.Semicolon || t.Kind == token.EOF {
					break
				}
			}

		case token.IMPORT:
			for {
				id := next()
				if id.Kind == token.Ident {
					names = append(names, id.Text)
					continue
				}
				if id.Kind == token.Comma {
					continue
				}
				break
			}

		case token.CONST, token.TYPE, token.VAR, token.PROCEDURE,
			token.EXCEPTION, token.BEGIN, token.END, token.EOF:
			return names
		}
	}
}

func skipToSemicolon(ctx *ctrace.TaskCtx, in *tokq.Reader) {
	for {
		t := in.Next()
		ctx.Add(ctrace.CostScanToken)
		if t.Kind == token.Semicolon || t.Kind == token.EOF {
			return
		}
	}
}

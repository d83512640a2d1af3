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
// The same prologue scan, run over a file's text by the driver's area
// prescan before any task runs (Prescan), is the one place a compilation
// learns a file's imports: the record it leaves on the compilation's
// source.Snapshot drives the transitive import-closure hashing both
// compilation caches key on (Hash, Root), which reads that record and
// scans nothing itself.
package impscan

import (
	"m2cc/internal/ctrace"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

// Run scans the stream for "FROM M IMPORT ..." and "IMPORT M, N;"
// declarations, invoking onImport for each imported module name.  The
// scan stops at the first declaration keyword: imports only appear in
// the module prologue.
func Run(ctx *ctrace.TaskCtx, in *tokq.Reader, onImport func(name string, pos token.Pos)) {
	scan(func() token.Token {
		t := in.Next()
		ctx.Add(ctrace.CostScanToken)
		return t
	}, func(id token.Token) { onImport(id.Text, id.Pos) })
}

// Names runs the same prologue automaton over an already-lexed token
// slice and returns the imported module names in order of appearance
// (duplicates preserved).
func Names(toks []token.Token) (names []string) {
	i := 0
	scan(func() token.Token {
		if i >= len(toks) {
			return token.Token{Kind: token.EOF}
		}
		i++
		return toks[i-1]
	}, func(id token.Token) { names = append(names, id.Text) })
	return names
}

// prologue loads the named file and appends its prologue imports to
// names, as Names would find them, lexing only up to the first
// declaration keyword, a small block at a time.  ok reports a file
// that loads and holds a token.
func prologue(loader source.Loader, name string, kind source.FileKind, names []string) (_ []string, ok bool) {
	text, err := loader.Load(name, kind)
	if err != nil {
		return names, false
	}
	if OnScan != nil {
		OnScan(name, kind)
	}
	var buf [16]token.Token // the real compilation lexes the file again, with diagnostics
	i, n, sc := 0, 0, lexer.NewScanner(text)
	empty := scan(func() token.Token {
		if i == n {
			i, n = 0, sc.Fill(buf[:])
		}
		i++
		return buf[i-1]
	}, func(id token.Token) { names = append(names, id.Text) })
	return names, !empty
}

// scan runs the prologue automaton over next's tokens, handing each
// imported module name's token to onImport; empty reports that the
// first token was EOF.
func scan(next func() token.Token, onImport func(token.Token)) (empty bool) {
	for first := true; ; first = false {
		t := next()
		switch t.Kind {
		case token.FROM:
			if id := next(); id.Kind == token.Ident {
				onImport(id)
			}
			for t.Kind != token.Semicolon && t.Kind != token.EOF {
				t = next()
			}

		case token.IMPORT:
			// Plain import list: every identifier up to ";" is a module.
			for id := next(); id.Kind == token.Ident || id.Kind == token.Comma; id = next() {
				if id.Kind == token.Ident {
					onImport(id)
				}
			}

		case token.CONST, token.TYPE, token.VAR, token.PROCEDURE,
			token.EXCEPTION, token.BEGIN, token.END, token.EOF:
			return first && t.Kind == token.EOF
		}
	}
}

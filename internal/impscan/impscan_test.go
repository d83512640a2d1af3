package impscan_test

import (
	"reflect"
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/impscan"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

func importsOf(t *testing.T, src string) []string {
	t.Helper()
	files := source.NewSet()
	f := files.Add("T", source.Impl, src)
	q := tokq.New(8)
	lexer.Run(f, &ctrace.TaskCtx{}, diag.NewBag(0), q)
	var got []string
	impscan.Run(&ctrace.TaskCtx{}, q.NewReader(nil), func(name string, pos token.Pos) {
		got = append(got, name)
	})
	return got
}

func TestPlainImportList(t *testing.T) {
	got := importsOf(t, "MODULE M;\nIMPORT A, B, C;\nBEGIN END M.")
	if !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Fatalf("got %v", got)
	}
}

func TestFromImportReportsOnlyTheModule(t *testing.T) {
	got := importsOf(t, "MODULE M;\nFROM Lib IMPORT x, y, z;\nBEGIN END M.")
	if !reflect.DeepEqual(got, []string{"Lib"}) {
		t.Fatalf("FROM must report the module, not the names: %v", got)
	}
}

func TestMixedImports(t *testing.T) {
	got := importsOf(t, `
DEFINITION MODULE M;
IMPORT A;
FROM B IMPORT b1, b2;
IMPORT C, D;
END M.`)
	if !reflect.DeepEqual(got, []string{"A", "B", "C", "D"}) {
		t.Fatalf("got %v", got)
	}
}

func TestScanStopsAtDeclarations(t *testing.T) {
	// IMPORT-shaped text after the declaration section must not count;
	// imports only appear in the prologue, and the scanner stops early.
	got := importsOf(t, `
MODULE M;
IMPORT A;
CONST c = 1;
VAR v: INTEGER;
BEGIN
END M.`)
	if !reflect.DeepEqual(got, []string{"A"}) {
		t.Fatalf("got %v", got)
	}
}

func TestNoImports(t *testing.T) {
	if got := importsOf(t, "MODULE M;\nBEGIN END M."); len(got) != 0 {
		t.Fatalf("got %v, want none", got)
	}
}

func TestEmptyStream(t *testing.T) {
	q := tokq.New(4)
	q.Append(token.Token{Kind: token.EOF})
	q.Close()
	called := false
	impscan.Run(&ctrace.TaskCtx{}, q.NewReader(nil), func(string, token.Pos) { called = true })
	if called {
		t.Fatal("empty stream must report nothing")
	}
}

package splitter_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"m2cc/internal/ctrace"
	"m2cc/internal/diag"
	"m2cc/internal/lexer"
	"m2cc/internal/source"
	"m2cc/internal/splitter"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

// splitResult is everything one splitter run produces, keyed so two
// runs over the same input are directly comparable: stream IDs are
// assigned by the single splitter goroutine in input order, so they
// are deterministic however the pipeline is scheduled.
type splitResult struct {
	main    []token.Token
	streams map[int32][]token.Token
	names   map[int32]string
	parents map[int32]int32
}

// runSplit lexes src and splits it, every queue at the given block
// size.  With concurrent=true the lexer feeds the splitter from another
// goroutine and every queue is drained while being written — the
// production shape; otherwise each stage runs to completion before the
// next starts — the oracle.
func runSplit(src string, blockSize int, copyHeadings, concurrent bool) splitResult {
	files := source.NewSet()
	f := files.Add("T", source.Impl, src)
	in := tokq.New(blockSize)

	res := splitResult{
		streams: make(map[int32][]token.Token),
		names:   make(map[int32]string),
		parents: make(map[int32]int32),
	}
	var mu sync.Mutex // guards: res maps and drain bookkeeping during the concurrent run
	var wg sync.WaitGroup
	drain := func(id int32, q *tokq.Queue) {
		defer wg.Done()
		r := q.NewReader(nil)
		var out []token.Token
		for {
			tok := r.Next()
			if tok.Kind == token.EOF {
				break
			}
			out = append(out, tok)
		}
		mu.Lock()
		if id >= 0 {
			res.streams[id] = out
		} else {
			res.main = out
		}
		mu.Unlock()
	}

	mainQ := tokq.New(blockSize)
	queues := make(map[int32]*tokq.Queue) // sequential mode: drained after the splitter finishes
	next := int32(0)
	start := func(name string, pos token.Pos, parent int32) (int32, *tokq.Queue) {
		next++
		q := tokq.New(blockSize)
		mu.Lock()
		res.names[next] = name
		res.parents[next] = parent
		mu.Unlock()
		if concurrent {
			wg.Add(1)
			go drain(next, q)
		} else {
			queues[next] = q
		}
		return next, q
	}

	runLexer := func() { lexer.Run(f, &ctrace.TaskCtx{}, diag.NewBag(0), in) }
	if concurrent {
		go runLexer()
		wg.Add(1)
		go drain(-1, mainQ)
		splitter.Run(&ctrace.TaskCtx{}, in.NewReader(nil), mainQ, start, copyHeadings)
	} else {
		runLexer()
		splitter.Run(&ctrace.TaskCtx{}, in.NewReader(nil), mainQ, start, copyHeadings)
		wg.Add(1)
		drain(-1, mainQ)
		for id, q := range queues {
			wg.Add(1)
			drain(id, q)
		}
	}
	wg.Wait()
	return res
}

// FuzzSplitterEndMatch fuzzes the stream splitter with arbitrary
// source text — truncated procedures, mismatched END names, nesting
// that never closes.  Two invariants, per §2.2 of the paper:
//
//  1. the splitter never panics, whatever the lexer feeds it, and
//  2. the fully concurrent pipeline (lexer feeding the splitter while
//     every stream is drained in parallel), at a block size drawn from
//     the input, produces exactly the streams the stage-at-a-time
//     oracle produces at its fixed block size: same main stream, same
//     per-procedure token streams, names, and parent links — so the
//     PROCEDURE-Ident and END-name lookahead holds wherever the block
//     boundaries fall.
//
// Seeds come from examples/modules plus hand-written END pathologies;
// the checked-in corpus lives in testdata/fuzz/FuzzSplitterEndMatch.
func FuzzSplitterEndMatch(f *testing.F) {
	for _, name := range []string{
		"Demo.mod", "Fib.def", "Fib.mod", "Shapes.def", "Shapes.mod",
		"LintClean.mod", "LintFindings.mod",
	} {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "modules", name))
		if err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		f.Add(string(b))
	}
	f.Add("MODULE M;\nPROCEDURE P;\nBEGIN\nEND Q;\nEND M.\n")     // END name mismatch
	f.Add("MODULE M;\nPROCEDURE P;\n  PROCEDURE Q;\nBEGIN END")   // truncated nest
	f.Add("PROCEDURE")                                            // heading cut mid-air
	f.Add("MODULE M;\nPROCEDURE P(a: INTEGER;\nEND END END M.\n") // unbalanced ENDs
	f.Add("END END END")                                          // ENDs with no openings
	f.Add("MODULE M;\nVAR s: ARRAY [0..9] OF CHAR;\nBEGIN s := \"unterminated\nEND M.\n")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		sum := 0
		for i := 0; i < len(src); i++ {
			sum += int(src[i])
		}
		blockSize := []int{1, 2, 3, 7, tokq.DefaultBlockSize}[sum%5]
		for _, copyHeadings := range []bool{false, true} {
			seq := runSplit(src, 4, copyHeadings, false)
			con := runSplit(src, blockSize, copyHeadings, true)
			if !reflect.DeepEqual(seq.main, con.main) {
				t.Fatalf("copyHeadings=%v: main stream differs between sequential and concurrent split", copyHeadings)
			}
			if !reflect.DeepEqual(seq.names, con.names) || !reflect.DeepEqual(seq.parents, con.parents) {
				t.Fatalf("copyHeadings=%v: stream naming/parentage differs:\nseq: %v %v\ncon: %v %v",
					copyHeadings, seq.names, seq.parents, con.names, con.parents)
			}
			if !reflect.DeepEqual(seq.streams, con.streams) {
				t.Fatalf("copyHeadings=%v: procedure streams differ between sequential and concurrent split", copyHeadings)
			}
		}
	})
}

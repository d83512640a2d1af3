// Package splitter implements the Splitter task: the finite-state
// recognizer of §2.1 that divides the implementation module's token
// stream into separately compilable procedure streams.
//
// Because Modula-2+ fixes program structure with reserved words, the
// splitter needs no parsing: it watches for PROCEDURE followed by an
// identifier (one token of lookahead distinguishes procedure
// declarations from procedure types), routes the heading to the parent
// stream, diverts the body tokens — tracking END-matching depth — to a
// freshly started child stream, and leaves a BodyRef marker where the
// body used to be.  Procedure nesting works by keeping a stack of
// output streams.
package splitter

import (
	"strconv"

	"m2cc/internal/ctrace"
	"m2cc/internal/parser"
	"m2cc/internal/token"
	"m2cc/internal/tokq"
)

// StartProc is the driver callback invoked when the splitter detects a
// procedure declaration.  parent is the stream the declaration appears
// in (0 = the main module stream).  It returns the new stream's number
// and its token queue.
type StartProc func(name string, pos token.Pos, parent int32) (int32, *tokq.Queue)

// Sink observes the token traffic of a split, stream by stream, from
// the splitter task's own goroutine (no synchronization needed by
// implementations).  The stream cache's keyer implements it to hash
// exactly what each stream's parser will see: StartStream announces a
// new stream under its parent, Heading delivers the heading tokens of
// a procedure stream (always, in both header modes, so heading layout
// is part of the key even when only the parent parses it), Tokens
// mirrors each run of tokens appended to a stream's queue, EndStream
// marks a stream's queue closed, and Done marks the split complete — a
// split that panics never calls Done, leaving the observer incomplete.
// Token slices are only valid during the call.
type Sink interface {
	StartStream(id, parent int32, name string)
	Heading(id int32, toks []token.Token)
	Tokens(id int32, toks []token.Token)
	EndStream(id int32)
	Done()
}

// output is one entry of the splitter's stream stack.
type output struct {
	stream int32
	q      *tokq.Queue
	depth  int // outstanding ENDs within this procedure body
}

// Run splits the token stream arriving on in.  Tokens outside procedure
// bodies flow to mainOut; each procedure body flows to its own stream.
// copyHeadings selects §2.4 alternative 3: the heading tokens are
// duplicated into the child stream so the child can process its own
// heading (the default, alternative 1, gives the heading only to the
// parent, which copies the resulting symbol table entries).
//
// Run fires all queue events with the splitter task's context and is
// careful to close every stream even for malformed input, so no
// consumer can wait forever.
func Run(ctx *ctrace.TaskCtx, in *tokq.Reader, mainOut *tokq.Queue, start StartProc, copyHeadings bool) {
	RunObserved(ctx, in, mainOut, start, copyHeadings, nil)
}

// split is the state of one splitter run.
type split struct {
	ctx   *ctrace.TaskCtx
	in    *tokq.Reader
	sink  Sink      // nil = unobserved
	stack []*output // stack[0] is the main stream
	one   [1]token.Token
	head  []token.Token // collectHeading's buffer, reused: every taker copies
}

// forward appends toks to o's queue, block by block, and mirrors them to
// the sink as one run.  Tokens taken off the input just now are charged
// here, per block segment and before the segment is published, so a
// block that fills is stamped with exactly the work that produced it;
// tokens charged on collection (headings) or made up by the splitter
// (BodyRef, EOF) pass charge=false.
func (s *split) forward(o *output, toks []token.Token, charge bool) {
	for rest := toks; len(rest) > 0; {
		slots := o.q.Slots()
		if slots == nil {
			break // closed under us: dropped, as Append would
		}
		n := copy(slots, rest)
		if charge {
			s.ctx.Add(float64(n) * ctrace.CostSplitToken)
		}
		o.q.Publish(n)
		rest = rest[n:]
	}
	if s.sink != nil {
		s.sink.Tokens(o.stream, toks)
	}
}

// emit forwards one already-charged or synthetic token.
func (s *split) emit(o *output, t token.Token) {
	s.one[0] = t
	s.forward(o, s.one[:], false)
}

// next consumes (waits for, then charges) one input token.
func (s *split) next() token.Token {
	t := s.in.Next()
	s.ctx.Add(ctrace.CostSplitToken)
	return t
}

// RunObserved is Run with an optional Sink mirroring the split's token
// traffic (nil = unobserved).  The sink is invoked synchronously from
// the splitter goroutine, in exactly the order tokens are appended.
//
// The input is taken a block at a time (Reader.Run).  Within a run only
// three things end the stretch of tokens that is forwarded whole to the
// current stream: a procedure declaration, the END that closes the
// current procedure, and EOF; END-depth counting happens in passing.
// Those three are then handled a token at a time through Next/Peek, so
// their lookahead crosses block boundaries at any block size.
func RunObserved(ctx *ctrace.TaskCtx, in *tokq.Reader, mainOut *tokq.Queue, start StartProc, copyHeadings bool, sink Sink) {
	mainOut.SetFireHook(ctx.FireEvent)
	s := &split{ctx: ctx, in: in, sink: sink, stack: []*output{{stream: 0, q: mainOut}}}
	if sink != nil {
		sink.StartStream(0, -1, "")
	}
	for {
		cur := s.stack[len(s.stack)-1]
		nested := len(s.stack) > 1
		run := in.Run()
		i := 0
	scan:
		for ; i < len(run); i++ {
			switch k := run[i].Kind; {
			case k == token.EOF:
				break scan
			case k < token.AND: // not a reserved word: nothing to see
			case k == token.PROCEDURE:
				// One token of lookahead tells a declaration from a
				// procedure type; at the run's edge, look the slow way.
				if i+1 == len(run) || run[i+1].Kind == token.Ident {
					break scan
				}
			case !nested:
			case k == token.END:
				if cur.depth == 1 {
					break scan
				}
				cur.depth--
			case k.OpensEnd():
				cur.depth++
			}
		}
		if i > 0 {
			s.forward(cur, run[:i], true)
			in.Skip(i)
			continue
		}

		switch t := s.next(); {
		case t.Kind == token.EOF:
			// Close every open stream (defensively appending EOF) so
			// consumers always terminate.
			for i := len(s.stack) - 1; i >= 0; i-- {
				s.closeStream(s.stack[i], t)
			}
			if sink != nil {
				sink.Done()
			}
			return

		case t.Kind == token.PROCEDURE && in.Peek().Kind == token.Ident:
			// A procedure declaration: stream off the body.
			name := in.Peek().Text
			heading := s.collectHeading(t)
			s.forward(cur, heading, false)
			if len(s.stack) > parser.MaxProcNesting {
				// Too deep: the body is dropped, and a BodyRef without a
				// stream number tells the parser to report it.
				s.emit(cur, token.Token{Kind: token.BodyRef, Pos: t.Pos})
				s.drop()
				continue
			}
			stream, q := start(name, t.Pos, cur.stream)
			q.SetFireHook(ctx.FireEvent)
			if sink != nil {
				sink.StartStream(stream, cur.stream, name)
				sink.Heading(stream, heading)
			}
			s.emit(cur, token.Token{
				Kind: token.BodyRef, Pos: t.Pos, Text: strconv.Itoa(int(stream)),
			})
			// Let the parent's parser see the heading (and fire the
			// child's heading event) without waiting for a full block.
			cur.q.Flush()
			child := &output{stream: stream, q: q, depth: 1}
			if copyHeadings {
				s.forward(child, heading, false)
			}
			s.stack = append(s.stack, child)

		case t.Kind == token.END && nested:
			// The scan only stops at the END that closes this procedure.
			// "END name": the name goes to the child, the following ";"
			// flows to the parent normally.  After a nameless END the
			// child gets a copy of the next token, which still flows to
			// the parent: its parser reports the missing name there, as
			// the inline parse does.
			s.emit(cur, t)
			if next := in.Peek(); next.Kind == token.Ident {
				s.emit(cur, s.next())
			} else {
				s.emit(cur, next)
			}
			s.closeStream(cur, token.Token{Kind: token.EOF, Pos: t.Pos})
			s.stack = s.stack[:len(s.stack)-1]

		default: // a PROCEDURE type at a block's edge
			s.emit(cur, t)
		}
	}
}

// drop consumes a procedure body up to the END that closes it, by the
// parser's END matching (Parser.skipBlock), and the name after that END.
func (s *split) drop() {
	for depth := 1; depth > 0 && s.in.Peek().Kind != token.EOF; {
		switch t := s.next(); {
		case t.Kind == token.END:
			depth--
		case t.Kind.OpensEnd(), t.Kind == token.PROCEDURE && s.in.Peek().Kind == token.Ident:
			depth++
		}
	}
	if s.in.Peek().Kind == token.Ident {
		s.next()
	}
}

// closeStream ends o's stream with eof.
func (s *split) closeStream(o *output, eof token.Token) {
	s.emit(o, eof)
	o.q.Close()
	if s.sink != nil {
		s.sink.EndStream(o.stream)
	}
}

// collectHeading consumes and returns the tokens of a procedure heading
// "PROCEDURE name [ ( params ) ] [ : qualident ] ;", starting from the
// already-consumed PROCEDURE token.  The slice is good until the next
// heading.
func (s *split) collectHeading(proc token.Token) []token.Token {
	s.head = append(s.head[:0], proc)
	parens := 0
	for {
		t := s.next()
		s.head = append(s.head, t)
		switch t.Kind {
		case token.LParen:
			parens++
		case token.RParen:
			parens--
		case token.Semicolon:
			if parens <= 0 {
				return s.head
			}
		case token.EOF:
			return s.head
		}
	}
}

// Package diag collects compiler diagnostics.
//
// In a concurrent compilation, errors are produced by many tasks in a
// nondeterministic order.  Each stream appends to a shared Bag; at the
// end of compilation the bag is sorted by source position so the user
// (and the differential tests against the sequential compiler) see a
// stable report regardless of schedule.
package diag

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"m2cc/internal/token"
)

// Severity of a diagnostic.
type Severity uint8

const (
	// Error marks a diagnostic that makes the compilation fail.
	Error Severity = iota
	// Warning marks a diagnostic that does not fail the compilation.
	Warning
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one message anchored at a source position.  File carries
// the human-readable file label (e.g. "Sort.mod") so messages are
// self-contained after streams are merged.  End, when valid, extends the
// anchor to a full line+column span; a zero End means "point diagnostic"
// and renders exactly as before spans existed.  Code, when set, names
// the finding family (e.g. "uninit", "conc-deadlock") — the stable key
// m2c's -enable/-disable lint filters and the daemon's per-family counts
// select on; compiler errors carry no code and render unchanged.
type Diagnostic struct {
	Sev  Severity
	Pos  token.Pos
	End  token.Pos // exclusive end of the span; zero = point diagnostic
	File string
	Msg  string
	Code string // finding family, "" for plain compiler diagnostics
}

func (d Diagnostic) String() string {
	loc := d.Pos.String()
	if d.End.IsValid() && d.End != d.Pos {
		loc = fmt.Sprintf("%s-%s", d.Pos, d.End)
	}
	msg := d.Msg
	if d.Code != "" {
		msg = fmt.Sprintf("%s [%s]", d.Msg, d.Code)
	}
	if d.File == "" {
		return fmt.Sprintf("%s: %s: %s", loc, d.Sev, msg)
	}
	return fmt.Sprintf("%s:%s: %s: %s", d.File, loc, d.Sev, msg)
}

// Bag accumulates diagnostics from concurrent tasks.  The zero value is
// ready to use.
type Bag struct {
	mu     sync.Mutex // guards: diags, errors
	diags  []Diagnostic
	errors int
	limit  int  // 0 = unlimited
	fwd    *Bag // tee target: every add is also forwarded (see Child)
}

// NewBag returns a Bag that stops recording after limit errors
// (0 = unlimited).  The error count keeps increasing past the limit so
// HasErrors stays accurate.
func NewBag(limit int) *Bag { return &Bag{limit: limit} }

// Child returns a tee bag: every diagnostic added to it is recorded
// locally (unlimited) and forwarded to b, so global behavior — error
// counts, the recording limit, the final sorted report — is unchanged
// while the child keeps an isolated per-stream transcript.  The stream
// cache records each procedure stream's diagnostics this way so a
// cached stream can replay them verbatim on a later compilation.
func (b *Bag) Child() *Bag { return &Bag{fwd: b} }

// Recorded returns a snapshot of the diagnostics recorded in this bag,
// in insertion order (the stream cache's payload capture; callers
// wanting the user-facing report use Sorted).  A nil bag has recorded
// nothing.
func (b *Bag) Recorded() []Diagnostic {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Diagnostic(nil), b.diags...)
}

// Errorf records an error at pos in the given file.
func (b *Bag) Errorf(file string, pos token.Pos, format string, args ...any) {
	b.add(Diagnostic{Sev: Error, Pos: pos, File: file, Msg: fmt.Sprintf(format, args...)})
}

// Warnf records a warning at pos in the given file.
func (b *Bag) Warnf(file string, pos token.Pos, format string, args ...any) {
	b.add(Diagnostic{Sev: Warning, Pos: pos, File: file, Msg: fmt.Sprintf(format, args...)})
}

// Add records a fully-formed diagnostic (used by producers that carry
// end positions, e.g. the static-analysis checker).
func (b *Bag) Add(d Diagnostic) { b.add(d) }

func (b *Bag) add(d Diagnostic) {
	b.mu.Lock()
	if d.Sev == Error {
		b.errors++
		if b.limit > 0 && b.errors > b.limit {
			b.mu.Unlock()
			if b.fwd != nil {
				b.fwd.add(d)
			}
			return
		}
	}
	b.diags = append(b.diags, d)
	fwd := b.fwd
	b.mu.Unlock()
	if fwd != nil {
		fwd.add(d)
	}
}

// HasErrors reports whether at least one error has been recorded.
func (b *Bag) HasErrors() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.errors > 0
}

// HasFor reports whether any error has been recorded against the given
// file label.  The interface cache uses it to publish only cleanly
// compiled definition modules.
func (b *Bag) HasFor(file string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range b.diags {
		if d.Sev == Error && d.File == file {
			return true
		}
	}
	return false
}

// ErrorCount returns the number of errors recorded (including any past
// the recording limit).
func (b *Bag) ErrorCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.errors
}

// Sorted returns all diagnostics ordered by (file, position, end,
// severity, message), with exact duplicates collapsed to one.  The
// ordering is total and the dedup deterministic, so concurrent and
// sequential compilations of the same program produce identical reports
// even when two streams independently report the same fact.
func (b *Bag) Sorted() []Diagnostic {
	b.mu.Lock()
	out := make([]Diagnostic, len(b.diags))
	copy(out, b.diags)
	b.mu.Unlock()
	return SortDedup(out)
}

// SortDedup sorts ds in place by (file, position, end, severity,
// message, code) and removes exact duplicates, returning the trimmed
// slice.
func SortDedup(ds []Diagnostic) []Diagnostic {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].File != ds[j].File {
			return ds[i].File < ds[j].File
		}
		if ds[i].Pos != ds[j].Pos {
			return ds[i].Pos.Before(ds[j].Pos)
		}
		if ds[i].End != ds[j].End {
			return ds[i].End.Before(ds[j].End)
		}
		if ds[i].Sev != ds[j].Sev {
			return ds[i].Sev < ds[j].Sev
		}
		if ds[i].Msg != ds[j].Msg {
			return ds[i].Msg < ds[j].Msg
		}
		return ds[i].Code < ds[j].Code
	})
	w := 0
	for i, d := range ds {
		if i > 0 && d == ds[w-1] {
			continue
		}
		ds[w] = d
		w++
	}
	return ds[:w]
}

// String renders the sorted diagnostics one per line.
func (b *Bag) String() string {
	var sb strings.Builder
	for _, d := range b.Sorted() {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

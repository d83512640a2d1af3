package symtab

import (
	"fmt"
	"strings"
	"sync/atomic"

	"m2cc/internal/ctrace"
	"m2cc/internal/event"
	"m2cc/internal/faultinject"
	"m2cc/internal/types"
)

// Strategy selects how symbol search deals with the Doesn't Know Yet
// condition (§2.2).  The constants are ordered as in the paper: by
// decreasing DKY delay, increasing concurrency potential and increasing
// implementation effort.
type Strategy uint8

// DKY strategies.
const (
	// Avoidance delays the start of semantic analysis for a scope until
	// the declaration analysis of its parent scope is complete, so
	// searches never meet an incomplete outer table.  (The gating is
	// done by the driver; if a search still meets an incomplete table —
	// e.g. an indirectly imported interface — it degrades to a
	// Pessimistic wait.)
	Avoidance Strategy = iota
	// Pessimistic blocks on any incomplete table before searching it.
	Pessimistic
	// Skeptical searches the incomplete table first and blocks only if
	// the identifier is not found (Figure 6 — the paper's recommended
	// compromise).
	Skeptical
	// Optimistic blocks on a per-symbol event, waking as soon as the
	// individual entry appears (or the table completes without it).
	Optimistic

	// NumStrategies is the number of DKY strategies.
	NumStrategies
)

var strategyNames = [NumStrategies]string{"avoidance", "pessimistic", "skeptical", "optimistic"}

func (s Strategy) String() string {
	if s < NumStrategies {
		return strategyNames[s]
	}
	return "?"
}

// ParseStrategy converts a name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return Skeptical, fmt.Errorf("unknown DKY strategy %q (want avoidance, pessimistic, skeptical or optimistic)", name)
}

// FoundWhen is the "Found when" column of Table 2.
type FoundWhen uint8

// FoundWhen values.
const (
	// FirstTry: found in the first scope searched.
	FirstTry FoundWhen = iota
	// SearchOut: found while chaining outward through the parentage path.
	SearchOut
	// AfterDKY: found in a scope that was completed after a DKY blockage.
	AfterDKY
	// Never: the identifier was not found anywhere (an error).
	Never
)

func (w FoundWhen) String() string {
	switch w {
	case FirstTry:
		return "First try"
	case SearchOut:
		return "Search"
	case AfterDKY:
		return "After DKY"
	default:
		return "Never"
	}
}

// StatKey is one row coordinate of Table 2.
type StatKey struct {
	Qualified  bool
	When       FoundWhen
	Rel        ctrace.Relation
	Incomplete bool // table state at the successful probe (or first probe for Never)
}

// Outcome classifies how one lookup interacted with the DKY condition
// under its strategy — the measured counterpart of §2.3.3's
// risk/benefit discussion.  Found counts resolved lookups; Blocked
// counts DKY waits actually taken; Guessed counts hits in tables still
// under construction (Skeptical/Optimistic's winning gamble); Retracted
// counts incomplete-table misses that forced a wait plus a second
// search (the gamble's losing side: the first search was wasted work).
type Outcome uint8

// Outcome values.
const (
	OutFound Outcome = iota
	OutBlocked
	OutGuessed
	OutRetracted

	// NumOutcomes is the number of outcome buckets.
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{"found", "blocked", "guessed", "retracted"}

func (o Outcome) String() string {
	if o < NumOutcomes {
		return outcomeNames[o]
	}
	return "?"
}

// numWhen is the number of FoundWhen buckets (Table 2's rows go up to
// Never).
const numWhen = int(Never) + 1

// numStatCells is the dense size of the Table 2 count array:
// Qualified × FoundWhen × Relation × Incomplete.
const numStatCells = 2 * numWhen * int(ctrace.NumRelations) * 2

// cellIndex flattens a StatKey into its dense array slot.  The index
// order (simple before qualified, FoundWhen ascending, Relation
// ascending, complete before incomplete) is exactly Table 2's layout
// order, so Rows can walk the array in place of a sort.
func cellIndex(k StatKey) int {
	i := 0
	if k.Qualified {
		i = 1
	}
	i = i*numWhen + int(k.When)
	i = i*int(ctrace.NumRelations) + int(k.Rel)
	i *= 2
	if k.Incomplete {
		i++
	}
	return i
}

// cellKey is cellIndex's inverse.
func cellKey(i int) StatKey {
	var k StatKey
	k.Incomplete = i%2 == 1
	i /= 2
	k.Rel = ctrace.Relation(i % int(ctrace.NumRelations))
	i /= int(ctrace.NumRelations)
	k.When = FoundWhen(i % numWhen)
	k.Qualified = i/numWhen == 1
	return k
}

// Stats tallies identifier lookups for Table 2 plus aggregate DKY
// blockage counts and a per-strategy outcome histogram.  Safe for
// concurrent use.  Every counter is a dense atomic cell — the StatKey
// coordinate space is tiny and fixed — so the per-lookup instrumented
// path costs two uncontended atomic adds and no lock, whether or not
// anyone is observing.
type Stats struct {
	counts   [numStatCells]atomic.Int64
	outcomes [NumStrategies][NumOutcomes]atomic.Int64

	Blocks  atomic.Int64 // DKY blockages (waits actually taken)
	Lookups atomic.Int64
}

// NewStats returns an empty collector.
func NewStats() *Stats { return &Stats{} }

func (st *Stats) bump(k StatKey) {
	if st == nil {
		return
	}
	// The origin scope, WITH field scopes and the builtin table are
	// never DKY-relevant; Table 2 reports them as complete.
	if k.Rel == ctrace.RelSelf || k.Rel == ctrace.RelWith || k.Rel == ctrace.RelBuiltin {
		k.Incomplete = false
	}
	st.counts[cellIndex(k)].Add(1)
	st.Lookups.Add(1)
}

// Bump adds one lookup outcome (exported for the trace-driven
// simulator, which re-derives Table 2 under any strategy).
func (st *Stats) Bump(k StatKey) { st.bump(k) }

func (st *Stats) block() {
	if st == nil {
		return
	}
	st.Blocks.Add(1)
}

// BumpBlock counts one DKY blockage (exported for the simulator).
func (st *Stats) BumpBlock() { st.block() }

func (st *Stats) bumpOutcome(strat Strategy, o Outcome) {
	if st == nil {
		return
	}
	st.outcomes[strat][o].Add(1)
}

// BumpOutcome adds one entry to the per-strategy outcome histogram
// (exported for the simulator's re-derived statistics).
func (st *Stats) BumpOutcome(strat Strategy, o Outcome) { st.bumpOutcome(strat, o) }

// OutcomeRow is one strategy's lookup-outcome histogram.
type OutcomeRow struct {
	Strategy Strategy
	Counts   [NumOutcomes]int64
}

// OutcomeRows returns the nonzero histogram rows in strategy order.
func (st *Stats) OutcomeRows() []OutcomeRow {
	if st == nil {
		return nil
	}
	var rows []OutcomeRow
	for strat := range st.outcomes {
		row := OutcomeRow{Strategy: Strategy(strat)}
		nonzero := false
		for o := range st.outcomes[strat] {
			if c := st.outcomes[strat][o].Load(); c != 0 {
				row.Counts[o] = c
				nonzero = true
			}
		}
		if nonzero {
			rows = append(rows, row)
		}
	}
	return rows
}

// Totals returns the lookup and DKY-blockage counts (the observability
// layer snapshots through here).
func (st *Stats) Totals() (lookups, blocks int64) {
	if st == nil {
		return 0, 0
	}
	return st.Lookups.Load(), st.Blocks.Load()
}

// Add merges other into st (used to aggregate a whole test suite).
func (st *Stats) Add(other *Stats) {
	if st == nil || other == nil {
		return
	}
	for i := range other.counts {
		if v := other.counts[i].Load(); v != 0 {
			st.counts[i].Add(v)
		}
	}
	for strat := range other.outcomes {
		for o := range other.outcomes[strat] {
			if v := other.outcomes[strat][o].Load(); v != 0 {
				st.outcomes[strat][o].Add(v)
			}
		}
	}
	st.Blocks.Add(other.Blocks.Load())
	st.Lookups.Add(other.Lookups.Load())
}

// Rows returns the nonzero rows in Table 2's layout order (the dense
// array's index order).
func (st *Stats) Rows() []StatRow {
	rows := make([]StatRow, 0, 16)
	var total int64
	for i := range st.counts {
		if v := st.counts[i].Load(); v != 0 {
			rows = append(rows, StatRow{Key: cellKey(i), Count: v})
			total += v
		}
	}
	for i := range rows {
		rows[i].Percent = 100 * float64(rows[i].Count) / float64(max64(total, 1))
	}
	return rows
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// StatRow is one rendered row of Table 2.
type StatRow struct {
	Key     StatKey
	Count   int64
	Percent float64
}

func (r StatRow) String() string {
	comp := "complete"
	if r.Key.Incomplete {
		comp = "incomplete"
	}
	cls := "simple"
	if r.Key.Qualified {
		cls = "qualified"
	}
	if r.Key.When == Never {
		return fmt.Sprintf("%-9s  %-9s  %-7s  %-10s  %8d  %6.2f%%", cls, "Never", "-", "-", r.Count, r.Percent)
	}
	return fmt.Sprintf("%-9s  %-9s  %-7s  %-10s  %8d  %6.2f%%",
		cls, r.Key.When, r.Key.Rel, comp, r.Count, r.Percent)
}

// String renders the whole table.
func (st *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s  %-9s  %-7s  %-10s  %8s  %7s\n", "class", "found", "scope", "state", "number", "%")
	for _, r := range st.Rows() {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "lookups: %d   DKY blockages: %d\n", st.Lookups.Load(), st.Blocks.Load())
	if rows := st.OutcomeRows(); len(rows) > 0 {
		fmt.Fprintf(&sb, "\n%-12s  %8s  %8s  %8s  %9s\n", "strategy", "found", "blocked", "guessed", "retracted")
		for _, r := range rows {
			fmt.Fprintf(&sb, "%-12s  %8d  %8d  %8d  %9d\n", r.Strategy,
				r.Counts[OutFound], r.Counts[OutBlocked], r.Counts[OutGuessed], r.Counts[OutRetracted])
		}
	}
	return sb.String()
}

// WithBinding is one active WITH statement: lookups check the record's
// field scope before the ordinary scope chain.
type WithBinding struct {
	Rec *types.Type
}

// Result is a lookup outcome: either a symbol, or a record field bound
// by an enclosing WITH (WithIndex tells which binding matched).
type Result struct {
	Sym       *Symbol
	Field     *types.Field
	WithIndex int

	// DeepAlias marks a not-found outcome caused by an alias chain
	// longer than the follow limit (a cyclic or absurdly deep
	// re-export); callers should report it as such rather than as a
	// plain undeclared identifier.
	DeepAlias bool
}

// Found reports whether the lookup succeeded.
func (r Result) Found() bool { return r.Sym != nil || r.Field != nil }

// Waiter performs handled-event waits: the scheduler's task is one,
// releasing its worker slot and preferring the resolving task (§2.3.4).
type Waiter interface {
	HandledWait(*event.Event)
}

// NoWait is a Waiter that returns at once, leaving the table incomplete.
var NoWait Waiter = noWait{}

type noWait struct{}

func (noWait) HandledWait(*event.Event) {}

// Searcher performs symbol lookups on behalf of one task.  Wait is its
// waiter; nil waits inline.
type Searcher struct {
	Tab  *Table
	Ctx  *ctrace.TaskCtx
	Wait Waiter

	// hopBuf is the per-Searcher scratch buffer for traced lookups'
	// hop chains; record copies it into the task's trace buffer and
	// recaptures the (possibly grown) buffer.  Searchers are owned by
	// one task, so reuse is race-free.
	hopBuf []ctrace.Hop
}

func (s *Searcher) wait(e *event.Event) bool {
	if e.Fired() {
		// The producer got there first; no blockage is taken (and none
		// is counted — Table 2's DKY numbers are real waits only).
		return false
	}
	s.Tab.Stats.block()
	s.Tab.Stats.bumpOutcome(s.Tab.Strategy, OutBlocked)
	if s.Wait != nil {
		s.Wait.HandledWait(e)
	} else {
		e.Wait()
	}
	return true
}

// tally counts one finished lookup: the Table 2 row plus, for resolved
// lookups, the strategy's outcome histogram.
func (s *Searcher) tally(k StatKey) {
	s.Tab.Stats.bump(k)
	if k.When != Never {
		s.Tab.Stats.bumpOutcome(s.Tab.Strategy, OutFound)
	}
}

// probeResult is the outcome of searching one scope under the current
// strategy.
type probeResult struct {
	sym        *Symbol
	incomplete bool // table state at the successful (or final) probe
	blocked    bool // a DKY wait was taken on this scope
}

// searchScope searches one scope under the table's strategy.  self
// marks the origin scope (owner view, never blocks).  Each strategy
// waits at most once per scope: the completion (or per-symbol) event
// firing is the contract that a re-probe is final, which also lets the
// scheduler's deadlock watchdog force-fire events for erroneous
// programs (cyclic imports) without livelocking searchers.
func (s *Searcher) searchScope(sc *Scope, name string, self bool) probeResult {
	s.Ctx.Add(ctrace.CostLookupHop)
	if self {
		sym, complete := sc.probeOwner(name)
		return probeResult{sym: sym, incomplete: !complete}
	}
	switch s.Tab.Strategy {
	case Skeptical:
		// Figure 6: record the completion state, search, succeed on a
		// hit; otherwise wait for completion if the table was initially
		// incomplete and search once more.
		sym, complete := sc.probe(name)
		if sym != nil || complete {
			if sym != nil && !complete {
				// The skeptic's winning gamble: a hit in a table still
				// under construction, no wait needed.
				s.Tab.Stats.bumpOutcome(s.Tab.Strategy, OutGuessed)
			}
			return probeResult{sym: sym, incomplete: !complete}
		}
		// The losing side: the incomplete-table search missed, so the
		// first pass was wasted work — wait, then search once more.
		s.Tab.Stats.bumpOutcome(s.Tab.Strategy, OutRetracted)
		blocked := s.wait(sc.completion)
		s.Ctx.Add(ctrace.CostLookupHop)
		sym, complete = sc.probe(name)
		return probeResult{sym: sym, incomplete: !complete, blocked: blocked}
	case Optimistic:
		sym, complete, ev := sc.probeOrPlaceholder(name)
		if sym != nil || ev == nil {
			if sym != nil && !complete {
				s.Tab.Stats.bumpOutcome(s.Tab.Strategy, OutGuessed)
			}
			return probeResult{sym: sym, incomplete: !complete}
		}
		blocked := s.wait(ev)
		s.Ctx.Add(ctrace.CostLookupHop)
		sym, complete = sc.probe(name)
		return probeResult{sym: sym, incomplete: !complete, blocked: blocked}
	default:
		// Pessimistic blocks before searching an incomplete table;
		// Avoidance expects completeness by construction and degrades
		// to the same wait when an indirectly imported table is still
		// incomplete.
		blocked := false
		if !sc.Completed() {
			blocked = s.wait(sc.completion)
		}
		sym, complete := sc.probe(name)
		return probeResult{sym: sym, incomplete: !complete, blocked: blocked}
	}
}

// classify derives the FoundWhen bucket.
func classify(first bool, blocked bool) FoundWhen {
	switch {
	case blocked:
		return AfterDKY
	case first:
		return FirstTry
	default:
		return SearchOut
	}
}

// record buffers the lookup's hop chain with the searching task, which
// copies hops (usually the Searcher's scratch buffer), so the buffer is
// reclaimed for the next lookup.
func (s *Searcher) record(qualified bool, at ctrace.Stamp, hops []ctrace.Hop, found bool) {
	if s.Tab.Rec == nil {
		return
	}
	s.Ctx.NoteLookup(qualified, at, hops, found)
	s.hopBuf = hops[:0]
}

// hop builds a trace hop for a scope probe outcome.
func (s *Searcher) hop(sc *Scope, rel ctrace.Relation, pr probeResult) ctrace.Hop {
	h := ctrace.Hop{Scope: sc.ID, Rel: rel, Found: pr.sym != nil}
	if rel != ctrace.RelSelf && rel != ctrace.RelBuiltin {
		if rec := s.Tab.Rec; rec != nil {
			h.Completion = sc.completionID(rec)
		}
	}
	if pr.sym != nil {
		h.Insert = pr.sym.Insert
		if s.Tab.IsPrefired(sc) {
			// Interface-cache hit: the symbol's recorded insertion time
			// belongs to the compilation that built the scope.  In this
			// trace it pre-exists every task, like a builtin.
			h.Insert = ctrace.Stamp{}
		}
	}
	return h
}

// Lookup resolves a simple identifier starting at origin: active WITH
// field scopes innermost-first, then the origin scope itself (with
// pervasive builtins acting as if declared locally, §2.2), then outward
// along the parentage chain, following FROM-import aliases into their
// interface scopes.  A zero Result means not found; the caller reports
// the error.
func (s *Searcher) Lookup(origin *Scope, name string, withs []WithBinding) Result {
	if s.Tab.Inject != nil {
		s.Tab.Inject.Panic(faultinject.PanicLookup, name)
	}
	at := s.Ctx.Stamp()
	hops := s.hopBuf[:0]
	tracing := s.Tab.Rec != nil

	// WITH scopes, innermost first.  Record field maps are built before
	// their types publish, so these probes never block.
	for i := len(withs) - 1; i >= 0; i-- {
		s.Ctx.Add(ctrace.CostLookupHop)
		if f := withs[i].Rec.FieldNamed(name); f != nil {
			s.tally(StatKey{When: FirstTry, Rel: ctrace.RelWith})
			if tracing {
				hops = append(hops, ctrace.Hop{Rel: ctrace.RelWith, Found: true})
				s.record(false, at, hops, true)
			}
			return Result{Field: f, WithIndex: i}
		}
	}

	first := true
	for sc := origin; sc != nil; sc = sc.Parent {
		self := sc == origin
		rel := ctrace.RelOuter
		if self {
			rel = ctrace.RelSelf
		}
		pr := s.searchScope(sc, name, self)
		if tracing {
			hops = append(hops, s.hop(sc, rel, pr))
		}
		if pr.sym != nil {
			if pr.sym.Kind == KAlias {
				return s.followAlias(pr.sym, name, at, hops)
			}
			s.tally(StatKey{When: classify(first, pr.blocked), Rel: rel, Incomplete: pr.incomplete})
			s.record(false, at, hops, true)
			return Result{Sym: pr.sym}
		}
		if self {
			// Builtin names behave as if declared local to every scope.
			s.Ctx.Add(ctrace.CostLookupHop)
			if b := lookupBuiltin(name); b != nil {
				s.tally(StatKey{When: FirstTry, Rel: ctrace.RelBuiltin})
				if tracing {
					hops = append(hops, ctrace.Hop{Rel: ctrace.RelBuiltin, Found: true})
					s.record(false, at, hops, true)
				}
				return Result{Sym: b}
			}
		}
		first = false
	}
	s.tally(StatKey{When: Never})
	s.record(false, at, hops, false)
	return Result{}
}

// MaxAliasDepth bounds how many FROM-import aliases a single lookup
// will chase.  Legal re-export chains are short; anything longer is a
// cycle (A re-exports from B, B from A) or pathological nesting, and
// is reported as a deep-alias error rather than a plain not-found.
const MaxAliasDepth = 8

// followAlias continues a search through a FROM-import alias into its
// interface scope — "some other explicitly designated initial search
// scope" in Table 2's terms.
func (s *Searcher) followAlias(alias *Symbol, name string, at ctrace.Stamp, hops []ctrace.Hop) Result {
	tracing := s.Tab.Rec != nil
	for depth := 0; depth < MaxAliasDepth; depth++ {
		// The alias hop itself is not a hit for the trace: mark the
		// previous hop not-found so the simulator keeps searching.
		if tracing && len(hops) > 0 {
			hops[len(hops)-1].Found = false
		}
		pr := s.searchScope(alias.AliasScope, alias.AliasName, false)
		if tracing {
			hops = append(hops, s.hop(alias.AliasScope, ctrace.RelOther, pr))
		}
		if pr.sym == nil {
			s.tally(StatKey{When: Never})
			s.record(false, at, hops, false)
			return Result{}
		}
		if pr.sym.Kind != KAlias {
			s.tally(StatKey{
				When: classify(true, pr.blocked), Rel: ctrace.RelOther, Incomplete: pr.incomplete,
			})
			s.record(false, at, hops, true)
			return Result{Sym: pr.sym}
		}
		alias = pr.sym
	}
	s.tally(StatKey{When: Never})
	s.record(false, at, hops, false)
	return Result{DeepAlias: true}
}

// QualifiedLookup resolves the member of a qualified identifier M.x in
// the interface scope designated by M.  There is no outward chaining
// and no builtin fallback: qualified names live in exactly one table.
func (s *Searcher) QualifiedLookup(iface *Scope, name string) Result {
	if s.Tab.Inject != nil {
		s.Tab.Inject.Panic(faultinject.PanicLookup, name)
	}
	at := s.Ctx.Stamp()
	tracing := s.Tab.Rec != nil
	hops := s.hopBuf[:0]
	pr := s.searchScope(iface, name, false)
	if tracing {
		hops = append(hops, s.hop(iface, ctrace.RelOther, pr))
	}
	if pr.sym != nil && pr.sym.Kind == KAlias {
		return s.followAliasQualified(pr.sym, at, hops)
	}
	if pr.sym != nil {
		s.tally(StatKey{
			Qualified: true, When: classify(true, pr.blocked),
			Rel: ctrace.RelOther, Incomplete: pr.incomplete,
		})
		s.record(true, at, hops, true)
		return Result{Sym: pr.sym}
	}
	s.tally(StatKey{Qualified: true, When: Never})
	s.record(true, at, hops, false)
	return Result{}
}

func (s *Searcher) followAliasQualified(alias *Symbol, at ctrace.Stamp, hops []ctrace.Hop) Result {
	tracing := s.Tab.Rec != nil
	deep := true
	for depth := 0; depth < MaxAliasDepth; depth++ {
		if tracing && len(hops) > 0 {
			hops[len(hops)-1].Found = false
		}
		pr := s.searchScope(alias.AliasScope, alias.AliasName, false)
		if tracing {
			hops = append(hops, s.hop(alias.AliasScope, ctrace.RelOther, pr))
		}
		if pr.sym == nil {
			deep = false
			break
		}
		if pr.sym.Kind != KAlias {
			s.tally(StatKey{
				Qualified: true, When: classify(true, pr.blocked),
				Rel: ctrace.RelOther, Incomplete: pr.incomplete,
			})
			s.record(true, at, hops, true)
			return Result{Sym: pr.sym}
		}
		alias = pr.sym
	}
	s.tally(StatKey{Qualified: true, When: Never})
	s.record(true, at, hops, false)
	return Result{DeepAlias: deep}
}

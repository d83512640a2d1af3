// Package obs is the live-observability layer of the concurrent
// compiler.  An Observer attached through core.Options.Obs records
// nothing itself: each compilation it observes is traced by its
// ctrace.Recorder, the one recorder the Supervisor reports to (the
// trace that also feeds the simulator), and the Observer keeps each
// finished compilation's trace, taken once, beside a few batch
// counters — interface and stream cache traffic, the Supervisor's
// dispatch counters, DKY lookup tallies.  Every view is a rendering of
// the traces:
//
//   - Snapshot: a machine-readable Metrics value (worker-slot
//     occupancy, ready-queue depth, event and cache counters,
//     per-strategy DKY lookup tallies via symtab.Stats);
//   - WriteChromeTrace: Chrome trace-event JSON (load in Perfetto or
//     chrome://tracing) with one lane per worker slot;
//   - RenderTimeline: an ASCII per-worker activity view in the style
//     of the paper's Figure 7, the measured counterpart of the
//     simulator's predicted one;
//   - Profile: the critical-path profile (internal/profile).
//
// One Observer may span a batch of compilations, run one after another
// or side by side; it renders them as one trace on its own clock.
//
// Every exported method is safe on a nil *Observer, so an unobserved
// compilation pays a pointer check.  An observed one pays for its
// trace: the Recorder's records of every task, fire and wait — but not
// of its lookups, which only Options.Trace asks for.
package obs

import (
	"slices"
	"sync"
	"time"

	"m2cc/internal/ctrace"
	"m2cc/internal/ifacecache"
	"m2cc/internal/profile"
	"m2cc/internal/sched"
	"m2cc/internal/streamcache"
	"m2cc/internal/symtab"
)

// Observer collects the traces of one compilation, or one batch, and
// renders them.  All methods are safe for concurrent use and on a nil
// receiver.
type Observer struct {
	mu    sync.Mutex // guards: every field below; all methods lock it
	epoch time.Time
	ended time.Duration // set by Finish; 0 = still running

	workers  int
	strategy string
	runs     []run // the observed compilations, in Begin order

	cache   ifacecache.Stats
	streams StreamMetrics
	sched   sched.Counters
	lookups *symtab.Stats
}

// run is one observed compilation.  Its lanes show from base on: clear
// of the lanes of every compilation still running when it began.  rec
// records it; End marks it done, and the first view after that keeps
// its trace in tr, placed on the observer's clock and lanes, and lets
// rec go.  No view writes tr.
type run struct {
	rec     *ctrace.Recorder
	tr      *ctrace.Trace
	base    int
	workers int
	done    bool
}

// New returns an Observer with its epoch set to now.
func New() *Observer {
	return &Observer{epoch: time.Now()}
}

// Begin registers a compilation traced by rec on workers slots under
// the named DKY strategy.  The largest worker count of a batch wins.
func (o *Observer) Begin(rec *ctrace.Recorder, workers int, strategy string) {
	if o == nil || rec == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	base := 0
	for moved := true; moved; {
		moved = false
		for _, r := range o.runs {
			if !r.done && base < r.base+r.workers && r.base < base+workers {
				base, moved = r.base+r.workers, true
			}
		}
	}
	o.runs = append(o.runs, run{rec: rec, base: base, workers: workers})
	o.workers = max(o.workers, workers)
	o.strategy = strategy
}

// Tally is what a compilation counted beside its trace.
type Tally struct {
	Sched     sched.Counters
	Cache     ifacecache.Stats // its own interface-cache outcomes
	Streams   streamcache.Tally
	Evictions int64         // the shared stream store's, during the compilation
	Lookups   *symtab.Stats // nil unless lookup statistics were collected
}

// End notes that rec's compilation has finished with tally t: its
// trace is taken once, at the first view, its counters join the
// batch's, its lanes are free for the compilations that begin after
// it, and the observed run ends here (see Finish).
func (o *Observer) End(rec *ctrace.Recorder, t Tally) {
	if o == nil {
		return
	}
	o.mu.Lock()
	for i := range o.runs {
		if r := &o.runs[i]; rec != nil && r.rec == rec {
			r.done = true
		}
	}
	o.sched.Add(t.Sched)
	o.cache = o.cache.Add(t.Cache)
	o.streams.Tally = o.streams.Tally.Add(t.Streams)
	o.streams.Evictions += t.Evictions
	if t.Lookups != nil && o.lookups == nil {
		o.lookups = symtab.NewStats()
	}
	agg := o.lookups
	o.mu.Unlock()
	if t.Lookups != nil {
		agg.Add(t.Lookups) // under its own lock, outside ours
	}
	o.Finish()
}

// Finish stamps the end of the observed run, the horizon of every
// view.  The latest call wins, so batch observers cover the whole
// batch.
func (o *Observer) Finish() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.ended = time.Since(o.epoch)
	o.mu.Unlock()
}

// Profile computes the critical-path profile of the observed run.
func (o *Observer) Profile() *profile.Profile {
	if o == nil {
		return profile.Build(&ctrace.Trace{}, 0)
	}
	tr, wall, _ := o.trace()
	p := profile.Build(tr, wall)
	o.mu.Lock()
	p.Workers, p.Strategy, p.Sched = o.workers, o.strategy, o.sched
	o.mu.Unlock()
	return p
}

// place moves t, a trace the observer owns, onto the observer's clock
// (times move by its epoch's distance from the observer's) and its
// lanes up to base, in place.
func (o *Observer) place(t *ctrace.Trace, base int) *ctrace.Trace {
	shift := t.Run.Epoch.Sub(o.epoch)
	for i := range t.Run.Tasks {
		tr := &t.Run.Tasks[i]
		tr.Spawned += shift
		for j := range tr.Stretches {
			s := &tr.Stretches[j]
			s.Lane += int32(base)
			s.Start, s.End = s.Start+shift, s.End+shift
		}
		for j := range tr.Waits {
			w := &tr.Waits[j]
			w.Start, w.End = w.Start+shift, w.End+shift
		}
	}
	for i := range t.Run.Fires {
		t.Run.Fires[i].At += shift
	}
	for i := range t.Run.Marks {
		t.Run.Marks[i].At += shift
	}
	t.Run.Epoch = o.epoch
	return t
}

// trace renders the observed compilations as one trace on the
// observer's clock — their tasks, spawns and runs — and returns it with
// the horizon (Finish's stamp, or now) and the number of lanes.  Each
// compilation's task and event IDs follow the previous one's.  A
// compilation still running shows what its finished tasks handed over;
// a finished one's trace is taken here once and kept.  The result
// shares records with the kept traces: views only read it.
func (o *Observer) trace() (*ctrace.Trace, time.Duration, int) {
	o.mu.Lock()
	runs := slices.Clone(o.runs)
	wall, lanes := o.ended, o.workers
	if wall == 0 {
		wall = time.Since(o.epoch)
	}
	o.mu.Unlock()

	m := &ctrace.Trace{Run: &ctrace.Run{Epoch: o.epoch}}
	for i, r := range runs {
		lanes = max(lanes, r.base+r.workers)
		t := r.tr
		if t == nil {
			t = o.place(r.rec.Trace(), r.base)
			if r.done { // another view may have kept one too; they are equal
				o.mu.Lock()
				o.runs[i].rec, o.runs[i].tr = nil, t
				o.mu.Unlock()
			}
		}
		if len(runs) == 1 { // nothing to renumber
			one := *t
			one.Events = t.Run.Events
			return &one, wall, lanes
		}
		tasks, events := ctrace.TaskID(len(m.Tasks)), ctrace.EventID(m.Run.Events)
		task := func(id ctrace.TaskID) ctrace.TaskID {
			if id == 0 {
				return 0
			}
			return id + tasks
		}
		for _, ti := range t.Tasks {
			ti.ID += tasks
			m.Tasks = append(m.Tasks, ti)
		}
		for _, tr := range t.Run.Tasks {
			tr.Waits = slices.Clone(tr.Waits)
			for j := range tr.Waits {
				tr.Waits[j].Event += events
			}
			m.Run.Tasks = append(m.Run.Tasks, tr)
		}
		for _, sp := range t.Spawns {
			sp.Parent, sp.Child, sp.Gates = task(sp.Parent), task(sp.Child), slices.Clone(sp.Gates)
			for g := range sp.Gates {
				sp.Gates[g] += events
			}
			m.Spawns = append(m.Spawns, sp)
		}
		for _, f := range t.Run.Fires {
			f.Event, f.Task = f.Event+events, task(f.Task)
			m.Run.Fires = append(m.Run.Fires, f)
		}
		for _, mk := range t.Run.Marks {
			mk.Task = task(mk.Task)
			m.Run.Marks = append(m.Run.Marks, mk)
		}
		m.Run.Events += t.Run.Events
	}
	m.Events = m.Run.Events
	return m, wall, lanes
}

// tenures calls f with each tenure of a worker slot in r: a stretch,
// carried on through the barrier wait after it, since a barrier waiter
// keeps its slot.
func tenures(r ctrace.TaskRun, f func(ctrace.Stretch)) {
	for j, s := range r.Stretches {
		if j < len(r.Waits) && r.Waits[j].Kind == ctrace.WaitBarrier {
			s.End = r.Waits[j].End
		}
		f(s)
	}
}

// laneAt returns the lane task id held at time at, or -1.
func laneAt(tr *ctrace.Trace, id ctrace.TaskID, at time.Duration) int {
	if id < 1 || int(id) > len(tr.Run.Tasks) {
		return -1
	}
	for _, s := range tr.Run.Tasks[id-1].Stretches {
		if s.Start <= at && at <= s.End {
			return int(s.Lane)
		}
	}
	return -1
}

// panicked returns the tasks a panic mark names.
func panicked(tr *ctrace.Trace) map[ctrace.TaskID]bool {
	p := map[ctrace.TaskID]bool{}
	for _, mk := range tr.Run.Marks {
		if mk.Kind == ctrace.MarkPanic {
			p[mk.Task] = true
		}
	}
	return p
}

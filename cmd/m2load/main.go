// Command m2load is the load generator paired with the m2cd daemon:
// it drives concurrent compile/lint requests at a running daemon and
// reports throughput, latency percentiles, and shed/error counts.
//
// Two driving modes:
//
//   - Closed loop (default): -c workers each keep one request in
//     flight, back to back — measures the daemon's capacity under
//     sustained saturation.
//   - Open loop (-rate N): requests are launched on a fixed schedule
//     of N per second regardless of completions — measures behavior
//     under an arrival rate the daemon cannot push back on, which is
//     where load shedding earns its keep.
//
// The run stops after -n requests (closed loop) or -duration.  The
// report is written as JSON (-out, default BENCH_m2load.json) and
// summarised on stdout.
//
// With -expect-identical, every 200 response body for the same
// endpoint must be byte-identical — the daemon's correctness
// contract under load, shedding, and fault injection; mismatches are
// counted and fail the run (exit 1).
//
// Every response's X-M2cd-Trace header is recorded alongside its
// latency.  With -fetch-slowest N the generator ends the run by
// pulling the daemon's traces for the N slowest successful requests
// (when the daemon sampled them) and saving each as Perfetto JSON
// beside the report — a perf regression arrives with its evidence
// attached.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type srcFile struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Text string `json:"text"`
}

type compileRequest struct {
	Module     string    `json:"module"`
	Sources    []srcFile `json:"sources"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	Client     string    `json:"client,omitempty"`
}

// report is the schema of the -out JSON report.
type report struct {
	Target       string           `json:"target"`
	Mode         string           `json:"mode"` // "closed" or "open"
	Concurrency  int              `json:"concurrency"`
	RatePerSec   float64          `json:"rate_per_sec,omitempty"`
	DurationMS   int64            `json:"duration_ms"`
	Sent         int64            `json:"sent"`
	OK           int64            `json:"ok"`
	Shed         int64            `json:"shed"`     // 429
	Unavailable  int64            `json:"unavail"`  // 503
	Errors       int64            `json:"errors"`   // transport and 5xx other than 503
	Mismatches   int64            `json:"mismatch"` // 200 bodies differing (-expect-identical)
	ByStatus     map[string]int64 `json:"by_status"`
	ThroughputPS float64          `json:"throughput_rps"` // successful responses per second
	Latency      latencySummary   `json:"latency_ms"`
	Slowest      []slowTrace      `json:"slowest_traces,omitempty"` // -fetch-slowest
}

// slowTrace is one of the run's slowest successful requests, with the
// daemon-side trace when it could be fetched (the daemon only holds
// traces for sampled admissions, and its LRU ring may have moved on).
type slowTrace struct {
	TraceID   string  `json:"trace_id"`
	LatencyMS float64 `json:"latency_ms"`
	File      string  `json:"file,omitempty"` // saved Perfetto JSON, beside the report
}

type latencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		target   = flag.String("addr", "127.0.0.1:8177", "m2cd address (host:port)")
		srcDir   = flag.String("src", filepath.Join("examples", "modules"), "directory of .def/.mod sources to compile")
		module   = flag.String("module", "Demo", "implementation module to request")
		endpoint = flag.String("endpoint", "/compile", "endpoint to drive: /compile or /lint")
		n        = flag.Int64("n", 200, "total requests (closed loop; 0 = until -duration)")
		c        = flag.Int("c", 8, "closed-loop concurrency / open-loop max outstanding")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
		duration = flag.Duration("duration", 30*time.Second, "maximum run time")
		deadline = flag.Int64("deadline-ms", 0, "per-request deadline forwarded to the daemon")
		clients  = flag.Int("clients", 4, "number of distinct client identities to spread requests over")
		identic  = flag.Bool("expect-identical", false, "fail if any two 200 bodies differ")
		out      = flag.String("out", "BENCH_m2load.json", "report file")
		slowest  = flag.Int("fetch-slowest", 0, "after the run, fetch the daemon traces of the N slowest requests (saved beside -out)")
	)
	flag.Parse()

	sources, err := loadSources(*srcDir)
	if err != nil {
		log.Printf("m2load: %v", err)
		return 2
	}
	if *c < 1 || *clients < 1 {
		log.Printf("m2load: -c and -clients must be >= 1")
		return 2
	}
	body, err := json.Marshal(compileRequest{
		Module: *module, Sources: sources, DeadlineMS: *deadline,
	})
	if err != nil {
		log.Printf("m2load: %v", err)
		return 2
	}
	url := "http://" + *target + *endpoint

	g := &generator{
		url:      url,
		body:     body,
		clients:  *clients,
		identic:  *identic,
		byStatus: make(map[int]int64),
		client: &http.Client{
			Timeout: *duration,
			Transport: &http.Transport{
				MaxIdleConns:        *c * 2,
				MaxIdleConnsPerHost: *c * 2,
			},
		},
	}

	began := time.Now()
	if *rate > 0 {
		g.openLoop(*rate, *duration, *c)
	} else {
		g.closedLoop(*n, *duration, *c)
	}
	elapsed := time.Since(began)

	rep := g.report(*target, *rate, *c, elapsed)
	if *slowest > 0 {
		rep.Slowest = g.fetchSlowest(*target, *slowest, filepath.Dir(*out))
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Printf("m2load: %v", err)
		return 1
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		log.Printf("m2load: %v", err)
		return 1
	}
	fmt.Printf("m2load: %d sent in %v — %d ok, %d shed, %d unavailable, %d errors (%.1f ok/s)\n",
		rep.Sent, elapsed.Round(time.Millisecond), rep.OK, rep.Shed, rep.Unavailable, rep.Errors, rep.ThroughputPS)
	fmt.Printf("m2load: latency ms p50=%.1f p90=%.1f p99=%.1f p999=%.1f max=%.1f\n",
		rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.P999, rep.Latency.Max)
	if rep.Mismatches > 0 {
		log.Printf("m2load: %d response-body mismatches — the daemon broke its byte-identity contract", rep.Mismatches)
		return 1
	}
	if rep.OK == 0 {
		log.Printf("m2load: zero successful responses")
		return 1
	}
	return 0
}

// loadSources reads every Name.def / Name.mod under dir into request
// sources.
func loadSources(dir string) ([]srcFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var sources []srcFile
	for _, e := range entries {
		var kind string
		switch filepath.Ext(e.Name()) {
		case ".def":
			kind = "def"
		case ".mod":
			kind = "mod"
		default:
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))
		sources = append(sources, srcFile{Name: name, Kind: kind, Text: string(text)})
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no .def/.mod sources under %s", dir)
	}
	return sources, nil
}

// generator drives the load and accumulates results.
type generator struct {
	url     string
	body    []byte
	clients int
	identic bool
	client  *http.Client

	seq atomic.Int64 // request sequence; also spreads client identities

	mu       sync.Mutex // guards: byStatus, samples, goldBody, mismatches, errors
	byStatus map[int]int64
	samples  []sample // successful (200) requests only
	goldBody []byte   // first 200 body (-expect-identical)
	mismatch int64
	errs     int64
}

// sample is one successful request: its latency and the trace ID the
// daemon assigned it (empty before PR 9 daemons).
type sample struct {
	ms    float64
	trace string
}

// fire issues one request and records its outcome.
func (g *generator) fire() {
	i := g.seq.Add(1)
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(g.body))
	if err != nil {
		g.mu.Lock()
		g.errs++
		g.mu.Unlock()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client", fmt.Sprintf("load-%d", i%int64(g.clients)))
	began := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		g.mu.Lock()
		g.errs++
		g.mu.Unlock()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := float64(time.Since(began)) / float64(time.Millisecond)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.errs++
		return
	}
	g.byStatus[resp.StatusCode]++
	if resp.StatusCode == http.StatusOK {
		g.samples = append(g.samples, sample{ms: elapsed, trace: resp.Header.Get("X-M2cd-Trace")})
		if g.identic {
			if g.goldBody == nil {
				g.goldBody = body
			} else if !bytes.Equal(g.goldBody, body) {
				g.mismatch++
			}
		}
	}
}

// closedLoop keeps c requests in flight until n requests have been
// sent or the deadline passes.
func (g *generator) closedLoop(n int64, d time.Duration, c int) {
	stop := time.Now().Add(d)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if n > 0 && sent.Add(1) > n {
					return
				}
				g.fire()
			}
		}()
	}
	wg.Wait()
}

// openLoop launches requests at a fixed arrival rate for d, with at
// most maxOut outstanding (beyond that an arrival is counted as a
// local error rather than blocking the schedule — an overloaded
// client must not accidentally become a closed loop).
func (g *generator) openLoop(rate float64, d time.Duration, maxOut int) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	deadline := time.After(d)
	slots := make(chan struct{}, maxOut)
	var wg sync.WaitGroup
	for {
		select {
		case <-deadline:
			wg.Wait()
			return
		case <-tick.C:
			select {
			case slots <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-slots }()
					g.fire()
				}()
			default:
				g.mu.Lock()
				g.errs++
				g.mu.Unlock()
			}
		}
	}
}

// report summarises the run.
func (g *generator) report(target string, rate float64, c int, elapsed time.Duration) report {
	g.mu.Lock()
	defer g.mu.Unlock()
	mode := "closed"
	if rate > 0 {
		mode = "open"
	}
	rep := report{
		Target:      target,
		Mode:        mode,
		Concurrency: c,
		RatePerSec:  rate,
		DurationMS:  elapsed.Milliseconds(),
		Mismatches:  g.mismatch,
		Errors:      g.errs,
		ByStatus:    make(map[string]int64, len(g.byStatus)),
	}
	ms := make([]float64, len(g.samples))
	for i, s := range g.samples {
		ms[i] = s.ms
	}
	rep.Latency = summarize(ms)
	for code, count := range g.byStatus {
		rep.ByStatus[fmt.Sprintf("%d", code)] = count
		rep.Sent += count
		switch {
		case code == http.StatusOK:
			rep.OK += count
		case code == http.StatusTooManyRequests:
			rep.Shed += count
		case code == http.StatusServiceUnavailable:
			rep.Unavailable += count
		default:
			rep.Errors += count
		}
	}
	rep.Sent += g.errs
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ThroughputPS = float64(rep.OK) / secs
	}
	return rep
}

// fetchSlowest pulls the daemon-side traces for the n slowest
// successful requests and saves each as trace-<id>.json in dir.  A
// request whose admission the daemon did not sample (404) is still
// listed — its latency is evidence even without a trace file.
func (g *generator) fetchSlowest(target string, n int, dir string) []slowTrace {
	g.mu.Lock()
	ranked := append([]sample(nil), g.samples...)
	g.mu.Unlock()
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].ms > ranked[j].ms })
	seen := make(map[string]bool)
	var out []slowTrace
	for _, s := range ranked {
		if len(out) >= n {
			break
		}
		if s.trace == "" || seen[s.trace] {
			continue
		}
		seen[s.trace] = true
		st := slowTrace{TraceID: s.trace, LatencyMS: s.ms}
		resp, err := g.client.Get("http://" + target + "/debug/trace/" + s.trace)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				path := filepath.Join(dir, "trace-"+s.trace+".json")
				if os.WriteFile(path, body, 0o644) == nil {
					st.File = path
				}
			}
		}
		out = append(out, st)
	}
	return out
}

// summarize computes the latency distribution of ms samples.
func summarize(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return latencySummary{
		Mean: sum / float64(len(sorted)),
		P50:  percentile(sorted, 0.50),
		P90:  percentile(sorted, 0.90),
		P99:  percentile(sorted, 0.99),
		P999: percentile(sorted, 0.999),
		Max:  sorted[len(sorted)-1],
	}
}

// percentile returns the p-quantile (0 < p <= 1) of sorted samples by
// the nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

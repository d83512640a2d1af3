// Command m2cd is the resilient compile-as-a-service daemon: it
// serves concurrent Modula-2+ compilations over HTTP/JSON from one
// shared Supervisor-backed pool and interface cache.
//
// Endpoints:
//
//	POST /compile  {"module":"Main","sources":[{"name":"Main","kind":"mod","text":"..."}]}
//	POST /lint     same request; responds with static-analysis findings
//	GET  /healthz  200 "ok" while serving, 200 "draining" during drain
//	GET  /readyz   200 "ready" while admitting, 503 once draining
//	GET  /metrics  every metric family as JSON keyed by its Prometheus name;
//	               ?format=prometheus for the text exposition 0.0.4
//
// /metrics is the one export of the serving numbers: counters, gauges
// (m2cd_inflight, m2cd_waiting, ...) and histograms that never reset,
// so a windowed view is the difference of two scrapes.
//
// Telemetry plane: every admitted request gets a trace ID
// (X-M2cd-Trace request header honored, response header always set);
// -trace=sampled|all records a per-request Observer retrievable as
// Perfetto JSON.  Structured JSON request logs go to stderr (-quiet
// suppresses them).
//
//	GET  /debug/trace          trace-store state and index of held traces
//	GET  /debug/trace/{id}     Chrome/Perfetto trace-event JSON
//	GET  /debug/trace/{id}/profile  critical-path + blame (?format=json)
//
// -rate-limit/-rate-burst arm a per-client token bucket (429 +
// Retry-After); -debug-addr serves net/http/pprof on a second
// listener.
//
// Robustness knobs (see server.go for the semantics): -max-inflight
// and -queue bound admission; -deadline/-max-deadline bound each
// request's service time and propagate cancellation into the
// compiler; -breaker-trips/-breaker-cooldown drive the per-client
// circuit breaker; -drain-timeout bounds the SIGTERM graceful drain.
//
// Fault injection for chaos drills: -inject arms named points (e.g.
// "panic-handler:3,slow-request:2"), -inject-slow sets the latency an
// armed slow-request point adds.
//
// Exit status: 0 after a clean drain (all in-flight requests
// finished), 1 if the drain deadline forced connections closed or
// serving failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"m2cc"
	"m2cc/internal/faultinject"
	"m2cc/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8177", "listen address (host:port; port 0 picks a free port)")
		workers    = flag.Int("workers", 4, "worker slots per compilation")
		dky        = flag.String("dky", "skeptical", "default DKY strategy: avoidance|pessimistic|skeptical|optimistic")
		inflight   = flag.Int("max-inflight", 4, "maximum concurrently running compilations")
		queue      = flag.Int("queue", 8, "admission queue depth beyond -max-inflight before shedding with 429")
		deadline   = flag.Duration("deadline", 10*time.Second, "default per-request deadline")
		maxDL      = flag.Duration("max-deadline", 30*time.Second, "hard cap on client-requested deadlines")
		drain      = flag.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight requests")
		grace      = flag.Duration("drain-grace", 0, "readiness propagation window: after SIGTERM, keep answering probes (readyz 503) this long before closing the listener")
		stall      = flag.Duration("stall-timeout", m2cc.DefaultStallTimeout, "bound on waits for a foreign interface-cache leader (must be >= 0)")
		trips      = flag.Int("breaker-trips", 3, "consecutive faults before a client's circuit breaker opens")
		cooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker routes a client sequentially")
		ifaceCap   = flag.Int("iface-cap", 0, "interface-cache entry cap before LRU eviction (0 = unbounded)")
		streamCap  = flag.Int("stream-cap", 0, "stream-cache entry cap before LRU eviction (0 = unbounded)")
		injectSpec = flag.String("inject", "", "arm fault-injection points: \"point:N[,point:N...]\" (see -list-inject)")
		listInject = flag.Bool("list-inject", false, "list injection point names and exit")
		slowDelay  = flag.Duration("inject-slow", 250*time.Millisecond, "latency added by an armed slow-request point")
		metricsOut = flag.String("metrics-out", "", "file to write the final metrics snapshot to at drain (default stderr)")
		readyFile  = flag.String("ready-file", "", "file to write the bound listen address to once serving (for scripts)")

		traceFlag   = flag.String("trace", "off", "per-request tracing: off|sampled|all (see /debug/trace)")
		traceKeep   = flag.Int("trace-keep", 64, "finished request traces kept in the LRU ring")
		traceSample = flag.Int("trace-sample", 8, "in sampled mode, trace 1 in N admitted requests")
		rateLimit   = flag.Float64("rate-limit", 0, "per-client request rate in req/s (token bucket; 0 = unlimited)")
		rateBurst   = flag.Int("rate-burst", 4, "per-client token-bucket burst")
		debugAddr   = flag.String("debug-addr", "", "separate listener for net/http/pprof (host:port; empty = off)")
		quiet       = flag.Bool("quiet", false, "suppress per-request JSON log lines on stderr")
	)
	flag.Parse()

	if *listInject {
		for _, p := range faultinject.Points() {
			fmt.Println(p)
		}
		return 0
	}

	strategy, err := m2cc.ParseStrategy(*dky)
	if err != nil {
		log.Printf("m2cd: %v", err)
		return 2
	}
	plan, err := parseInject(*injectSpec)
	if err != nil {
		log.Printf("m2cd: %v", err)
		return 2
	}
	traceMode, err := obs.ParseTraceMode(*traceFlag)
	if err != nil {
		log.Printf("m2cd: %v", err)
		return 2
	}
	cfg := config{
		addr:            *addr,
		workers:         *workers,
		strategy:        strategy,
		maxInflight:     *inflight,
		queueDepth:      *queue,
		defaultDeadline: *deadline,
		maxDeadline:     *maxDL,
		drainTimeout:    *drain,
		stallTimeout:    *stall,
		breakerTrips:    *trips,
		breakerCooldown: *cooldown,
		slowDelay:       *slowDelay,
		ifaceCap:        *ifaceCap,
		streamCap:       *streamCap,
		plan:            plan,
		metricsOut:      *metricsOut,
		readyFile:       *readyFile,
		traceMode:       traceMode,
		traceKeep:       *traceKeep,
		traceSample:     *traceSample,
		rateLimit:       *rateLimit,
		rateBurst:       *rateBurst,
	}
	if err := cfg.validate(); err != nil {
		log.Printf("m2cd: %v", err)
		return 2
	}
	if *grace < 0 {
		log.Printf("m2cd: -drain-grace must not be negative (got %v)", *grace)
		return 2
	}

	s := newServer(cfg)
	if !*quiet {
		s.logw = os.Stderr
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Printf("m2cd: listen: %v", err)
		return 1
	}
	if *debugAddr != "" {
		// pprof rides a second listener so profiling traffic never
		// competes with (or gets exposed on) the serving address.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Printf("m2cd: debug listen: %v", err)
			ln.Close()
			return 1
		}
		dsrv := &http.Server{Handler: http.DefaultServeMux}
		go dsrv.Serve(dln)
		defer dsrv.Close()
		log.Printf("m2cd: pprof on %s", dln.Addr())
	}
	bound := ln.Addr().String()
	if cfg.readyFile != "" {
		if err := os.WriteFile(cfg.readyFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Printf("m2cd: ready-file: %v", err)
			ln.Close()
			return 1
		}
	}
	log.Printf("m2cd: serving on %s (inflight=%d queue=%d deadline=%v)",
		bound, cfg.maxInflight, cfg.queueDepth, cfg.defaultDeadline)

	srv := &http.Server{Handler: s.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		log.Printf("m2cd: %v: draining (timeout %v)", sig, cfg.drainTimeout)
	case err := <-serveErr:
		log.Printf("m2cd: serve: %v", err)
		return 1
	}

	// Graceful drain: stop admission first so queued requests are
	// answered with 503 instead of starting work the shutdown would
	// outwait; hold the listener open for the readiness-propagation
	// grace so load balancers see readyz flip before connections start
	// being refused; then let in-flight requests finish.
	s.startDrain()
	if *grace > 0 {
		time.Sleep(*grace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	flushMetrics(s, cfg.metricsOut)
	if shutdownErr != nil {
		log.Printf("m2cd: drain deadline exceeded, forcing close: %v", shutdownErr)
		srv.Close()
		return 1
	}
	log.Printf("m2cd: drained cleanly")
	return 0
}

// parseInject parses "point:N[,point:N...]" into an armed plan; an
// empty spec arms nothing (nil plan, zero overhead).
func parseInject(spec string) (*faultinject.Plan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := faultinject.New()
	for _, part := range strings.Split(spec, ",") {
		name, nstr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -inject entry %q: want point:N", part)
		}
		pt, err := faultinject.ParsePoint(name)
		if err != nil {
			return nil, fmt.Errorf("bad -inject entry %q: %v", part, err)
		}
		n, err := strconv.ParseInt(nstr, 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -inject entry %q: hit index must be a positive integer", part)
		}
		plan.Arm(pt, n)
	}
	return plan, nil
}

// flushMetrics writes the metric registry's final JSON rendering where
// the operator asked (file or stderr); losing the last counters to a
// crash-free exit would defeat the point of draining gracefully.
func flushMetrics(s *server, path string) {
	buf, err := json.MarshalIndent(s.reg, "", "  ")
	if err != nil {
		log.Printf("m2cd: metrics: %v", err)
		return
	}
	if path == "" {
		fmt.Fprintf(os.Stderr, "m2cd: final metrics:\n%s\n", buf)
		return
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Printf("m2cd: metrics: %v", err)
	}
}

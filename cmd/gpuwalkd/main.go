// Command gpuwalkd serves simulations over HTTP. Clients POST a
// configuration (or a sweep of them) to /v1/jobs; a bounded priority
// queue feeds a worker pool, and every completed run lands in a
// persistent content-addressed cache, so resubmitting an identical
// configuration returns its result without simulating.
//
//	gpuwalkd -addr :8077 -cache ./results -workers 4
//
//	curl -s localhost:8077/v1/jobs -d '{"spec":{"Workload":"MVT","Scheduler":"simt-aware"}}'
//	curl -s localhost:8077/v1/jobs/j000001
//	curl -N localhost:8077/v1/jobs/j000001/events
//	curl -s localhost:8077/metrics
//
// See docs/SERVER.md for the full API, flags, telemetry and the cache
// layout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gpuwalk"
	"gpuwalk/internal/cluster"
	"gpuwalk/internal/gpu"
	"gpuwalk/internal/jobd"
)

// splitPeers turns the -peers flag into a URL list (empty entries
// dropped; normalization and validation happen in cluster).
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the end-to-end test
// can drive a real server (real listener, real signals) in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpuwalkd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "localhost:8077", "listen address")
		cacheDir     = fs.String("cache", ".gpuwalkd-cache", "result cache directory")
		cacheBytes   = fs.Int64("cache-max-bytes", 0, "evict least-recently-used results beyond this size (0 = unbounded)")
		workers      = fs.Int("workers", 0, "simulation worker pool width (0 = one per CPU)")
		queueSize    = fs.Int("queue", 64, "max queued jobs before submissions are rejected")
		retainJobs   = fs.Int("retain", 0, "finished jobs kept addressable via the API (0 = default 4096, negative = unbounded)")
		timeout      = fs.Duration("timeout", 10*time.Minute, "default per-job timeout (0 = none)")
		drainWait    = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight jobs")
		logFormat    = fs.String("log-format", "json", "structured log format: json or text")
		logLevel     = fs.String("log-level", "info", "log level: debug, info, warn or error")
		pprofOn      = fs.Bool("pprof", false, "mount /debug/pprof/ on the API listener")
		progCycles   = fs.Uint64("progress-cycles", gpu.DefaultProgressEvery, "simulated cycles between progress samples")
		progInterval = fs.Duration("progress-interval", time.Second, "wall-clock cadence of progress SSE events")
		journalDir   = fs.String("journal", "", "durable job journal directory; empty disables crash recovery (see docs/RELIABILITY.md)")
		gatewayMode  = fs.Bool("gateway", false, "run as a cluster gateway instead of a backend (requires -peers; see docs/CLUSTER.md)")
		peersFlag    = fs.String("peers", "", "comma-separated cluster node URLs (the same full list on every node and the gateway)")
		selfURL      = fs.String("self", "", "this node's URL within -peers; its host:port labels the node's jobs and job IDs, and it enables cache peering")
		vnodes       = fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per member on the consistent-hash ring")
		probeEvery   = fs.Duration("probe-interval", 2*time.Second, "cluster health-probe cadence")
		traceSpans   = fs.Int("trace-spans", 0, "max recorded spans per request trace (0 = default 256, negative disables tracing)")
		printVersion = fs.Bool("version", false, "print the simulator model version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printVersion {
		fmt.Fprintln(stdout, gpuwalk.SimVersion)
		return 0
	}
	if *gatewayMode {
		return runGateway(gatewayConfig{
			addr:       *addr,
			peers:      splitPeers(*peersFlag),
			vnodes:     *vnodes,
			probeEvery: *probeEvery,
			drainWait:  *drainWait,
			logFormat:  *logFormat,
			logLevel:   *logLevel,
			traceSpans: *traceSpans,
		}, stdout, stderr)
	}
	// A peered backend labels its jobs and prefixes their IDs with the
	// host:port of -self, which is how a gateway finds a job's owner.
	// Without -self its IDs would collide with every other node's.
	if (*selfURL == "") != (*peersFlag == "") {
		fmt.Fprintln(stderr, "gpuwalkd: a backend takes -peers and -self together, or neither")
		return 2
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
		return 2
	}

	cache, err := gpuwalk.OpenResultCache(*cacheDir, *cacheBytes)
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: opening cache: %v\n", err)
		return 1
	}

	// The journal makes accepted jobs survive a crash: replayed here at
	// startup, re-enqueued by jobd, results resolved through the cache.
	var journal *jobd.Journal
	if *journalDir != "" {
		journal, err = jobd.OpenJournal(*journalDir)
		if err != nil {
			fmt.Fprintf(stderr, "gpuwalkd: opening journal: %v\n", err)
			return 1
		}
		defer journal.Close()
		if n := len(journal.Recovered()); n > 0 {
			fmt.Fprintf(stdout, "gpuwalkd: journal replay: re-enqueueing %d interrupted jobs\n", n)
		}
	}

	// Cluster peering, backend side: a membership over the shared peer
	// list lets this node fetch a missed key from its ring owner before
	// simulating, and the /v1/cache endpoint serves the same favor to
	// peers. The gateway does the routing; a backend only needs to know
	// who owns what.
	var member *cluster.Membership
	var peering *cluster.Peering
	var nodeLabel string
	if *selfURL != "" {
		member, err = cluster.NewMembership(cluster.MemberOptions{
			Peers:         splitPeers(*peersFlag),
			VNodes:        *vnodes,
			ProbeInterval: *probeEvery,
			Logger:        logger,
		})
		if err != nil {
			fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
			return 2
		}
		peering, err = cluster.NewPeering(member, *selfURL, logger)
		if err != nil {
			fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
			return 2
		}
		cache.SetPeer(peering)
		nodeLabel = cluster.NodeName(peering.Self())
	}

	opts := jobd.Options{
		Runner:           newRunner(cache, *progCycles),
		Lookup:           newLookup(cache, newSpecKeys()),
		Workers:          *workers,
		QueueSize:        *queueSize,
		RetainJobs:       *retainJobs,
		DefaultTimeout:   *timeout,
		Logger:           logger,
		ProgressInterval: *progInterval,
		Pprof:            *pprofOn,
		Journal:          journal,
		NodeName:         nodeLabel,
		SpanLimit:        *traceSpans,
	}
	if peering != nil {
		// Peers are served from the local store only (GetLocal): a miss
		// here answers 404 and the asking node simulates, rather than this
		// node fetching from a third party on the asker's behalf.
		opts.CacheGet = func(key string) ([]byte, bool) {
			b, ok, err := cache.GetLocal(key)
			return b, ok && err == nil
		}
	}
	srv, err := jobd.NewServer(opts)
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
		return 1
	}
	cache.RegisterMetrics(srv.Metrics(), "gpuwalkd_cache")
	if peering != nil {
		peering.RegisterMetrics(srv.Metrics())
	}
	srv.Metrics().NewGauge("gpuwalkd_build_info",
		"Build metadata; the value is always 1.",
		"go_version", "model_version").
		With(runtime.Version(), gpuwalk.SimVersion).Set(1)

	// SIGTERM/SIGINT triggers a graceful drain: stop accepting jobs,
	// cancel the queue, let in-flight simulations finish (up to
	// -drain-timeout), then stamp the cache's recency and exit. Installed
	// before the listener so a signal is never lost once the address
	// has been announced.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "gpuwalkd: listening on %s (cache %s, %d workers)\n",
		ln.Addr(), *cacheDir, *workers)
	logger.Info("listening", "addr", ln.Addr().String(), "cache", *cacheDir,
		"workers", *workers, "pprof", *pprofOn, "model_version", gpuwalk.SimVersion)
	if member != nil {
		// Probing starts only now that the listener is up, so the first
		// synchronous round can see this node (and simultaneously starting
		// peers) as healthy.
		member.Start()
		defer member.Close()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "gpuwalkd: shutdown signal received, draining")
		logger.Info("shutdown signal received, draining")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		if err := srv.Drain(drainCtx); err != nil {
			fmt.Fprintf(stderr, "gpuwalkd: drain incomplete, in-flight jobs aborted: %v\n", err)
		}
		cancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = httpSrv.Shutdown(shutCtx)
		cancel()
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "gpuwalkd: %v\n", err)
			code = 1
		}
		srv.Close()
	}
	if err := cache.Close(); err != nil {
		fmt.Fprintf(stderr, "gpuwalkd: closing cache: %v\n", err)
		code = 1
	}
	st := cache.Stats()
	fmt.Fprintf(stdout, "gpuwalkd: exiting; cache served %d hits, %d misses, stored %d results\n",
		st.Hits, st.Misses, st.Puts)
	logger.Info("exiting", "cache_hits", st.Hits, "cache_misses", st.Misses, "cache_puts", st.Puts)
	return code
}

// newLogger builds the process logger from the -log-format and
// -log-level flags. Logs go to stderr; stdout stays reserved for the
// few human-facing status lines scripts already parse.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want json or text", format)
	}
}

// newRunner adapts gpuwalk.RunCachedJSON to the jobd Runner contract: a
// cache hit's result is the stored payload itself, shared read-only
// with every other job that hit the same key. A
// spec is a partial gpuwalk.Config merged over DefaultConfig, so
// {"Workload":"ATX"} is a complete, valid submission. When jobd
// supplies a progress sink (it always does for HTTP jobs), the
// simulation's progress hook feeds it every progCycles cycles; cache
// hits skip simulation and so report no progress.
func newRunner(cache *gpuwalk.ResultCache, progCycles uint64) jobd.Runner {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		cfg, err := decodeSpec(spec)
		if err != nil {
			return nil, false, fmt.Errorf("bad spec: %w", err)
		}
		if sink := jobd.ProgressSink(ctx); sink != nil {
			cfg.Obs.Progress = func(p gpuwalk.Progress) {
				sink(jobd.ItemProgress{
					Cycles: p.Cycle,
					Done:   p.InstrsDone,
					Total:  p.InstrsTotal,
					Walks:  p.WalksDone,
				})
			}
			cfg.Obs.ProgressEvery = progCycles
		}
		out, hit, err := gpuwalk.RunCachedJSON(ctx, cache, cfg)
		if err != nil {
			return nil, false, err
		}
		return out, hit, nil
	}
}

// newLookup is jobd's admission probe: it keys a spec through the
// process's memo and looks the key up in the local store only
// (gpuwalk.LookupCachedJSON). A spec that does not decode or hash is a
// miss, so its job is admitted and the runner meets it as it would
// without the probe: a spec that does not decode fails as a bad spec.
func newLookup(cache *gpuwalk.ResultCache, keys *specKeys) func(context.Context, json.RawMessage) (json.RawMessage, bool) {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool) {
		key, err := keys.key(spec)
		if err != nil {
			return nil, false
		}
		return gpuwalk.LookupCachedJSON(ctx, cache, key)
	}
}

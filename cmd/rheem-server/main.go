// Command rheem-server serves the REST interface (Section 5 of the paper):
// clients POST RheemLatin scripts to /v1/run for synchronous execution, or
// to /v1/jobs for asynchronous execution with admission control, polling
// /v1/jobs/{id} for status and /v1/jobs/{id}/result for the sinks.
// /v1/metrics exposes system-wide telemetry in Prometheus text format.
// The server ships the same demonstration UDF library as the rheem CLI;
// embedders construct restapi.Server with their own registry.
//
//	rheem-server -addr :8080 -workers 4 -queue 64
//	curl -X POST localhost:8080/v1/jobs -d '{"script": "..."}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rheem"
	"rheem/internal/cluster"
	"rheem/internal/core"
	"rheem/internal/jobs"
	"rheem/internal/rescache"
	"rheem/internal/telemetry"
	"rheem/latin"
	"rheem/restapi"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	fast := flag.Bool("fast", false, "disable the simulated cluster latencies")
	costs := flag.String("costs", "", "path to a learned cost table (JSON)")
	dfsDir := flag.String("dfs", "", "DFS root directory (default: temporary)")
	queue := flag.Int("queue", 64, "admission queue depth; further submissions get 429")
	workers := flag.Int("workers", 4, "concurrent job executions")
	resultTTL := flag.Duration("result-ttl", 10*time.Minute, "how long finished job results are retained")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body size in bytes")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	traceCap := flag.Int("trace-capacity", 256, "per-job execution traces retained (LRU)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "result-cache capacity in estimated bytes; 0 disables cross-job result caching")
	cacheTTL := flag.Duration("cache-ttl", 30*time.Minute, "result-cache entry lifetime; 0 keeps entries until evicted")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
	peers := flag.String("peers", "", "comma-separated advertise addresses of the other fleet peers (requires -advertise)")
	advertise := flag.String("advertise", "", "host:port other peers reach this server at; empty runs single-node")
	clusterRoute := flag.Bool("cluster-route", false, "proxy job submissions to their plan fingerprint's ring owner")
	clusterExec := flag.Bool("cluster-exec", false, "distribute independent stages of each wave across alive fleet peers")
	clusterExecMinCost := flag.Float64("cluster-exec-min-cost-ms", 0,
		"keep stages whose estimated cost is below this floor local instead of dispatching them")
	heartbeat := flag.Duration("heartbeat", time.Second, "cluster heartbeat (gossip) interval")
	scrapeTimeout := flag.Duration("cluster-scrape-timeout", 2*time.Second,
		"per-peer timeout for fleet aggregation scrapes and trace stitching (/v1/cluster/metrics, /v1/cluster/overview)")
	flag.Parse()

	if *peers != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "rheem-server: -peers requires -advertise")
		return 2
	}
	if *clusterExec && *advertise == "" {
		fmt.Fprintln(os.Stderr, "rheem-server: -cluster-exec requires -advertise")
		return 2
	}

	baseLog, level, err := newLogger(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rheem-server: -log-level:", err)
		return 2
	}
	logger := baseLog.With("component", "server")

	metrics := telemetry.NewRegistry()
	var cache *rescache.Cache
	if *cacheBytes > 0 {
		cache = rescache.New(rescache.Options{
			MaxBytes: *cacheBytes,
			TTL:      *cacheTTL,
			Metrics:  metrics,
		})
	}
	ctx, err := rheem.NewContext(rheem.Config{
		FastSimulation: *fast,
		CostTablePath:  *costs,
		DFSDir:         *dfsDir,
		Metrics:        metrics,
		ResultCache:    cache,
	})
	if err != nil {
		logger.Error("startup failed", "error", err)
		return 1
	}
	// Deferred first, so it runs last: after the drain, on every path.
	defer func() {
		if err := ctx.Close(); err != nil {
			logger.Warn("dfs cleanup failed", "error", err)
		}
	}()
	// Cluster membership: -advertise turns this process into a fleet peer.
	// The node heartbeats its peers, gossips cache invalidations, and backs
	// the result cache's remote tier over the rendezvous ring.
	var node *cluster.Node
	if *advertise != "" {
		node, err = cluster.New(cluster.Options{
			Advertise:         *advertise,
			Peers:             splitPeers(*peers),
			HeartbeatInterval: *heartbeat,
			Cache:             cache,
			Metrics:           metrics,
			Log:               baseLog.With("component", "cluster"),
		})
		if err != nil {
			logger.Error("cluster startup failed", "error", err)
			return 1
		}
		if cache != nil {
			cache.SetRemote(node)
		}
		node.Start()
		defer node.Stop()
	}
	srv := restapi.NewWithOptions(ctx, serverUDFs(), restapi.Options{
		Jobs: jobs.Options{
			QueueDepth: *queue,
			Workers:    *workers,
			ResultTTL:  *resultTTL,
		},
		MaxBodyBytes:         *maxBody,
		TraceCapacity:        *traceCap,
		Log:                  baseLog,
		Cluster:              node,
		ClusterRoute:         *clusterRoute,
		ClusterExec:          *clusterExec,
		ClusterExecMinCostMs: *clusterExecMinCost,
		ScrapeTimeout:        *scrapeTimeout,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	sampler := telemetry.StartRuntimeSampler(ctx.Metrics, 0)

	// pprof gets its own mux on its own listener: profiling endpoints are
	// operator-only and must never ride on the public API address.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: mux}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof server stopped", "error", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	// Serve until SIGINT/SIGTERM, then drain: stop admitting new work,
	// finish in-flight requests and jobs, and report anything abandoned.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr,
		"platforms", fmt.Sprintf("%v", ctx.Registry.Mappings.Platforms()),
		"workers", *workers, "queue", *queue, "log_level", level,
		"cache_bytes", *cacheBytes, "cache_ttl", *cacheTTL)
	if node != nil {
		logger.Info("cluster joined", "advertise", *advertise,
			"peers", *peers, "route", *clusterRoute, "exec", *clusterExec, "heartbeat", *heartbeat)
	}

	select {
	case err := <-errCh:
		logger.Error("serve failed", "error", err)
		return 1
	case <-sigCtx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately
	logger.Info("shutting down", "drain_timeout", *drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if pprofSrv != nil {
		_ = pprofSrv.Shutdown(drainCtx)
	}
	closeErr := srv.Close(drainCtx)
	sampler.Stop()
	if closeErr != nil {
		logger.Error("drain incomplete", "error", closeErr)
		if errors.Is(closeErr, jobs.ErrClosed) {
			return 0
		}
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}

// splitPeers parses the -peers list, dropping empty elements.
func splitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// newLogger builds the server's base logger: slog text records on w,
// enabled from the level that name gives (debug, info, warn or error, in
// any case).
func newLogger(w io.Writer, name string) (*slog.Logger, slog.Level, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(name)); err != nil {
		return nil, 0, err
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})), level, nil
}

// serverUDFs is the demonstration UDF library (shared shape with cmd/rheem).
func serverUDFs() *latin.Registry {
	reg := latin.NewRegistry()
	reg.RegisterFlatMap("splitWords", func(q any) []any {
		fields := strings.Fields(q.(string))
		out := make([]any, len(fields))
		for i, w := range fields {
			out[i] = core.KV{Key: w, Value: int64(1)}
		}
		return out
	})
	reg.RegisterKey("wordOf", func(q any) any { return q.(core.KV).Key })
	reg.RegisterReduce("sumCounts", func(a, b any) any {
		ka, kb := a.(core.KV), b.(core.KV)
		return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
	})
	reg.RegisterMap("parseFloat", func(q any) any {
		f, _ := strconv.ParseFloat(strings.TrimSpace(q.(string)), 64)
		return f
	})
	reg.RegisterReduce("sum", func(a, b any) any { return a.(float64) + b.(float64) })
	return reg
}

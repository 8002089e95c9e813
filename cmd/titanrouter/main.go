// Command titanrouter fronts a sharded titand fleet: it
// consistent-hashes the node space across the replicas, splits every
// /ingest batch by owning replica and fans it out with retry against
// draining replicas, bounds each source feed's queue share (per-source
// QoS instead of a global 429), and serves cluster-wide reads —
// /alerts, /rollup, /top and /query — whose merged responses are
// byte-identical to a single daemon fed the undivided stream.
//
// Usage:
//
//	titanrouter -replicas http://h1:9123,http://h2:9123 [-addr :9100]
//	            [-share N] [-deliver-timeout D] [-read-timeout D]
//	            [-max-body N] [-pprof ADDR]
//
// Endpoints:
//
//	POST /ingest    newline-delimited console lines, optionally tagged
//	                with X-Titan-Source (202 delivered, 429 + X-Shed-Lines
//	                when the source is over its share, 502 + X-Failed-Lines
//	                when a replica stays unreachable)
//	GET  /alerts    the cluster alert stream, replayed from the replicas'
//	                merged evidence feeds
//	GET  /rollup    merged fleet-wide rollup (same parameters as titand)
//	GET  /top       merged offender ranking
//	GET  /query     merged titanql query
//	GET  /stats     router counters, per-source accounting included
//	GET  /metrics   the same snapshot in Prometheus text format
//	GET  /healthz   liveness
//
// SIGTERM or SIGINT shuts down gracefully: in-flight fan-outs finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"titanre/internal/router"
)

func main() {
	addr := flag.String("addr", ":9100", "listen address")
	replicas := flag.String("replicas", "", "comma-separated titand base URLs (required)")
	share := flag.Int("share", 0, "per-source in-flight line share (0 = default 8192)")
	deliverTimeout := flag.Duration("deliver-timeout", 0, "per-batch delivery budget including retries (0 = default 30s)")
	readTimeout := flag.Duration("read-timeout", 0, "read-side fan-out budget (0 = default 30s)")
	maxBody := flag.Int64("max-body", 0, "max /ingest body bytes (0 = default 8MiB)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address, e.g. localhost:6061 (empty = off)")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fatal(fmt.Errorf("need -replicas with at least one titand URL"))
	}

	rt, err := router.New(router.Config{
		Replicas:         urls,
		SourceShareLines: *share,
		MaxBodyBytes:     *maxBody,
		DeliverTimeout:   *deliverTimeout,
		ReadTimeout:      *readTimeout,
	})
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		// The profiler rides a side listener so profiling traffic never
		// competes with routed ingest on the service port.
		go func() {
			fmt.Fprintf(os.Stderr, "titanrouter: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "titanrouter: pprof: %v\n", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "titanrouter: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- rt.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "titanrouter: listening on %s, %d replica(s)\n", *addr, len(urls))
	if err := rt.Serve(*addr); err != nil {
		fatal(err)
	}
	if err := <-done; err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "titanrouter:", err)
	os.Exit(1)
}

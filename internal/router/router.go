// Package router is titanrouter's engine: a QoS-aware ingest router
// and deterministic read-side merger fronting N titand replicas — the
// fleet-scale face of the pipeline.
//
// A single titand tops out around half a million lines a second; a
// Titan-sized fleet (18,688 GPU nodes and their chatter) needs the node
// space sharded. The router consistent-hashes the interned topology
// table across the replicas (rendezvous hashing, so adding a replica
// only moves the nodes it wins), splits every /ingest batch
// newline-aligned by owning replica on the zero-allocation cname fast
// path, and fans the sub-batches out over pooled connections with
// jittered retry on replica 429/503 — a draining or restarting replica
// looks like latency, not loss.
//
// Admission control is per source, not global: each batch carries an
// X-Titan-Source feed identity, and the router bounds every source's
// in-flight line share. A flooding feed sheds against its own bound
// with exact accounting while well-behaved feeds keep flowing — the
// multi-tenant answer to titand's single-tenant 429.
//
// On the read side the router proves the standing gate at cluster
// scope: /rollup, /top and /query fan out as raw partial accumulators
// and merge with the store's commutative/associative kernels (replicas
// and segments are the same merge problem), and /alerts replays the
// replicas' merged evidence feeds through a fresh detector engine —
// every merged response byte-identical to an uninterrupted single
// daemon fed the same stream.
package router

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/console"
	"titanre/internal/serve"
)

// Config tunes the router.
type Config struct {
	// Replicas are the titand base URLs (e.g. "http://127.0.0.1:9123").
	// The node space is rendezvous-hashed across them; order does not
	// matter. At most 256 replicas.
	Replicas []string
	// SourceShareLines bounds one source's in-flight lines (default
	// 8192). A batch is shed when admitting it would push its source
	// over the share — except when the source has nothing in flight, so
	// one oversized batch can never livelock a feed.
	SourceShareLines int
	// MaxBodyBytes caps one /ingest body (default 8 MiB, matching titand).
	MaxBodyBytes int64
	// DeliverTimeout bounds one batch's fan-out end to end, including
	// retries against draining replicas (default 30 s).
	DeliverTimeout time.Duration
	// ReadTimeout bounds one read-side fan-out (default 30 s).
	ReadTimeout time.Duration
}

// Router is one titanrouter instance.
type Router struct {
	cfg    Config
	client *http.Client
	// owners maps every topology.NodeID to its owning replica index —
	// one array load per ingested line.
	owners []uint8
	// spill round-robins lines without a parseable cname; their
	// placement is load balancing, not correctness (no cname ⇒ no
	// event ⇒ no per-node state anywhere).
	spill atomic.Uint64

	// seqMu orders global line-sequence assignment; sequences are dense
	// over accepted batches, which is what makes the merged alert feed
	// replay in exact single-daemon stream order.
	seqMu   sync.Mutex
	nextSeq uint64

	srcMu   sync.Mutex
	sources map[string]*source

	metrics routerMetrics

	mux      *http.ServeMux
	listener net.Listener
	httpSrv  *http.Server
	lifeMu   sync.Mutex
}

// source is one feed's QoS state and exact accounting.
type source struct {
	inflight atomic.Int64

	offeredBatches  atomic.Uint64
	acceptedBatches atomic.Uint64
	shedBatches     atomic.Uint64
	failedBatches   atomic.Uint64
	offeredLines    atomic.Uint64
	acceptedLines   atomic.Uint64
	shedLines       atomic.Uint64
	failedLines     atomic.Uint64
}

// routerMetrics are the global counters behind /stats and /metrics.
type routerMetrics struct {
	start time.Time

	batchesOffered  atomic.Uint64
	batchesAccepted atomic.Uint64
	batchesShed     atomic.Uint64
	batchesFailed   atomic.Uint64
	batchesRejected atomic.Uint64
	linesOffered    atomic.Uint64
	linesDelivered  atomic.Uint64
	linesShed       atomic.Uint64
	linesFailed     atomic.Uint64
	subBatches      atomic.Uint64
	deliverRetries  atomic.Uint64
	readFanouts     atomic.Uint64
	readErrors      atomic.Uint64
	mergedAlerts    atomic.Uint64
	mergedQueries   atomic.Uint64
	degradedAlerts  atomic.Uint64
}

// New builds a router over the given replica set.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas")
	}
	if len(cfg.Replicas) > 256 {
		return nil, fmt.Errorf("router: %d replicas (max 256)", len(cfg.Replicas))
	}
	if cfg.SourceShareLines <= 0 {
		cfg.SourceShareLines = 8192
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.DeliverTimeout <= 0 {
		cfg.DeliverTimeout = 30 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	rt := &Router{
		cfg: cfg,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        4 * len(cfg.Replicas),
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		owners:  buildOwners(cfg.Replicas),
		sources: make(map[string]*source),
		metrics: routerMetrics{start: time.Now()},
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /ingest", rt.handleIngest)
	rt.mux.HandleFunc("GET /alerts", rt.handleAlerts)
	rt.mux.HandleFunc("GET /rollup", rt.handleMerged)
	rt.mux.HandleFunc("GET /top", rt.handleMerged)
	rt.mux.HandleFunc("GET /query", rt.handleMerged)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Serve listens on addr and serves until Shutdown.
func (rt *Router) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	return rt.ServeListener(ln)
}

// ServeListener serves on an existing listener (tests inject one).
func (rt *Router) ServeListener(ln net.Listener) error {
	rt.lifeMu.Lock()
	rt.listener = ln
	rt.httpSrv = &http.Server{Handler: rt.mux, ReadHeaderTimeout: 5 * time.Second}
	srv := rt.httpSrv
	rt.lifeMu.Unlock()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("router: %w", err)
	}
	return nil
}

// Addr returns the bound address, or "" before Serve.
func (rt *Router) Addr() string {
	rt.lifeMu.Lock()
	defer rt.lifeMu.Unlock()
	if rt.listener == nil {
		return ""
	}
	return rt.listener.Addr().String()
}

// Shutdown stops accepting requests; in-flight fan-outs complete.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.lifeMu.Lock()
	srv := rt.httpSrv
	rt.lifeMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// source returns the accounting record for a feed, creating it on
// first sight. An empty header maps to "default".
func (rt *Router) source(name string) (string, *source) {
	if name == "" {
		name = "default"
	}
	rt.srcMu.Lock()
	defer rt.srcMu.Unlock()
	src := rt.sources[name]
	if src == nil {
		src = &source{}
		rt.sources[name] = src
	}
	return name, src
}

// ownerOf routes one line: topology-hashed when it names a node,
// round-robin spill otherwise.
func (rt *Router) ownerOf(line []byte, _ int) int {
	if node, ok := console.LineNode(line); ok {
		return int(rt.owners[node])
	}
	return int(rt.spill.Add(1)-1) % len(rt.cfg.Replicas)
}

// handleIngest admits one batch under the per-source QoS bound, splits
// it by owning replica and fans it out. 202: every line delivered;
// 429: the source is over its share (X-Shed-Lines, exact); 502: a
// replica could not be reached within DeliverTimeout (X-Failed-Lines
// counts the undelivered share; delivered lines stay delivered).
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		rt.metrics.batchesRejected.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "body over limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	if len(body) == 0 {
		rt.metrics.batchesRejected.Add(1)
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	lines := countLines(body)
	srcName, src := rt.source(r.Header.Get(serve.SourceHeader))
	src.offeredBatches.Add(1)
	src.offeredLines.Add(uint64(lines))
	rt.metrics.batchesOffered.Add(1)
	rt.metrics.linesOffered.Add(uint64(lines))

	// QoS admission: all-or-nothing per batch against the source's
	// in-flight share. The after != lines clause is the progress
	// guarantee — a source with nothing in flight always gets one batch
	// through, however large, so a share smaller than a batch degrades
	// to serialized delivery instead of a livelock.
	after := src.inflight.Add(int64(lines))
	if after > int64(rt.cfg.SourceShareLines) && after != int64(lines) {
		src.inflight.Add(int64(-lines))
		src.shedBatches.Add(1)
		src.shedLines.Add(uint64(lines))
		rt.metrics.batchesShed.Add(1)
		rt.metrics.linesShed.Add(uint64(lines))
		w.Header().Set("Retry-After", "1")
		w.Header().Set("X-Shed-Lines", fmt.Sprint(lines))
		http.Error(w, fmt.Sprintf("source %q over its queue share, batch shed", srcName), http.StatusTooManyRequests)
		return
	}
	defer src.inflight.Add(int64(-lines))

	// Sequence assignment is the only globally serialized step: the
	// batch owns [base, base+lines), and each sub-batch line maps back
	// through its position mask.
	rt.seqMu.Lock()
	base := rt.nextSeq
	rt.nextSeq += uint64(lines)
	rt.seqMu.Unlock()

	bodies, masks, counts, _ := console.SplitBatch(body, len(rt.cfg.Replicas), rt.ownerOf)

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.DeliverTimeout)
	defer cancel()
	var wg sync.WaitGroup
	failed := make([]int, len(bodies)) // failed line count per replica
	for ri := range bodies {
		if counts[ri] == 0 {
			continue
		}
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			rt.metrics.subBatches.Add(1)
			if err := rt.deliver(ctx, ri, bodies[ri], srcName, base, masks[ri]); err != nil {
				failed[ri] = counts[ri]
			}
		}(ri)
	}
	wg.Wait()

	failedLines := 0
	for _, n := range failed {
		failedLines += n
	}
	delivered := lines - failedLines
	src.acceptedLines.Add(uint64(delivered))
	rt.metrics.linesDelivered.Add(uint64(delivered))
	if failedLines > 0 {
		src.failedBatches.Add(1)
		src.failedLines.Add(uint64(failedLines))
		rt.metrics.batchesFailed.Add(1)
		rt.metrics.linesFailed.Add(uint64(failedLines))
		w.Header().Set("X-Failed-Lines", fmt.Sprint(failedLines))
		http.Error(w, "replica delivery failed", http.StatusBadGateway)
		return
	}
	src.acceptedBatches.Add(1)
	rt.metrics.batchesAccepted.Add(1)
	w.WriteHeader(http.StatusAccepted)
}

// deliver POSTs one sub-batch to its replica, retrying 429, 503 and
// connection errors with jittered exponential backoff until ctx
// expires — a replica mid-drain or mid-restart is absorbed here, which
// is what lets the fleet keep its exactly-once line accounting across
// replica lifecycle events.
func (rt *Router) deliver(ctx context.Context, ri int, body []byte, srcName string, base uint64, mask []uint64) error {
	url := rt.cfg.Replicas[ri] + "/ingest"
	maskHdr := base64.StdEncoding.EncodeToString(console.MaskBytes(mask))
	backoff := 5 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("router: building request: %w", err)
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set(serve.SourceHeader, srcName)
		req.Header.Set(serve.SeqBaseHeader, strconv.FormatUint(base, 10))
		req.Header.Set(serve.SeqMaskHeader, maskHdr)
		resp, err := rt.client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				return nil
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if ra := resp.Header.Get("Retry-After"); ra != "" {
					if secs, aerr := strconv.Atoi(ra); aerr == nil && secs > 0 {
						backoff = time.Duration(secs) * time.Second / 10
					}
				}
			default:
				return fmt.Errorf("router: replica %s: unexpected status %s", rt.cfg.Replicas[ri], resp.Status)
			}
		}
		// Connection error (replica restarting), 429 (replica queue
		// full) or 503 (replica draining): back off and try again.
		rt.metrics.deliverRetries.Add(1)
		select {
		case <-time.After(jitter(backoff)):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// jitter spreads a backoff uniformly over [d/2, 3d/2) so senders shed
// by the same drain don't return in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// countLines counts newline-delimited records exactly as titand does:
// one per newline, plus a final unterminated line.
func countLines(data []byte) int {
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

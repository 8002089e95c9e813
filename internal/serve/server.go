// Package serve is titand's engine: a streaming reliability-telemetry
// service over the study's console-event pipeline. It accepts raw
// console lines over HTTP, decodes them on the zero-allocation fast path
// (regex fallback for deviating lines), folds them through sharded
// per-node state actors — sliding-window XID rates, per-card error
// counters and the dynamic page-retirement machine — and runs the
// cross-node operator detectors (package alert) plus armed precursor
// rules (package predict) online. State is served as JSON, operational
// counters in the Prometheus text format.
//
// The service is explicitly overload-aware: admission is a bounded
// queue, a full queue sheds load with 429 and exact dropped-line
// accounting, and SIGTERM drains the pipeline before flushing the
// retained event log to a dataset-compatible snapshot.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"titanre/internal/alert"
	"titanre/internal/console"
	"titanre/internal/predict"
	"titanre/internal/store"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Config tunes the service.
type Config struct {
	// Shards is the number of per-node state actors (default GOMAXPROCS).
	Shards int
	// ParseWorkers is the decode fan-out (default GOMAXPROCS).
	ParseWorkers int
	// QueueDepth is the admission queue capacity in batches (default 256).
	// When it is full, POST /ingest sheds with 429.
	QueueDepth int
	// ShardQueueDepth bounds each state actor's inbox (default 1024
	// events); a slow shard backpressures the applier and, through it,
	// the admission queue.
	ShardQueueDepth int
	// MaxBodyBytes caps one /ingest body (default 8 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds one request end to end (default 10 s).
	RequestTimeout time.Duration
	// RateWindow is the sliding window for per-node XID rates
	// (default 24 h, the paper's burst-detection horizon).
	RateWindow time.Duration
	// Alerts configures the streaming operator detectors.
	Alerts alert.Config
	// Model, when non-nil, arms its precursor rules; /warnings serves
	// what they issue.
	Model *predict.Model
	// RetainEvents keeps every applied event in memory so a shutdown
	// snapshot can be written (default true; the ingest benchmark turns
	// it off).
	RetainEvents bool
	// SnapshotDir, when non-empty, receives a dataset-compatible
	// snapshot of the retained events on Shutdown.
	SnapshotDir string
	// CompactDir, when non-empty, enables compaction: retained events
	// older than CompactAge (measured against the newest applied event,
	// so historical replays compact too) are sealed into columnar
	// segments under this directory and dropped from memory, bounding
	// the retained log. Shutdown seals the remaining tail, so the
	// segments always hold the complete history afterwards.
	CompactDir string
	// CompactInterval is the background compaction cadence
	// (default 1 min when CompactDir is set).
	CompactInterval time.Duration
	// CompactAge is the minimum event age before sealing (default 10 min
	// of stream time); younger events stay hot in memory.
	CompactAge time.Duration
	// CompactMin is the minimum number of sealable events worth a
	// segment (default 1024); smaller backlogs wait for the next tick.
	CompactMin int
	// MmapSegments backs sealed-segment reads with read-only file
	// mappings (heap fallback on platforms without mmap): segment
	// columns alias the page cache, so fleet-wide scans and rollups run
	// at disk bandwidth with near-zero resident heap. DefaultConfig
	// enables it; a zero-value Config keeps the heap path.
	MmapSegments bool
	// JournalDir, when non-empty, enables the arrival-order write-ahead
	// journal: every applied event is appended (as its canonical console
	// rendering) before it touches the online state, so a kill -9
	// restart replays segments then journal and lands byte-identical to
	// an uninterrupted daemon. Requires CompactDir (compaction drives
	// journal truncation) and a WarmStart before ingest.
	JournalDir string
	// JournalFsync is the journal durability policy: FsyncAlways (sync
	// every batch commit), FsyncInterval (timer-driven, the default) or
	// FsyncOff (page cache only).
	JournalFsync string
	// JournalSyncInterval is the FsyncInterval cadence (default 100 ms).
	JournalSyncInterval time.Duration
	// JournalRotateBytes caps one journal file (default 4 MiB).
	JournalRotateBytes int64
	// AlertFeed enables the cluster alert-feed collector: every applied
	// event tagged with a router-assigned global sequence contributes
	// evidence to GET /alertfeed, which a titanrouter merges across
	// replicas and replays into the exact single-daemon alert stream
	// (see alertfeed.go). DefaultConfig enables it; the collector costs
	// nothing measurable unless sequence-tagged batches arrive.
	AlertFeed bool
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Shards:          runtime.GOMAXPROCS(0),
		ParseWorkers:    runtime.GOMAXPROCS(0),
		QueueDepth:      256,
		ShardQueueDepth: 1024,
		MaxBodyBytes:    8 << 20,
		RequestTimeout:  10 * time.Second,
		RateWindow:      24 * time.Hour,
		Alerts:          alert.DefaultConfig(),
		RetainEvents:    true,
		MmapSegments:    true,
		AlertFeed:       true,
	}
}

// Server is one titand instance.
type Server struct {
	cfg     Config
	metrics *metrics
	queue   *ingestQueue
	reorder *reorder
	shards  *shardSet

	// stateMu guards everything the applier owns.
	stateMu     sync.Mutex
	alertEngine *alert.Engine
	warner      *predict.Warner
	codeTotals  map[xid.Code]int
	events      []console.Event
	// maxApplied is the newest event time applied so far; compaction
	// measures CompactAge against it so historical replays age out the
	// same way live streams do.
	maxApplied time.Time

	// viewMu makes the history visible to queries consistent across the
	// sealed/retained boundary: compaction publishes a sealed chunk and
	// trims the same events from the retained tail under the write lock,
	// and historyView captures (segments, tail) under the read lock, so
	// no reader ever sees an event in both places or in neither. Lock
	// order: viewMu before stateMu; sealedMu is never held across either.
	viewMu sync.RWMutex

	// sealedMu guards the sealed segment store handle; the store itself
	// is internally synchronized. lastCompact is the unix time of the
	// last successful compaction (0 = never).
	sealedMu    sync.Mutex
	sealed      *store.Store
	compactMu   sync.Mutex
	lastCompact atomic.Int64
	compactStop chan struct{}
	compactWG   sync.WaitGroup

	// journal is the write-ahead journal (nil unless JournalDir is set
	// and WarmStart opened it); sealedSeq is the global sequence the
	// sealed history durably covers — the SEALED floor — advanced by
	// compaction and used to truncate the journal.
	journal   atomic.Pointer[Journal]
	sealedSeq atomic.Uint64

	// recovMu guards the degraded-start bookkeeping WarmStart fills
	// when segments had to be quarantined.
	recovMu    sync.Mutex
	recovery   store.Recovery
	eventsLost uint64

	// feed is the cluster alert-feed collector (nil unless
	// Config.AlertFeed); sources is the per-source ingest accounting
	// keyed by the X-Titan-Source header.
	feed      *alertFeed
	sourcesMu sync.Mutex
	sources   map[string]*sourceCounters

	parseWG sync.WaitGroup
	applyWG sync.WaitGroup
	// stallGate, when holding a chan struct{}, makes parse workers block
	// on it before each batch; the load-shedding test uses it to fill the
	// admission queue deterministically.
	stallGate atomic.Value
	// appliedBatches counts batches fully applied AND dispatched; with
	// dense sequence numbers it equals the applier's progress through
	// the admitted stream (Quiesce compares it against queue.next).
	appliedBatches atomic.Uint64

	mux      *http.ServeMux
	listener net.Listener
	httpSrv  *http.Server

	lifecycleMu sync.Mutex
	started     bool
	drained     bool
	draining    bool
}

// NewServer builds a server; the pipeline goroutines start immediately
// so a handler obtained from Handler can be used without Serve.
func NewServer(cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.ParseWorkers <= 0 {
		cfg.ParseWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.ShardQueueDepth <= 0 {
		cfg.ShardQueueDepth = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RateWindow <= 0 {
		cfg.RateWindow = 24 * time.Hour
	}
	if cfg.CompactDir != "" {
		if cfg.CompactInterval <= 0 {
			cfg.CompactInterval = time.Minute
		}
		if cfg.CompactAge <= 0 {
			cfg.CompactAge = 10 * time.Minute
		}
		if cfg.CompactMin <= 0 {
			cfg.CompactMin = 1024
		}
	}
	s := &Server{
		cfg:         cfg,
		metrics:     newMetrics(time.Now()),
		queue:       newIngestQueue(cfg.QueueDepth),
		reorder:     newReorder(),
		shards:      newShardSet(cfg.Shards, cfg.RateWindow, cfg.ShardQueueDepth),
		alertEngine: alert.NewEngine(cfg.Alerts),
		codeTotals:  make(map[xid.Code]int),
		sources:     make(map[string]*sourceCounters),
	}
	if cfg.AlertFeed {
		s.feed = newAlertFeed(cfg.Alerts)
	}
	if cfg.Model != nil {
		s.warner = predict.NewWarner(cfg.Model)
	}
	for i := 0; i < cfg.ParseWorkers; i++ {
		s.parseWG.Add(1)
		go s.parseWorker()
	}
	s.applyWG.Add(1)
	go s.applier()
	if cfg.CompactDir != "" {
		s.compactStop = make(chan struct{})
		s.compactWG.Add(1)
		go s.compactLoop()
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /nodes/{cname}", s.handleNode)
	s.mux.HandleFunc("GET /nodes/{cname}/history", s.handleNodeHistory)
	s.mux.HandleFunc("GET /codes/{xid}/history", s.handleCodeHistory)
	s.mux.HandleFunc("GET /rollup", s.handleRollup)
	s.mux.HandleFunc("GET /top", s.handleTop)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /alertfeed", s.handleAlertFeed)
	s.mux.HandleFunc("GET /warnings", s.handleWarnings)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP handler with the per-request timeout applied
// to everything except /ingest (which enforces its own deadline so a
// shed decision is still a fast 429, not a slow 503).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// Serve listens on addr and serves until Shutdown.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.ServeListener(ln)
}

// ServeListener serves on an existing listener (tests inject one).
func (s *Server) ServeListener(ln net.Listener) error {
	s.lifecycleMu.Lock()
	s.listener = ln
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.started = true
	srv := s.httpSrv
	s.lifecycleMu.Unlock()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Addr returns the bound address, or "" before Serve.
func (s *Server) Addr() string {
	s.lifecycleMu.Lock()
	defer s.lifecycleMu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Shutdown drains gracefully: stop accepting connections (in-flight
// requests complete), close the admission queue, wait for the parse
// workers, the applier and the shard actors to drain everything already
// admitted, then write the snapshot if configured. Safe to call more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifecycleMu.Lock()
	if s.drained {
		s.lifecycleMu.Unlock()
		return nil
	}
	s.draining = true
	srv := s.httpSrv
	s.lifecycleMu.Unlock()

	var httpErr error
	if srv != nil {
		httpErr = srv.Shutdown(ctx)
	}

	// Everything admitted before the queue closed gets applied; the
	// reorder seal tells the applier where the stream ends.
	limit := s.queue.close()
	s.parseWG.Wait()
	s.reorder.seal(limit)
	s.applyWG.Wait()
	s.shards.close()

	s.lifecycleMu.Lock()
	s.drained = true
	s.lifecycleMu.Unlock()

	// Stop the background compactor, then seal what it left: after the
	// final flush the segments hold the complete applied history, making
	// the compact directory alone sufficient for a warm restart.
	if s.compactStop != nil {
		close(s.compactStop)
		s.compactWG.Wait()
	}
	if s.cfg.CompactDir != "" && s.cfg.RetainEvents {
		if _, err := s.compact(0, 1); err != nil {
			return err
		}
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.WriteSnapshot(s.cfg.SnapshotDir); err != nil {
			return err
		}
		if s.feed != nil {
			// The collector persists beside the event snapshot so a warm
			// restart resumes with cluster alert evidence intact; the
			// drain above already applied everything admitted, so the
			// snapshot's covered count equals the replayable history.
			if err := s.feed.writeSnapshot(s.cfg.SnapshotDir); err != nil {
				return err
			}
		}
	}
	// The journal closes last: the final seal above already advanced the
	// floor past everything it held, so after a clean shutdown a warm
	// start replays segments alone.
	if j := s.journal.Load(); j != nil {
		if err := j.Close(); err != nil && httpErr == nil {
			httpErr = fmt.Errorf("serve: closing journal: %w", err)
		}
	}
	return httpErr
}

// applyEventLocked folds one event into the cross-node state the
// applier owns — alert engine, precursor warner, per-code totals, the
// age watermark. stateMu must be held. The live applier, segment
// replay and journal replay all feed through here, which is what makes
// a restarted daemon's detector state bit-equal to an uninterrupted
// one's.
func (s *Server) applyEventLocked(ev console.Event) {
	before := s.alertEngine.Count()
	s.alertEngine.Feed(ev)
	if d := s.alertEngine.Count() - before; d > 0 {
		s.metrics.alertsRaised.Add(uint64(d))
	}
	if s.warner != nil {
		if _, warned := s.warner.Feed(ev); warned {
			s.metrics.warningsIssued.Add(1)
		}
	}
	s.codeTotals[ev.Code]++
	if ev.Time.After(s.maxApplied) {
		s.maxApplied = ev.Time
	}
}

// Journal returns the open write-ahead journal, nil when journaling is
// not active.
func (s *Server) Journal() *Journal { return s.journal.Load() }

// ---- Handlers ----

// handleIngest admits one newline-delimited batch of console lines.
// 202: admitted; 429: load shed (body X-Shed-Lines counts the discarded
// lines); 503: draining; 400/413: malformed.
//
// Three optional headers extend the contract for cluster operation:
// X-Titan-Source tags the batch's feed for per-source accounting, and
// X-Titan-Seq-Base / X-Titan-Seq-Mask carry the router's global line
// sequencing (both or neither; the mask popcount must equal the body's
// line count, else 400 — a split/seq disagreement must never be
// silently mis-sequenced).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.metrics.batchesRejected.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "body over limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	if len(body) == 0 {
		s.metrics.batchesRejected.Add(1)
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	lines := countLines(body)
	seqBase, positions, err := parseSeqHeaders(r, lines)
	if err != nil {
		s.metrics.batchesRejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	source := r.Header.Get(SourceHeader)
	ok, closed := s.queue.offer(body, seqBase, positions)
	switch {
	case ok:
		s.metrics.batchesAccepted.Add(1)
		s.bookSource(source, lines, true)
		s.metrics.observeLatency(time.Since(t0))
		w.WriteHeader(http.StatusAccepted)
	case closed:
		s.metrics.batchesRejected.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	default:
		s.metrics.batchesShed.Add(1)
		s.metrics.linesShed.Add(uint64(lines))
		s.bookSource(source, lines, false)
		w.Header().Set("Retry-After", "1")
		w.Header().Set("X-Shed-Lines", fmt.Sprint(lines))
		http.Error(w, "ingest queue full, batch shed", http.StatusTooManyRequests)
	}
}

// parseSeqHeaders reads the router's sequence tagging. Returns a nil
// positions slice when the batch is untagged.
func parseSeqHeaders(r *http.Request, lines int) (uint64, []int32, error) {
	baseStr := r.Header.Get(SeqBaseHeader)
	maskStr := r.Header.Get(SeqMaskHeader)
	if baseStr == "" && maskStr == "" {
		return 0, nil, nil
	}
	if baseStr == "" || maskStr == "" {
		return 0, nil, fmt.Errorf("%s and %s must be set together", SeqBaseHeader, SeqMaskHeader)
	}
	base, err := strconv.ParseUint(baseStr, 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("bad %s %q: %v", SeqBaseHeader, baseStr, err)
	}
	raw, err := base64.StdEncoding.DecodeString(maskStr)
	if err != nil {
		return 0, nil, fmt.Errorf("bad %s: %v", SeqMaskHeader, err)
	}
	mask := console.MaskFromBytes(raw)
	if got := console.MaskCount(mask); got != lines {
		return 0, nil, fmt.Errorf("%s popcount %d != body line count %d", SeqMaskHeader, got, lines)
	}
	return base, console.MaskPositions(mask), nil
}

// sourceCounters is the per-source ingest accounting; the invariant
// offered == accepted + shed holds exactly (503 drain responses are
// booked in neither — the batch was never offered to the queue and the
// client retries it).
type sourceCounters struct {
	offeredBatches, acceptedBatches, shedBatches uint64
	offeredLines, acceptedLines, shedLines       uint64
}

// bookSource books one admission decision against the batch's source.
// Untagged batches (no X-Titan-Source) are not tracked.
func (s *Server) bookSource(source string, lines int, accepted bool) {
	if source == "" {
		return
	}
	s.sourcesMu.Lock()
	defer s.sourcesMu.Unlock()
	sc := s.sources[source]
	if sc == nil {
		sc = &sourceCounters{}
		s.sources[source] = sc
	}
	sc.offeredBatches++
	sc.offeredLines += uint64(lines)
	if accepted {
		sc.acceptedBatches++
		sc.acceptedLines += uint64(lines)
	} else {
		sc.shedBatches++
		sc.shedLines += uint64(lines)
	}
}

// SourceStats is the per-source slice of /stats.
type SourceStats struct {
	OfferedBatches  uint64 `json:"offered_batches"`
	AcceptedBatches uint64 `json:"accepted_batches"`
	ShedBatches     uint64 `json:"shed_batches"`
	OfferedLines    uint64 `json:"offered_lines"`
	AcceptedLines   uint64 `json:"accepted_lines"`
	ShedLines       uint64 `json:"shed_lines"`
}

// sourceStats snapshots the per-source accounting.
func (s *Server) sourceStats() map[string]SourceStats {
	s.sourcesMu.Lock()
	defer s.sourcesMu.Unlock()
	if len(s.sources) == 0 {
		return nil
	}
	out := make(map[string]SourceStats, len(s.sources))
	for name, sc := range s.sources {
		out[name] = SourceStats{
			OfferedBatches:  sc.offeredBatches,
			AcceptedBatches: sc.acceptedBatches,
			ShedBatches:     sc.shedBatches,
			OfferedLines:    sc.offeredLines,
			AcceptedLines:   sc.acceptedLines,
			ShedLines:       sc.shedLines,
		}
	}
	return out
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	cname := r.PathValue("cname")
	node, err := topology.ParseNodeID(cname)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad cname %q: %v", cname, err), http.StatusBadRequest)
		return
	}
	view, ok := s.shards.nodeView(node)
	if !ok {
		http.Error(w, fmt.Sprintf("no state for %s", cname), http.StatusNotFound)
		return
	}
	writeJSON(w, view)
}

// HistoryEvent is the JSON shape of one event in a node's history.
type HistoryEvent struct {
	Time   time.Time `json:"time"`
	Code   string    `json:"code"`
	Serial string    `json:"serial,omitempty"`
	// Page is the framebuffer page for ECC events; negative when not
	// applicable (mirrors console.Event.Page).
	Page int32 `json:"page"`
	Job  int64 `json:"job,omitempty"`
}

// NodeHistory is the GET /nodes/{cname}/history document.
type NodeHistory struct {
	Node     string         `json:"node"`
	Sealed   int            `json:"sealed_events"`
	Retained int            `json:"retained_events"`
	Events   []HistoryEvent `json:"events"`
}

// historyView captures a consistent (sealed segments, retained tail)
// snapshot under viewMu: compaction publishes a chunk and trims the
// tail under the same lock, so the pair never double-counts or drops an
// event mid-compaction. Both halves are immutable after capture — the
// segments are sealed and the tail is a capacity-clamped slice of an
// append-only log — so the (possibly slow) scans run lock-free.
func (s *Server) historyView() ([]*store.Segment, []console.Event) {
	s.viewMu.RLock()
	defer s.viewMu.RUnlock()
	var segs []*store.Segment
	if sealed := s.sealedPeek(); sealed != nil {
		segs = sealed.Segments()
	}
	s.stateMu.Lock()
	tail := s.events[:len(s.events):len(s.events)]
	s.stateMu.Unlock()
	return segs, tail
}

// handleNodeHistory serves a node's full event history: sealed segments
// outside [since, until] are pruned without touching their columns, the
// rest walked at the node's rows, then the retained tail is appended —
// in arrival order, from one consistent snapshot (scanHistory).
// Optional ?since= / ?until= bound the range.
func (s *Server) handleNodeHistory(w http.ResponseWriter, r *http.Request) {
	cname := r.PathValue("cname")
	node, err := topology.ParseNodeID(cname)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad cname %q: %v", cname, err), http.StatusBadRequest)
		return
	}
	m, ok := historyMatcher(w, r, store.Predicate{Node: topology.CNameOf(node), Cage: -1})
	if !ok {
		return
	}

	events, sealed := s.scanHistory(m)
	hist := NodeHistory{
		Node:     topology.CNameOf(node),
		Sealed:   sealed,
		Retained: len(events) - sealed,
		Events:   make([]HistoryEvent, 0, len(events)),
	}
	for _, ev := range events {
		he := HistoryEvent{Time: ev.Time, Code: ev.Code.String(), Page: ev.Page, Job: int64(ev.Job)}
		if ev.Serial != 0 {
			he.Serial = ev.Serial.String()
		}
		hist.Events = append(hist.Events, he)
	}
	writeJSON(w, hist)
}

// AlertView is the JSON shape of one raised alert.
type AlertView struct {
	Kind   string    `json:"kind"`
	Time   time.Time `json:"time"`
	Code   string    `json:"code"`
	Node   string    `json:"node"`
	Serial string    `json:"serial,omitempty"`
	Count  int       `json:"count,omitempty"`
	Detail string    `json:"detail"`
	// Text is the canonical rendering — byte-identical to the batch
	// pipeline's alert.Alert.String() for the same stream.
	Text string `json:"text"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	alerts := s.alertEngine.Alerts()
	s.stateMu.Unlock()
	writeJSON(w, AlertViews(alerts))
}

// AlertViews renders raised alerts into the /alerts JSON shape — shared
// with the router, whose merged cluster alert stream must be
// byte-identical to a single daemon's response.
func AlertViews(alerts []alert.Alert) []AlertView {
	views := make([]AlertView, 0, len(alerts))
	for _, a := range alerts {
		v := AlertView{
			Kind:   a.Kind.String(),
			Time:   a.Time,
			Code:   a.Code.String(),
			Node:   topology.CNameOf(a.Node),
			Count:  a.Count,
			Detail: a.Detail,
			Text:   a.String(),
		}
		if a.Serial != 0 {
			v.Serial = a.Serial.String()
		}
		views = append(views, v)
	}
	return views
}

// WarningView is the JSON shape of one issued precursor warning.
type WarningView struct {
	Time       time.Time `json:"time"`
	Node       string    `json:"node"`
	Precursor  string    `json:"precursor"`
	Target     string    `json:"target"`
	Confidence float64   `json:"confidence"`
	Deadline   time.Time `json:"deadline"`
	// Text is the canonical rendering, byte-identical to the batch
	// pipeline's predict.Warning.String().
	Text string `json:"text"`
}

func (s *Server) handleWarnings(w http.ResponseWriter, r *http.Request) {
	s.stateMu.Lock()
	var warnings []predict.Warning
	if s.warner != nil {
		warnings = s.warner.Warnings()
	}
	s.stateMu.Unlock()
	views := make([]WarningView, 0, len(warnings))
	for _, warn := range warnings {
		views = append(views, WarningView{
			Time:       warn.Time,
			Node:       topology.CNameOf(warn.Node),
			Precursor:  warn.Precursor.String(),
			Target:     warn.Target.String(),
			Confidence: warn.Confidence,
			Deadline:   warn.Deadline,
			Text:       warn.String(),
		})
	}
	writeJSON(w, views)
}

// Stats is the /stats JSON document.
type Stats struct {
	UptimeSeconds   float64        `json:"uptime_seconds"`
	BatchesAccepted uint64         `json:"batches_accepted"`
	BatchesShed     uint64         `json:"batches_shed"`
	BatchesRejected uint64         `json:"batches_rejected"`
	LinesAccepted   uint64         `json:"lines_accepted"`
	LinesShed       uint64         `json:"lines_shed"`
	Events          uint64         `json:"events_decoded"`
	EventsApplied   uint64         `json:"events_applied"`
	Chatter         uint64         `json:"lines_chatter"`
	Malformed       uint64         `json:"lines_malformed"`
	Oversized       uint64         `json:"lines_oversized"`
	FastHits        uint64         `json:"decode_fast_hits"`
	FastFallbacks   uint64         `json:"decode_fast_fallbacks"`
	AlertsRaised    uint64         `json:"alerts_raised"`
	WarningsIssued  uint64         `json:"warnings_issued"`
	QueueDepth      int            `json:"queue_depth"`
	QueueCapacity   int            `json:"queue_capacity"`
	NodesTracked    int            `json:"nodes_tracked"`
	CardsTracked    int            `json:"cards_tracked"`
	Shards          int            `json:"shards"`
	EventsByCode    map[string]int `json:"events_by_code"`

	// Compaction and memory (see internal/store): the retained tail is
	// what is still hot in memory; sealed figures cover the on-disk
	// columnar segments.
	RetainedEvents     int    `json:"retained_events"`
	SealedSegments     int    `json:"sealed_segments"`
	SealedEvents       int    `json:"sealed_events"`
	SealedSegmentBytes int64  `json:"sealed_segment_bytes"`
	SealedMappedBytes  int64  `json:"sealed_mapped_bytes"`
	Compactions        uint64 `json:"compactions"`
	CompactionRetries  uint64 `json:"compaction_retries"`
	EventsSealed       uint64 `json:"events_sealed"`
	LastCompactionUnix int64  `json:"last_compaction_unix"`
	HeapInuseBytes     uint64 `json:"heap_inuse_bytes"`

	// Crash recovery: Degraded is true when a warm start had to
	// quarantine corrupt segments; the quarantine figures are exact
	// (EventsLost comes from the SEALED floor — the sequence the history
	// should cover minus what actually loaded).
	Degraded            bool   `json:"degraded"`
	QuarantinedSegments int    `json:"quarantined_segments"`
	QuarantinedBytes    int64  `json:"quarantined_bytes"`
	EventsLost          uint64 `json:"events_lost_to_quarantine"`
	OrphansRemoved      int    `json:"orphans_removed"`
	SealedSeq           uint64 `json:"sealed_seq"`

	// Fleet-wide query endpoints.
	QueryCodeHistory uint64 `json:"query_code_history"`
	QueryRollup      uint64 `json:"query_rollup"`
	QueryTop         uint64 `json:"query_top"`
	Queries          uint64 `json:"queries"`
	QueryErrors      uint64 `json:"query_errors"`

	// Journal is present when the write-ahead journal is active.
	Journal *JournalStats `json:"journal,omitempty"`

	// Sources is the per-source ingest accounting (batches tagged with
	// X-Titan-Source); offered == accepted + shed holds per source.
	Sources map[string]SourceStats `json:"sources,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.StatsNow())
}

// StatsNow assembles the current /stats document.
func (s *Server) StatsNow() Stats {
	m := s.metrics
	st := Stats{
		UptimeSeconds:   time.Since(m.start).Seconds(),
		BatchesAccepted: m.batchesAccepted.Load(),
		BatchesShed:     m.batchesShed.Load(),
		BatchesRejected: m.batchesRejected.Load(),
		LinesAccepted:   m.linesAccepted.Load(),
		LinesShed:       m.linesShed.Load(),
		Events:          m.events.Load(),
		EventsApplied:   m.eventsApplied.Load(),
		Chatter:         m.dropped.Load(),
		Malformed:       m.malformed.Load(),
		Oversized:       m.oversized.Load(),
		FastHits:        m.fastHits.Load(),
		FastFallbacks:   m.fastFallbacks.Load(),
		AlertsRaised:    m.alertsRaised.Load(),
		WarningsIssued:  m.warningsIssued.Load(),
		QueueDepth:      s.queue.depth(),
		QueueCapacity:   s.cfg.QueueDepth,
		Shards:          s.cfg.Shards,
		EventsByCode:    map[string]int{},
	}
	st.NodesTracked, st.CardsTracked = s.trackedCounts()
	s.stateMu.Lock()
	for code, n := range s.codeTotals {
		st.EventsByCode[code.String()] = n
	}
	st.RetainedEvents = len(s.events)
	s.stateMu.Unlock()
	if sealed := s.sealedPeek(); sealed != nil {
		st.SealedSegments = sealed.SegmentCount()
		st.SealedEvents = sealed.EventCount()
		st.SealedSegmentBytes = sealed.DiskBytes()
		st.SealedMappedBytes = sealed.MappedBytes()
	}
	st.QueryCodeHistory = m.queryCodeHistory.Load()
	st.QueryRollup = m.queryRollup.Load()
	st.QueryTop = m.queryTop.Load()
	st.Queries = m.queries.Load()
	st.QueryErrors = m.queryErrors.Load()
	st.Compactions = m.compactions.Load()
	st.CompactionRetries = m.compactRetries.Load()
	st.EventsSealed = m.eventsSealed.Load()
	st.LastCompactionUnix = s.lastCompact.Load()
	st.SealedSeq = s.sealedSeq.Load()
	s.recovMu.Lock()
	st.QuarantinedSegments = len(s.recovery.Quarantined)
	st.QuarantinedBytes = s.recovery.QuarantinedBytes
	st.OrphansRemoved = s.recovery.OrphansRemoved
	st.EventsLost = s.eventsLost
	s.recovMu.Unlock()
	st.Degraded = st.QuarantinedSegments > 0 || st.EventsLost > 0
	if j := s.journal.Load(); j != nil {
		js := j.Stats()
		st.Journal = &js
	}
	st.Sources = s.sourceStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.HeapInuseBytes = ms.HeapInuse
	return st
}

// trackedCounts queries the shards unless the pipeline is already
// drained (shard inboxes closed), in which case it reads them directly —
// the actors are gone, so direct access is race-free.
func (s *Server) trackedCounts() (nodes, cards int) {
	s.lifecycleMu.Lock()
	drained := s.drained
	s.lifecycleMu.Unlock()
	if !drained {
		return s.shards.counts()
	}
	for _, sh := range s.shards.shards {
		nodes += len(sh.nodes)
		for _, ns := range sh.nodes {
			cards += len(ns.cards)
		}
	}
	return nodes, cards
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	nodes, cards := s.trackedCounts()
	s.lifecycleMu.Lock()
	draining := s.draining
	s.lifecycleMu.Unlock()
	s.stateMu.Lock()
	retained := len(s.events)
	s.stateMu.Unlock()
	g := snapshotGauges{
		queueDepth:     s.queue.depth(),
		queueCap:       s.cfg.QueueDepth,
		nodesTracked:   nodes,
		cardsTracked:   cards,
		shards:         s.cfg.Shards,
		draining:       draining,
		retainedEvents: retained,
		lastCompact:    s.lastCompact.Load(),
	}
	if sealed := s.sealedPeek(); sealed != nil {
		g.sealedSegments = sealed.SegmentCount()
		g.sealedEvents = sealed.EventCount()
		g.sealedBytes = sealed.DiskBytes()
	}
	g.sealedSeq = s.sealedSeq.Load()
	s.recovMu.Lock()
	g.quarantinedSegs = len(s.recovery.Quarantined)
	g.quarantinedBytes = s.recovery.QuarantinedBytes
	g.eventsLost = s.eventsLost
	s.recovMu.Unlock()
	g.degraded = g.quarantinedSegs > 0 || g.eventsLost > 0
	if j := s.journal.Load(); j != nil {
		js := j.Stats()
		g.journal = &js
	}
	g.sources = s.sourceStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.heapInuse = ms.HeapInuse
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, g, time.Now())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.lifecycleMu.Lock()
	draining := s.draining
	s.lifecycleMu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	// history is the confidence flag a degraded start carries: the
	// daemon is serving, but quarantined segments mean its detector
	// state was rebuilt from a history with counted holes.
	history := "complete"
	s.recovMu.Lock()
	if len(s.recovery.Quarantined) > 0 || s.eventsLost > 0 {
		history = "degraded"
	}
	s.recovMu.Unlock()
	writeJSON(w, map[string]any{
		"status":         status,
		"history":        history,
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status header is already out by the time Encode can fail, so
	// a mid-body error has no better recovery than closing the stream.
	_ = enc.Encode(v)
}

// AlertTexts returns the canonical renderings of every raised alert, in
// firing order — the equivalence tests compare these against the batch
// pipeline byte for byte.
func (s *Server) AlertTexts() []string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	out := make([]string, 0, s.alertEngine.Count())
	for _, a := range s.alertEngine.Alerts() {
		out = append(out, a.String())
	}
	return out
}

// WarningTexts returns the canonical renderings of every issued
// warning, in firing order.
func (s *Server) WarningTexts() []string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.warner == nil {
		return nil
	}
	warnings := s.warner.Warnings()
	out := make([]string, 0, len(warnings))
	for _, w := range warnings {
		out = append(out, w.String())
	}
	return out
}

// Quiesce blocks until everything admitted so far has been applied to
// the online state — the streaming analogue of "the batch run
// finished". It does not stop admission; tests and the replay client
// call it between streaming and asserting.
func (s *Server) Quiesce(ctx context.Context) error {
	for {
		s.queue.mu.Lock()
		assigned := s.queue.next
		s.queue.mu.Unlock()
		if s.appliedBatches.Load() >= assigned {
			// The applier dispatched everything; one barrier query per
			// shard flushes the inboxes behind those dispatches (FIFO).
			s.shards.queryAll(func(*shard) {})
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stallForTest makes every parse worker block on gate before processing
// its next batch. Closing the gate releases them for good (receives on a
// closed channel return immediately).
func (s *Server) stallForTest(gate chan struct{}) {
	s.stallGate.Store(gate)
}

// StallForTest is the exported face of stallForTest: harnesses outside
// this package (the router's drain soak, the cluster bench) use it to
// meter a replica's parse rate deterministically.
func (s *Server) StallForTest(gate chan struct{}) { s.stallForTest(gate) }

// String renders a one-line summary for logs.
func (s *Server) String() string {
	st := s.StatsNow()
	return fmt.Sprintf("titand: %d lines in, %d events applied, %d shed, %d alerts, %d warnings, %d nodes tracked",
		st.LinesAccepted, st.EventsApplied, st.LinesShed, st.AlertsRaised, st.WarningsIssued, st.NodesTracked)
}

package router

import (
	"net/http"
	"time"

	"titanre/internal/metric"
)

// Router observability: /stats (JSON), /metrics (Prometheus text) and
// /healthz. The per-source accounting is the QoS contract made
// auditable — for every source, offered == accepted + shed + failed in
// lines and in batches, exactly, which the source-isolation test
// checks against the load generator's own books.

// SourceStats is one feed's exact account at the router; /metrics
// labels each series with the source name.
type SourceStats struct {
	OfferedBatches  uint64 `json:"offered_batches" metric:"titanrouter_source_batches_offered_total,counter" help:"Batches offered per source."`
	AcceptedBatches uint64 `json:"accepted_batches" metric:"titanrouter_source_batches_accepted_total,counter" help:"Batches fully delivered per source."`
	ShedBatches     uint64 `json:"shed_batches" metric:"titanrouter_source_batches_shed_total,counter" help:"Batches shed per source by QoS."`
	FailedBatches   uint64 `json:"failed_batches" metric:"titanrouter_source_batches_failed_total,counter" help:"Batches with undelivered lines per source."`
	OfferedLines    uint64 `json:"offered_lines" metric:"titanrouter_source_lines_offered_total,counter" help:"Lines offered per source."`
	AcceptedLines   uint64 `json:"accepted_lines" metric:"titanrouter_source_lines_accepted_total,counter" help:"Lines delivered per source."`
	ShedLines       uint64 `json:"shed_lines" metric:"titanrouter_source_lines_shed_total,counter" help:"Lines shed per source by QoS."`
	FailedLines     uint64 `json:"failed_lines" metric:"titanrouter_source_lines_failed_total,counter" help:"Lines undelivered per source."`
	InflightLines   int64  `json:"inflight_lines" metric:"titanrouter_source_inflight_lines,gauge" help:"Lines per source currently held against its share."`
}

// Stats is the one snapshot behind /stats (JSON) and /metrics
// (Prometheus text, rendered by package metric): each field is the only
// declaration of its series.
type Stats struct {
	UptimeSeconds    float64  `json:"uptime_seconds" metric:"titanrouter_uptime_seconds,gauge" help:"Seconds since the router started."`
	Replicas         []string `json:"replicas" metric:"titanrouter_replicas,gauge" help:"Configured replica count."`
	SourceShareLines int      `json:"source_share_lines" metric:"titanrouter_source_share_lines,gauge" help:"Per-source in-flight line share (lines over it are shed)."`
	BatchesOffered   uint64   `json:"batches_offered" metric:"titanrouter_batches_offered_total,counter" help:"Client batches offered to /ingest."`
	BatchesAccepted  uint64   `json:"batches_accepted" metric:"titanrouter_batches_accepted_total,counter" help:"Batches fully delivered to replicas."`
	BatchesShed      uint64   `json:"batches_shed" metric:"titanrouter_batches_shed_total,counter" help:"Batches shed by per-source QoS."`
	BatchesFailed    uint64   `json:"batches_failed" metric:"titanrouter_batches_failed_total,counter" help:"Batches with undelivered lines."`
	BatchesRejected  uint64   `json:"batches_rejected" metric:"titanrouter_batches_rejected_total,counter" help:"Malformed or oversized batches."`
	LinesOffered     uint64   `json:"lines_offered" metric:"titanrouter_lines_offered_total,counter" help:"Lines offered to /ingest."`
	LinesDelivered   uint64   `json:"lines_delivered" metric:"titanrouter_lines_delivered_total,counter" help:"Lines delivered to replicas."`
	LinesShed        uint64   `json:"lines_shed" metric:"titanrouter_lines_shed_total,counter" help:"Lines shed by per-source QoS."`
	LinesFailed      uint64   `json:"lines_failed" metric:"titanrouter_lines_failed_total,counter" help:"Lines undelivered within the timeout."`
	SubBatches       uint64   `json:"sub_batches" metric:"titanrouter_sub_batches_total,counter" help:"Per-replica sub-batches sent."`
	DeliverRetries   uint64   `json:"deliver_retries" metric:"titanrouter_deliver_retries_total,counter" help:"Delivery retries against 429/503/connection errors."`
	ReadFanouts      uint64   `json:"read_fanouts" metric:"titanrouter_read_fanouts_total,counter" help:"Read-side fan-outs."`
	ReadErrors       uint64   `json:"read_errors" metric:"titanrouter_read_errors_total,counter" help:"Read-side fan-out failures."`
	MergedAlerts     uint64   `json:"merged_alerts" metric:"titanrouter_merged_alerts_total,counter" help:"Merged /alerts responses."`
	DegradedAlerts   uint64   `json:"degraded_alerts" metric:"titanrouter_degraded_alerts_total,counter" help:"Merged /alerts responses marked degraded."`
	MergedQueries    uint64   `json:"merged_queries" metric:"titanrouter_merged_queries_total,counter" help:"Merged /rollup, /top and /query responses."`

	Sources map[string]SourceStats `json:"sources,omitempty" metric:"label=source"`
}

// StatsNow snapshots the router counters.
func (rt *Router) StatsNow() Stats {
	m := &rt.metrics
	return Stats{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Replicas:         rt.cfg.Replicas,
		SourceShareLines: rt.cfg.SourceShareLines,
		BatchesOffered:   m.batchesOffered.Load(),
		BatchesAccepted:  m.batchesAccepted.Load(),
		BatchesShed:      m.batchesShed.Load(),
		BatchesFailed:    m.batchesFailed.Load(),
		BatchesRejected:  m.batchesRejected.Load(),
		LinesOffered:     m.linesOffered.Load(),
		LinesDelivered:   m.linesDelivered.Load(),
		LinesShed:        m.linesShed.Load(),
		LinesFailed:      m.linesFailed.Load(),
		SubBatches:       m.subBatches.Load(),
		DeliverRetries:   m.deliverRetries.Load(),
		ReadFanouts:      m.readFanouts.Load(),
		ReadErrors:       m.readErrors.Load(),
		MergedAlerts:     m.mergedAlerts.Load(),
		DegradedAlerts:   m.degradedAlerts.Load(),
		MergedQueries:    m.mergedQueries.Load(),
		Sources:          rt.sourceStats(),
	}
}

// sourceStats snapshots every source's account (nil when none seen).
func (rt *Router) sourceStats() map[string]SourceStats {
	rt.srcMu.Lock()
	defer rt.srcMu.Unlock()
	if len(rt.sources) == 0 {
		return nil
	}
	out := make(map[string]SourceStats, len(rt.sources))
	for name, src := range rt.sources {
		out[name] = SourceStats{
			OfferedBatches:  src.offeredBatches.Load(),
			AcceptedBatches: src.acceptedBatches.Load(),
			ShedBatches:     src.shedBatches.Load(),
			FailedBatches:   src.failedBatches.Load(),
			OfferedLines:    src.offeredLines.Load(),
			AcceptedLines:   src.acceptedLines.Load(),
			ShedLines:       src.shedLines.Load(),
			FailedLines:     src.failedLines.Load(),
			InflightLines:   src.inflight.Load(),
		}
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, rt.StatsNow())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metric.ContentType)
	_ = metric.Write(w, rt.StatsNow()) // a failed write means the scraper hung up
}

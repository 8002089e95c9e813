package serve

import (
	"sync/atomic"
	"time"

	"titanre/internal/metric"
)

// Operational counters behind /stats and /metrics (StatsNow snapshots
// them into Stats, which both endpoints render). Everything is a plain
// atomic so the hot ingest path pays one uncontended add per
// bookkeeping event.

// latencyBuckets are the upper bounds (seconds) of the ingest-latency
// histogram, chosen around the sub-millisecond-to-seconds range a local
// ingest round trip spans.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// metrics is the full counter set. Batches are HTTP POST /ingest bodies;
// lines are newline-delimited console records inside them.
type metrics struct {
	start time.Time

	// Admission.
	batchesAccepted atomic.Uint64
	batchesShed     atomic.Uint64
	batchesRejected atomic.Uint64 // malformed requests (not load shedding)
	linesAccepted   atomic.Uint64 // lines in accepted batches (counted at parse)
	linesShed       atomic.Uint64 // lines in shed batches (newline count)

	// Decode (aggregated across parse workers).
	events        atomic.Uint64 // lines that decoded into events
	dropped       atomic.Uint64 // chatter: no SEC rule matched
	malformed     atomic.Uint64 // rule matched but record undecodable
	oversized     atomic.Uint64 // over the 1 MiB record cap
	fastHits      atomic.Uint64 // zero-allocation fast-path decodes
	fastFallbacks atomic.Uint64 // lines that fell back to the regex path

	// State application.
	eventsApplied  atomic.Uint64
	alertsRaised   atomic.Uint64
	warningsIssued atomic.Uint64

	// Compaction (see compact.go).
	compactions     atomic.Uint64 // successful compaction passes
	compactFailures atomic.Uint64 // passes that failed to seal
	compactRetries  atomic.Uint64 // chunk seals retried after a transient fault
	eventsSealed    atomic.Uint64 // events moved from memory into segments

	// Fleet-wide query endpoints (see query.go).
	queryCodeHistory atomic.Uint64 // GET /codes/{xid}/history served
	queryRollup      atomic.Uint64 // GET /rollup served
	queryTop         atomic.Uint64 // GET /top served
	queries          atomic.Uint64 // GET /query requests (titanql plans)
	queryErrors      atomic.Uint64 // GET /query requests rejected (parse/compile/execute)

	// Ingest latency histogram (request admission to 202, seconds).
	latCount atomic.Uint64
	latSum   atomic.Uint64 // microseconds, to stay integral
	latBkt   [13]atomic.Uint64
}

func newMetrics(now time.Time) *metrics { return &metrics{start: now} }

// observeLatency books one ingest request round trip.
func (m *metrics) observeLatency(d time.Duration) {
	m.latCount.Add(1)
	m.latSum.Add(uint64(d.Microseconds()))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			m.latBkt[i].Add(1)
			return
		}
	}
	m.latBkt[len(latencyBuckets)].Add(1)
}

// latency snapshots the ingest-latency histogram. The buckets are read
// before the count (observeLatency adds the count first), so no
// cumulative bucket exceeds the count it is reported with.
func (m *metrics) latency() metric.Histogram {
	h := metric.Histogram{Bounds: latencyBuckets, Counts: make([]uint64, len(m.latBkt))}
	var cum uint64
	for i := range m.latBkt {
		cum += m.latBkt[i].Load()
		h.Counts[i] = cum
	}
	h.Sum = float64(m.latSum.Load()) / 1e6
	h.Count = m.latCount.Load()
	return h
}

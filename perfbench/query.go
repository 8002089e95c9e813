package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"titanre/internal/serve"
	"titanre/internal/titanql"
	"titanre/internal/topology"
)

// live-query: a fleet prefilled with most of the history, compacted so
// it sits in mapped segments, read by one closed-loop reader (point,
// scan and /alerts reads) while one writer trickles the rest of the
// history open loop at a low fixed rate.

const (
	queryMonths = 7 // history simulated
	// prefillLines is the history the fleet holds before the reads
	// start, fixed so that every seed's reads scan the same volume; the
	// rest of the history is the trickle.
	prefillLines = 180_000
	trickleRate  = 2_000
	trickleLines = batchLines
	pointReads   = 48 // distinct point reads in the pool
)

// The reader's mix per cycle: every point read once, then
// scanReadsPerCycle fleet-wide scans and alertReadsPerCycle /alerts, in
// a seeded order (80% / 15% / 5%). A fixed composition keeps the
// expensive reads' share the same in every run.
const (
	scanReadsPerCycle  = 9
	alertReadsPerCycle = 3
)

// readCycle lays out one cycle of the mix in a seeded order.
func readCycle(points, scans []read, alerts read, rng *rand.Rand) []read {
	cycle := append([]read(nil), points...)
	for i := 0; i < scanReadsPerCycle; i++ {
		cycle = append(cycle, scans[i%len(scans)])
	}
	for i := 0; i < alertReadsPerCycle; i++ {
		cycle = append(cycle, alerts)
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// queryFleet is the live-query set-up's product.
type queryFleet struct {
	*fleet
	prefill  int       // lines prefilled
	boundary time.Time // every prefilled event is at or before it, every later one after
	sealNs   float64   // CompactNow cost per sealed event
}

// prefillBoundary splits the history after prefillLines lines (five
// sixths of a shorter history), extended to the end of that second, and
// returns the line count and the time of the last prefilled event:
// every prefilled event is at or before it, every later one after it.
func prefillBoundary(in *inputs) (int, time.Time) {
	n := min(prefillLines, len(in.events)*5/6)
	for n < len(in.events) && in.events[n].Time.Equal(in.events[n-1].Time) {
		n++
	}
	return n, in.events[n-1].Time
}

// prefill builds a fresh fleet, streams the prefix of the log in order
// as fast as the one connection allows, waits for it to apply and seals
// it into segments.
func prefill(dir string, in *inputs, rec *recorder) (*queryFleet, error) {
	n, boundary := prefillBoundary(in)
	f, err := startFleet(dir, rec)
	if err != nil {
		return nil, err
	}
	q := &queryFleet{fleet: f, prefill: n, boundary: boundary}
	b, counts := splitBatches(in.log[:lineOffset(in.log, n)], batchLines)
	for _, r := range f.replay(b, counts, math.Inf(1), 0, rec, nil) {
		if !r.ok() {
			f.stop()
			return nil, fmt.Errorf("prefill batch: status %d: %v", r.status, r.err)
		}
	}
	if err := f.quiesce(); err != nil {
		f.stop()
		return nil, err
	}
	t := time.Now()
	sealed := 0
	for _, s := range f.replicas {
		k, err := s.CompactNow()
		if err != nil {
			f.stop()
			return nil, err
		}
		sealed += k
	}
	if sealed > 0 {
		q.sealNs = float64(time.Since(t)) / float64(sealed)
	}
	return q, nil
}

// lineOffset is the byte offset just past the first n lines of log.
func lineOffset(log []byte, n int) int {
	off := 0
	for i := 0; i < n && off < len(log); i++ {
		for off < len(log) && log[off] != '\n' {
			off++
		}
		off++
	}
	return min(off, len(log))
}

// pointPool draws the selective reads: one node over the week around a
// seeded event, bounded by the prefill boundary. One shape for every
// point read keeps their latency one population, so its median does not
// hop between shapes from seed to seed.
func pointPool(in *inputs, n int, boundary time.Time, rng *rand.Rand) []string {
	var out []string
	for i := 0; i < pointReads; i++ {
		e := in.events[rng.Intn(n)]
		day := e.Time.UTC().Truncate(24 * time.Hour)
		end := day.AddDate(0, 0, 4).Add(-time.Second)
		if end.After(boundary) {
			end = boundary
		}
		out = append(out, fmt.Sprintf("node=%s since=%s until=%s | by code | bucket 1h",
			topology.CNameOf(e.Node), day.AddDate(0, 0, -3).Format(time.RFC3339), end.UTC().Format(time.RFC3339)))
	}
	return out
}

// readStats are the reader's latencies by kind.
type readStats struct {
	lat   map[string][]float64 // ms
	reads int
	wall  time.Duration
	cpu   time.Duration // process CPU over the phase
	// quiesce is the time from the last trickle 202 until the replicas
	// applied everything; maxDepth and maxHeap are sampled while traced.
	quiesce  time.Duration
	maxDepth int
	maxHeap  float64
}

// add merges another phase's reads into rs.
func (rs *readStats) add(o readStats) {
	for k, v := range o.lat {
		rs.lat[k] = append(rs.lat[k], v...)
	}
	rs.reads += o.reads
	rs.wall += o.wall
	rs.cpu += o.cpu
	rs.quiesce = max(rs.quiesce, o.quiesce)
	rs.maxDepth = max(rs.maxDepth, o.maxDepth)
	rs.maxHeap = max(rs.maxHeap, o.maxHeap)
}

// readLoop walks the read cycle closed loop from *pos until stop
// closes, checking every body that has a reference.
func readLoop(f *fleet, cycle []read, pos *int, stop <-chan struct{}, out *outcome, mu *sync.Mutex) readStats {
	rs := readStats{lat: map[string][]float64{}}
	t0 := time.Now()
	for {
		select {
		case <-stop:
			rs.wall = time.Since(t0)
			return rs
		default:
		}
		r := cycle[*pos%len(cycle)]
		*pos++
		t := time.Now()
		body, err := f.get(r.path)
		d := time.Since(t)
		if err == nil {
			err = r.check(body)
		}
		mu.Lock()
		out.checkErr(err)
		mu.Unlock()
		rs.lat[r.kind] = append(rs.lat[r.kind], ms(d))
		rs.reads++
	}
}

// queryPhase runs the reader beside the trickle writer for d, then
// quiesces. It returns the reader's stats and the trickled batches.
func queryPhase(q *queryFleet, trickle [][]byte, counts []int, offset int, cycle []read, pos *int, d time.Duration, rec *recorder, out *outcome) (readStats, []batchResult, error) {
	var samples *sampler
	if rec != nil && rec.on.Load() {
		samples = startSampler(q.replicas)
	}
	stop := make(chan struct{})
	var mu sync.Mutex
	var writes []batchResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = q.replay(trickle, counts, trickleRate, offset, rec, stop)
	}()
	c0 := cpuTime()
	timer := time.AfterFunc(d, func() { close(stop) })
	rs := readLoop(q.fleet, cycle, pos, stop, out, &mu)
	timer.Stop()
	wg.Wait()
	rs.cpu = cpuTime() - c0
	for _, w := range writes {
		out.attempted++
		if !w.ok() {
			out.fail("trickle batch: status %d: %v", w.status, w.err)
		}
	}
	err := q.quiesce()
	if len(writes) > 0 {
		rs.quiesce = time.Since(writes[len(writes)-1].done)
	}
	if samples != nil {
		samples.stop()
		rs.maxDepth, rs.maxHeap = samples.maxDepth, samples.maxHeap
	}
	return rs, writes, err
}

func runQuery(o options) (*outcome, error) {
	out := newOutcome()
	months := o.months
	if months == 0 {
		months = queryMonths
	}
	var q *queryFleet
	var rec *recorder
	if o.trace {
		rec = newRecorder(false) // recording only while a traced slice runs
	}
	in, err := generate(o.work, o.seed, months, func(in *inputs) error {
		var err error
		q, err = prefill(filepath.Join(o.work, "fleet"+strconv.Itoa(len(in.setup))), in, rec)
		return err
	}, func() error {
		err := q.stop()
		q = nil
		return err
	})
	if err != nil {
		if q != nil {
			q.stop()
		}
		return nil, err
	}
	defer func() {
		if err := q.stop(); err != nil {
			out.checkErr(fmt.Errorf("fleet shutdown: %w", err))
		}
	}()
	parseCheck(in, out)

	// References: every point and scan read is bounded by the prefill
	// boundary, so its answer is fixed while the trickle runs.
	rng := rand.New(rand.NewSource(o.seed))
	var points, scans []read
	if err := bounded(func() error {
		prefix := studyOf(in.cfg, in.events[:q.prefill])
		for _, qs := range pointPool(in, q.prefill, q.boundary, rng) {
			r, err := queryRead(prefix, "point", qs)
			if err != nil {
				return err
			}
			points = append(points, r)
		}
		var err error
		scans, err = scanReads(prefix, q.boundary)
		return err
	}); err != nil {
		return nil, err
	}
	alerts := read{kind: "alerts", path: "/alerts"}
	pool := append(append(points, scans...), alerts)
	cycle := readCycle(points, scans, alerts, rng)
	pos := 0

	// Every pooled read once before timing: each reference is checked
	// at least once, and first-touch costs (page faults on the mapped
	// segments) stay out of the measured phase.
	q.checkReads(pool, out)

	rest := in.log[lineOffset(in.log, q.prefill):]
	trickle, counts := splitBatches(rest, trickleLines)

	setup := median(in.setup)
	out.named["setup_s"] = setup
	out.e2e["setup_s"] = setup

	// An untraced run reads for the whole time. A traced run alternates
	// untraced and traced quarters, so drift over the run (the trickle
	// grows the retained tail) weighs on both sides alike.
	var rs, plain readStats
	rs.lat, plain.lat = map[string][]float64{}, map[string][]float64{}
	var writes, tracedWrites []batchResult
	slices, slice := 1, o.seconds
	if o.trace {
		slices, slice = 4, o.seconds/4
	}
	offset := q.prefill
	for i := 0; i < slices; i++ {
		traced := o.trace && i%2 == 1
		if rec != nil {
			rec.on.Store(traced)
		}
		got, w, err := queryPhase(q, trickle, counts, offset, cycle, &pos, slice, rec, out)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.on.Store(false)
		}
		trickle, counts = trickle[len(w):], counts[len(w):]
		for _, b := range w {
			offset += b.lines
		}
		writes = append(writes, w...)
		if o.trace && !traced {
			plain.add(got)
		} else {
			rs.add(got)
			tracedWrites = append(tracedWrites, w...)
		}
	}

	// /alerts over everything ingested, checked once at the end.
	trickled := 0
	for _, w := range writes {
		trickled += w.lines
	}
	var final read
	if err := bounded(func() (err error) {
		final, err = alertsRead(studyOf(in.cfg, in.events[:q.prefill+trickled]))
		return err
	}); err != nil {
		return nil, err
	}
	q.checkReads([]read{final}, out)

	var all []float64
	for _, k := range []string{"point", "scan", "alerts"} {
		all = append(all, rs.lat[k]...)
	}
	var ingest []float64
	for _, w := range writes {
		ingest = append(ingest, ms(w.latency()))
	}
	qps := float64(rs.reads) / rs.wall.Seconds()
	out.named["query_point_p50_ms"] = quantile(rs.lat["point"], 0.5)
	out.named["query_point_p99_ms"] = quantile(rs.lat["point"], 0.99)
	out.named["query_scan_p50_ms"] = quantile(rs.lat["scan"], 0.5)
	out.named["alerts_p50_ms"] = quantile(rs.lat["alerts"], 0.5)
	out.named["queries_per_s"] = qps
	out.named["ingest_p50_ms"] = quantile(ingest, 0.5)
	out.named["ingest_p99_ms"] = quantile(ingest, 0.99)
	out.e2e["latency_p50_ms"] = quantile(all, 0.5)
	out.e2e["latency_mean_ms"] = mean(all)
	out.e2e["rate_per_s"] = qps
	out.e2e["cpu_ns_per_unit"] = float64(rs.cpu) / float64(rs.reads)
	fmt.Printf("  reads: %d point, %d scan, %d alerts; trickled %d lines in %d batches\n",
		len(rs.lat["point"]), len(rs.lat["scan"]), len(rs.lat["alerts"]), trickled, len(writes))

	if o.trace {
		spans := rec.snapshot()
		if n := link(spans); n > 0 {
			out.checkErr(fmt.Errorf("%d replica spans found no router span", n))
		}
		out.spans = spans
		l := out.layers
		spanLayers(l, spans)
		replicaLayers(l, q.fleet, q.router.StatsNow())
		inputLayers(l, in)
		l["store.seal_ns_per_event"] = q.sealNs
		l["serve.queue_depth_max"] = float64(rs.maxDepth)
		l["serve.heap_inuse_mb"] = rs.maxHeap / (1 << 20)
		l["serve.quiesce_ms"] = ms(rs.quiesce)
		var late []float64
		for _, w := range tracedWrites {
			late = append(late, ms(w.late()))
		}
		l["bench.gen_late_p99_ms"] = quantile(late, 0.99)
		perRead := func(r readStats) float64 { return r.wall.Seconds() / float64(r.reads) }
		l["bench.trace_overhead_frac"] = perRead(rs)/perRead(plain) - 1
		directLayers(l, q, pool, out)
	}
	peak := peakRSSMB()
	out.named["peak_rss_mb"] = peak
	out.e2e["peak_rss_mb"] = peak
	return out, nil
}

// directLayers times the query kernels called directly: titanql.Run over
// replica 0's sealed segments for the point and scan plans of the pool,
// and serve.ReplayFeed over the union of the replicas' alert feeds.
func directLayers(l map[string]float64, q *queryFleet, pool []read, out *outcome) {
	segs := q.replicas[0].SealedStore().Segments()
	var point, scan []float64
	for _, r := range pool {
		if r.q == "" {
			continue
		}
		t := time.Now()
		_, err := titanql.Run(r.q, segs, nil, 0)
		d := ms(time.Since(t))
		out.checkErr(err)
		if r.kind == "point" {
			point = append(point, d)
		} else {
			scan = append(scan, d)
		}
	}
	l["titanql.point_ms"] = median(point)
	l["titanql.scan_ms"] = median(scan)

	var docs []serve.FeedDoc
	for _, s := range q.replicas {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/alertfeed", nil))
		var doc serve.FeedDoc
		err := json.Unmarshal(w.Body.Bytes(), &doc)
		out.checkErr(err)
		if err != nil {
			return
		}
		docs = append(docs, doc)
	}
	var records []serve.FeedRecord
	for _, doc := range docs {
		records = append(records, doc.Records...)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	t := time.Now()
	_, err := serve.ReplayFeed(docs[0].Config, records)
	l["alert.replay_ms"] = ms(time.Since(t))
	out.checkErr(err)
}

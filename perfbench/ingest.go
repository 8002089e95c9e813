package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"titanre/internal/console"
	"titanre/internal/router"
	"titanre/internal/serve"
	"titanre/internal/sim"
)

// live-ingest: the console log replayed in file order over one ordered
// connection into titanrouter → two titand replicas, open loop, at each
// step of a fixed rate ladder, each step on a fresh fleet.

const (
	ingestMonths = 9 // history simulated
	// ingestLines is how much of it every step replays, fixed so that
	// every seed offers the same volume.
	ingestLines = 300_000
	// batchLines is titanload's and serve.StreamLog's default batch.
	batchLines  = 512
	nominalRate = 100_000 // lines/s
	// p99Limit is the ingest latency limit a ladder step must meet.
	p99Limit = 100 * time.Millisecond
	// keepUp is the share of the offered rate a step must achieve; below
	// it the backlog grows and the step has saturated the stack.
	keepUp = 0.97
)

// ladder is the sequence of offered rates in lines/s: the nominal rate
// five times, spread over the run so that bursts of host noise reach at
// most two of them, and steps up to well above the capacity of one
// ordered sender on a 2-core box, so that the top ones saturate. It
// opens with a step that is not nominal: the first replay of a process
// runs on a heap still growing to its working size, and its tail
// latency is higher. The nominal figures are medians over the five
// nominal replays, capacity the median over the saturated steps.
var ladder = []float64{150_000, nominalRate, 340_000, nominalRate, 225_000, nominalRate, 340_000, nominalRate, nominalRate}

// step is one ladder step as measured.
type step struct {
	rate, achieved float64
	lat, late      []float64 // per batch, ms
	quiesce        time.Duration
	cpu            time.Duration
	lines          int
	pass           bool
	saturated      bool
	layers         map[string]float64
}

func (s step) p(q float64) float64 { return quantile(s.lat, q) }

// runStep replays batches at rate into a fresh fleet, quiesces, checks
// every read in reads and the router's books, and tears the fleet down
// and deletes its state.
func runStep(dir string, b [][]byte, counts []int, rate float64, reads []read, rec *recorder, out *outcome) (step, error) {
	st := step{rate: rate, layers: map[string]float64{}}
	// Every step starts from a quiet disk: the write-back of earlier
	// steps' and the set-up's files would otherwise queue ahead of this
	// step's journal fsyncs, which the replicas' ingest waits on.
	syscall.Sync()
	f, err := startFleet(dir, rec)
	if err != nil {
		return st, err
	}
	defer func() {
		if err := f.stop(); err != nil {
			out.checkErr(fmt.Errorf("fleet shutdown: %w", err))
		}
		if err := os.RemoveAll(dir); err != nil {
			out.checkErr(err)
		}
	}()
	var samples *sampler
	if rec != nil {
		samples = startSampler(f.replicas)
		defer samples.stop()
	}
	runtime.GC()
	c0 := cpuTime()
	res := f.replay(b, counts, rate, 0, rec, nil)
	lastDone := res[len(res)-1].done
	if err := f.quiesce(); err != nil {
		return st, err
	}
	st.quiesce = time.Since(lastDone)
	st.cpu = cpuTime() - c0
	if samples != nil {
		samples.stop()
	}
	failed := 0
	for _, r := range res {
		out.attempted++
		if !r.ok() {
			failed++
			out.fail("ingest batch at %.0f lines/s: status %d: %v", rate, r.status, r.err)
		}
		st.lines += r.lines
		st.lat = append(st.lat, ms(r.latency()))
		st.late = append(st.late, ms(r.late()))
	}
	st.achieved = float64(st.lines) / lastDone.Sub(res[0].due).Seconds()
	st.saturated = st.achieved < keepUp*rate
	st.pass = failed == 0 && !st.saturated && st.p(0.99) <= ms(p99Limit)

	// Books: the router accounted for exactly the lines offered.
	rs := f.router.StatsNow()
	src := rs.Sources["bench"]
	out.checkErr(balanced(src.OfferedLines, src.AcceptedLines, src.ShedLines, src.FailedLines, st.lines))

	var seal time.Duration
	var sealed int
	if rec != nil {
		for _, s := range f.replicas {
			t := time.Now()
			n, err := s.CompactNow()
			out.checkErr(err)
			seal += time.Since(t)
			sealed += n
		}
	}
	f.checkReads(reads, out)
	if rec != nil {
		replicaLayers(st.layers, f, rs)
		st.layers["serve.queue_depth_max"] = float64(samples.maxDepth)
		st.layers["serve.heap_inuse_mb"] = samples.maxHeap / (1 << 20)
		st.layers["serve.quiesce_ms"] = ms(st.quiesce)
		if sealed > 0 {
			st.layers["store.seal_ns_per_event"] = float64(seal) / float64(sealed)
		}
	}
	return st, nil
}

// balanced checks offered == accepted + shed + failed == sent.
func balanced(offered, accepted, shed, failed uint64, sent int) error {
	if offered != accepted+shed+failed || offered != uint64(sent) {
		return fmt.Errorf("router books: offered %d != accepted %d + shed %d + failed %d (sent %d)",
			offered, accepted, shed, failed, sent)
	}
	if shed+failed > 0 {
		return fmt.Errorf("router shed %d and failed %d lines", shed, failed)
	}
	return nil
}

// replicaLayers fills the serve, store, router and console counters from
// the replicas' and the router's stats.
func replicaLayers(l map[string]float64, f *fleet, rs router.Stats) {
	var shed, applied, appends, syncs, compactions, sealed, hits, falls uint64
	var bytes int64
	var sealedEvents int
	for _, s := range f.replicas {
		st := s.StatsNow()
		shed += st.BatchesShed
		applied += st.EventsApplied
		compactions += st.Compactions
		sealed += st.EventsSealed
		hits += st.FastHits
		falls += st.FastFallbacks
		bytes += st.SealedSegmentBytes
		sealedEvents += st.SealedEvents
		if st.Journal != nil {
			appends += st.Journal.Appends
			syncs += st.Journal.Syncs
		}
	}
	l["serve.batches_shed"] = float64(shed)
	l["serve.events_applied"] = float64(applied)
	l["serve.journal_appends"] = float64(appends)
	l["serve.journal_syncs"] = float64(syncs)
	l["serve.compactions"] = float64(compactions)
	l["serve.events_sealed"] = float64(sealed)
	if hits+falls > 0 {
		l["console.fast_hit_ratio"] = float64(hits) / float64(hits+falls)
	}
	if sealedEvents > 0 {
		l["store.bytes_per_event"] = float64(bytes) / float64(sealedEvents)
	}
	l["router.sub_batches"] = float64(rs.SubBatches)
	l["router.deliver_retries"] = float64(rs.DeliverRetries)
}

// spanLayers derives the HTTP-side per-layer latencies from the spans.
func spanLayers(l map[string]float64, spans []span) {
	self := selfTimes(spans)
	var serveIngest, serveRead, routerIngest, routerRead []float64
	for _, s := range spans {
		switch s.Name {
		case "serve.ingest":
			serveIngest = append(serveIngest, ms(s.dur()))
		case "serve.read":
			serveRead = append(serveRead, ms(s.dur()))
		case "router.ingest":
			routerIngest = append(routerIngest, ms(self[s.ID]))
		case "router.read":
			routerRead = append(routerRead, ms(self[s.ID]))
		}
	}
	l["serve.ingest_p50_ms"] = quantile(serveIngest, 0.5)
	l["serve.ingest_p99_ms"] = quantile(serveIngest, 0.99)
	l["serve.read_p50_ms"] = quantile(serveRead, 0.5)
	l["router.ingest_self_p50_ms"] = quantile(routerIngest, 0.5)
	l["router.ingest_self_p99_ms"] = quantile(routerIngest, 0.99)
	l["router.read_self_p50_ms"] = quantile(routerRead, 0.5)
}

// sampler polls the replicas' queue depth and the process heap while a
// traced step runs.
type sampler struct {
	maxDepth int
	maxHeap  float64
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

func startSampler(replicas []*serve.Server) *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, r := range replicas {
				st := r.StatsNow()
				s.maxDepth = max(s.maxDepth, st.QueueDepth)
				s.maxHeap = max(s.maxHeap, float64(st.HeapInuseBytes))
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling; the fields are final once it returns. It may be
// called more than once.
func (s *sampler) stop() {
	s.once.Do(func() { close(s.done) })
	s.wg.Wait()
}

// ingestReads are the reads checked after every step: a titanql plan,
// a rollup, a top-offender ranking and the merged /alerts, each against
// the batch pipeline over the same events.
func ingestReads(cfg sim.Config, events []console.Event) ([]read, error) {
	s := studyOf(cfg, events)
	scans, err := scanReads(s, time.Time{})
	if err != nil {
		return nil, err
	}
	alerts, err := alertsRead(s)
	if err != nil {
		return nil, err
	}
	// Two fleet-wide scans (a top ranking and a rollup) and the
	// by-cabinet titanql plan, plus /alerts.
	return []read{scans[0], scans[3], scans[4], alerts}, nil
}

func runIngest(o options) (*outcome, error) {
	out := newOutcome()
	months := o.months
	if months == 0 {
		months = ingestMonths
	}
	in, err := generate(o.work, o.seed, months, nil, nil)
	if err != nil {
		return nil, err
	}
	parseCheck(in, out)
	n := min(ingestLines, len(in.events))
	in.events, in.log = in.events[:n], in.log[:lineOffset(in.log, n)]
	var reads []read
	if err := bounded(func() (err error) {
		reads, err = ingestReads(in.cfg, in.events)
		return err
	}); err != nil {
		return nil, err
	}
	b, counts := splitBatches(in.log, batchLines)
	stepDir := func(name string) string { return filepath.Join(o.work, name) }

	setup := median(in.setup)
	out.named["setup_s"] = setup
	out.e2e["setup_s"] = setup

	if o.trace {
		plain, err := runStep(stepDir("plain"), b, counts, nominalRate, reads, nil, out)
		if err != nil {
			return nil, err
		}
		rec := newRecorder(true)
		traced, err := runStep(stepDir("traced"), b, counts, nominalRate, reads, rec, out)
		if err != nil {
			return nil, err
		}
		out.spans = rec.snapshot()
		if n := link(out.spans); n > 0 {
			out.checkErr(fmt.Errorf("%d replica spans found no router span", n))
		}
		for k, v := range traced.layers {
			out.layers[k] = v
		}
		spanLayers(out.layers, out.spans)
		l := out.layers
		inputLayers(l, in)
		l["bench.gen_late_p99_ms"] = quantile(traced.late, 0.99)
		l["bench.trace_overhead_frac"] = float64(traced.cpu)/float64(plain.cpu) - 1
	} else {
		var steps []step
		var p50s, means, nominal, cpus, capacity []float64
		best, top := 0.0, 0.0
		for i, rate := range ladder {
			st, err := runStep(stepDir("step"+strconv.Itoa(i)), b, counts, rate, reads, nil, out)
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
			if rate == nominalRate {
				p50s = append(p50s, st.p(0.5))
				means = append(means, mean(st.lat))
				nominal = append(nominal, st.lat...)
				cpus = append(cpus, float64(st.cpu)/float64(st.lines))
			}
			if st.pass {
				best = max(best, st.achieved)
			}
			if st.saturated {
				capacity = append(capacity, st.achieved)
			}
			top = max(top, st.achieved)
		}
		if len(capacity) == 0 {
			// Nothing saturated: the highest achieved rate is a lower
			// bound.
			capacity = append(capacity, top)
		}
		out.named["ingest_p50_ms"] = median(p50s)
		// The p99 is taken over every nominal batch (5 × 586), so that
		// 29 batches lie beyond it; one replay's 586 would leave 6.
		out.named["ingest_p99_ms"] = quantile(nominal, 0.99)
		if best > 0 {
			out.named["ingest_max_lines_per_s"] = best
		}
		out.named["ingest_cpu_ns_per_line"] = median(cpus)
		out.e2e["latency_p50_ms"] = median(p50s)
		out.e2e["latency_mean_ms"] = median(means)
		out.e2e["rate_per_s"] = median(capacity)
		out.e2e["cpu_ns_per_unit"] = median(cpus)
		for _, st := range steps {
			fmt.Printf("  step %7.0f lines/s: achieved %7.0f, p50 %7.2f ms, p99 %8.2f ms, late p99 %8.2f ms, quiesce %6.1f ms, pass %v\n",
				st.rate, st.achieved, st.p(0.5), st.p(0.99), quantile(st.late, 0.99), ms(st.quiesce), st.pass)
		}
	}
	peak := peakRSSMB()
	out.named["peak_rss_mb"] = peak
	out.e2e["peak_rss_mb"] = peak
	return out, nil
}

package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/serve"
	"titanre/internal/sim"
)

// clusterSim runs (and memoizes) a one-month simulation shared by the
// cluster equivalence, drain and bench tests.
var clusterSim = sync.OnceValue(func() []console.Event {
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	return sim.Run(cfg).Events
})

func encodeLog(t testing.TB, events []console.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := console.WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// listenOn binds addr ("127.0.0.1:0" for fresh, an explicit address to
// reclaim a restarted replica's port) with a short retry for the
// rebind race after a shutdown.
func listenOn(t testing.TB, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startReplica serves s on addr and returns its base URL.
func startReplica(t testing.TB, s *serve.Server, addr string) string {
	t.Helper()
	ln := listenOn(t, addr)
	go func() {
		if err := s.ServeListener(ln); err != nil {
			t.Errorf("replica serve: %v", err)
		}
	}()
	return "http://" + ln.Addr().String()
}

// startRouter serves rt on a fresh local port and returns its base URL.
func startRouter(t testing.TB, rt *Router) string {
	t.Helper()
	ln := listenOn(t, "127.0.0.1:0")
	go func() {
		if err := rt.ServeListener(ln); err != nil {
			t.Errorf("router serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})
	return "http://" + ln.Addr().String()
}

func testReplica(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	s := serve.NewServer(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("replica shutdown: %v", err)
		}
	})
	return s
}

func quiesce(t testing.TB, s *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

func getBody(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func stream(t testing.TB, url string, log []byte, opt serve.StreamOptions) *serve.StreamStats {
	t.Helper()
	stats, err := serve.StreamLog(context.Background(), url, bytes.NewReader(log), opt)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return stats
}

// clusterReadPaths are the read endpoints whose merged cluster
// responses must be byte-identical to a single daemon's.
var clusterReadPaths = []string{
	"/alerts",
	"/rollup?by=code,cabinet&bucket=6h",
	"/rollup?by=code&bucket=1h&code=sbe",
	"/top?by=node&k=15",
	"/top?by=serial&k=10&code=sbe",
	"/top?by=node&k=10&cabinet=c3-*",
	"/query?" + url.Values{"q": {"code=48 cabinet=c3-* | by cage | bucket 6h | top 5"}}.Encode(),
	"/query?" + url.Values{"q": {"* | by code | bucket 1d"}}.Encode(),
	"/query?" + url.Values{"q": {"code=sbe | top serial 5"}}.Encode(),
}

// checkMergedReads asserts every cluster read path returns exactly the
// single daemon's bytes.
func checkMergedReads(t testing.TB, routerURL, singleURL string) {
	t.Helper()
	for _, path := range clusterReadPaths {
		want := getBody(t, singleURL+path)
		got := getBody(t, routerURL+path)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s diverges from single daemon:\nrouter: %.300s\nsingle: %.300s", path, got, want)
		}
	}
}

// TestClusterEquivalence is the tentpole gate: a month of simulated
// console history streamed through a 4-replica cluster produces merged
// /alerts, /rollup, /top and /query responses byte-identical to one
// uninterrupted daemon fed the same stream.
func TestClusterEquivalence(t *testing.T) {
	log := encodeLog(t, clusterSim())

	single := testReplica(t, serve.DefaultConfig())
	singleURL := startReplica(t, single, "127.0.0.1:0")
	stream(t, singleURL, log, serve.StreamOptions{Concurrency: 1, Retry429: true})
	quiesce(t, single)

	const n = 4
	replicas := make([]*serve.Server, n)
	urls := make([]string, n)
	for i := range replicas {
		replicas[i] = testReplica(t, serve.DefaultConfig())
		urls[i] = startReplica(t, replicas[i], "127.0.0.1:0")
	}
	rt, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	routerURL := startRouter(t, rt)

	stats := stream(t, routerURL, log, serve.StreamOptions{Concurrency: 1, Retry429: true, Source: "equiv"})
	if stats.LinesShed != 0 || stats.LinesFailed != 0 {
		t.Fatalf("lossless stream shed %d / failed %d lines", stats.LinesShed, stats.LinesFailed)
	}
	for _, r := range replicas {
		quiesce(t, r)
	}

	// Every replica really owns a share of the stream — the merge is
	// combining real partitions, not one loaded replica plus idlers.
	for i, r := range replicas {
		if st := r.StatsNow(); st.EventsApplied == 0 {
			t.Fatalf("replica %d applied no events; the hash split sent it nothing", i)
		}
	}

	body := getBody(t, routerURL+"/alerts")
	if len(bytes.TrimSpace(body)) <= len("[]") {
		t.Fatal("merged /alerts is empty; the equivalence check needs a real alert stream")
	}
	checkMergedReads(t, routerURL, singleURL)

	// The merged alert stream must not be degraded: every replica's
	// feed was complete.
	resp, err := http.Get(routerURL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get(DegradedHeader); h != "" {
		t.Fatalf("merged /alerts degraded: %s", h)
	}
}

// TestClusterDrainRestart streams through the router while one replica
// drains, snapshots, and restarts warm on the same address. The router
// absorbs the outage with delivery retries; afterwards every merged
// read is still byte-identical to an uninterrupted single daemon.
func TestClusterDrainRestart(t *testing.T) {
	log := encodeLog(t, clusterSim())

	single := testReplica(t, serve.DefaultConfig())
	singleURL := startReplica(t, single, "127.0.0.1:0")
	stream(t, singleURL, log, serve.StreamOptions{Concurrency: 1, Retry429: true})
	quiesce(t, single)

	// Two replicas; replica 0 gets a state directory so it can restart
	// warm from its drain snapshot.
	dir0 := t.TempDir()
	cfg0 := serve.DefaultConfig()
	cfg0.SnapshotDir = dir0
	r0 := serve.NewServer(cfg0) // no cleanup: shut down mid-test
	url0 := startReplica(t, r0, "127.0.0.1:0")
	addr0 := url0[len("http://"):]

	r1 := testReplica(t, serve.DefaultConfig())
	url1 := startReplica(t, r1, "127.0.0.1:0")

	rt, err := New(Config{Replicas: []string{url0, url1}})
	if err != nil {
		t.Fatal(err)
	}
	routerURL := startRouter(t, rt)

	// Stream in the background; the sender blocks whenever replica 0 is
	// down because the router only acks fully delivered batches.
	streamDone := make(chan *serve.StreamStats, 1)
	streamErr := make(chan error, 1)
	go func() {
		stats, err := serve.StreamLog(context.Background(), routerURL, bytes.NewReader(log),
			serve.StreamOptions{Concurrency: 1, BatchLines: 256, Retry429: true, Source: "drain"})
		streamDone <- stats
		streamErr <- err
	}()

	// Wait for real progress, then take replica 0 down mid-stream.
	waitFor(t, 20*time.Second, func() bool {
		return rt.metrics.linesDelivered.Load() > 4000
	}, "stream never reached 4000 delivered lines")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := r0.Shutdown(ctx); err != nil {
		cancel()
		t.Fatalf("drain: %v", err)
	}
	cancel()

	// Keep the replica down until the router is observably retrying
	// against it — the sender's current batch is now parked on the
	// outage, which is exactly the window the test exists to cover.
	waitFor(t, 20*time.Second, func() bool {
		return rt.metrics.deliverRetries.Load() > 0
	}, "router never retried against the downed replica")

	// Restart warm on the same address, from the drain snapshot.
	r0b := testReplica(t, cfg0)
	ws, err := r0b.WarmStart(dir0)
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if ws.Replayed == 0 {
		t.Fatal("restarted replica replayed nothing; drain snapshot missing")
	}
	if got := startReplica(t, r0b, addr0); got != url0 {
		t.Fatalf("restarted replica on %s, want %s", got, url0)
	}

	stats := <-streamDone
	if err := <-streamErr; err != nil {
		t.Fatalf("stream: %v", err)
	}
	if stats.LinesShed != 0 || stats.LinesFailed != 0 {
		t.Fatalf("lossless stream shed %d / failed %d lines", stats.LinesShed, stats.LinesFailed)
	}
	if rt.metrics.deliverRetries.Load() == 0 {
		t.Fatal("no delivery retries; the drain window was never exercised")
	}

	quiesce(t, r0b)
	quiesce(t, r1)
	checkMergedReads(t, routerURL, singleURL)
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSourceIsolation overloads the cluster from a flooding source
// while a healthy source streams beside it: the flooder sheds against
// its own queue share, the healthy feed loses nothing, and the
// router's per-source books agree with each client's own account
// exactly — offered == accepted + shed + failed, line for line.
func TestSourceIsolation(t *testing.T) {
	events := clusterSim()
	healthyLog := encodeLog(t, events[:8000])
	floodLog := encodeLog(t, events[8000:24000])

	const n = 2
	replicas := make([]*serve.Server, n)
	urls := make([]string, n)
	gate := make(chan struct{})
	for i := range replicas {
		cfg := serve.DefaultConfig()
		cfg.QueueDepth = 2 // tiny admission queue: the stall backs up fast
		replicas[i] = testReplica(t, cfg)
		replicas[i].StallForTest(gate)
		urls[i] = startReplica(t, replicas[i], "127.0.0.1:0")
	}
	rt, err := New(Config{Replicas: urls, SourceShareLines: 1500})
	if err != nil {
		t.Fatal(err)
	}
	routerURL := startRouter(t, rt)

	// Hold the replicas stalled long enough that deliveries pile up in
	// the router and the flooder's share fills, then release.
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(gate)
	}()

	var wg sync.WaitGroup
	var healthy, flood *serve.StreamStats
	wg.Add(2)
	go func() {
		defer wg.Done()
		// 2 senders x 512 lines = 1024 in flight at most, under the
		// 1500-line share: never shed.
		healthy = stream(t, routerURL, healthyLog,
			serve.StreamOptions{Concurrency: 2, BatchLines: 512, Source: "healthy"})
	}()
	go func() {
		defer wg.Done()
		// 8 senders x 1024 lines = up to 8192 in flight against the same
		// 1500-line share: sheds whenever two batches overlap.
		flood = stream(t, routerURL, floodLog,
			serve.StreamOptions{Concurrency: 8, BatchLines: 1024, Source: "flood"})
	}()
	wg.Wait()
	for _, r := range replicas {
		quiesce(t, r)
	}

	if healthy.LinesShed != 0 || healthy.LinesFailed != 0 {
		t.Fatalf("healthy source shed %d / failed %d of %d lines; isolation leaked",
			healthy.LinesShed, healthy.LinesFailed, healthy.LinesRead)
	}
	if flood.LinesShed == 0 {
		t.Fatal("flooding source never shed; the overload never bit")
	}

	st := rt.StatsNow()
	for name, client := range map[string]*serve.StreamStats{"healthy": healthy, "flood": flood} {
		got, ok := st.Sources[name]
		if !ok {
			t.Fatalf("router has no books for source %q", name)
		}
		if got.OfferedLines != got.AcceptedLines+got.ShedLines+got.FailedLines {
			t.Fatalf("source %q books don't balance: %+v", name, got)
		}
		if got.OfferedLines != client.LinesRead ||
			got.AcceptedLines != client.LinesAccepted ||
			got.ShedLines != client.LinesShed ||
			got.FailedLines != client.LinesFailed {
			t.Fatalf("source %q: router books %d/%d/%d/%d (offered/accepted/shed/failed), client saw %d/%d/%d/%d",
				name, got.OfferedLines, got.AcceptedLines, got.ShedLines, got.FailedLines,
				client.LinesRead, client.LinesAccepted, client.LinesShed, client.LinesFailed)
		}
		if got.OfferedBatches != got.AcceptedBatches+got.ShedBatches+got.FailedBatches {
			t.Fatalf("source %q batch books don't balance: %+v", name, got)
		}
		if got.InflightLines != 0 {
			t.Fatalf("source %q still shows %d in-flight lines after the run", name, got.InflightLines)
		}
	}

	// The exact books surface on /metrics too.
	metrics := string(getBody(t, routerURL+"/metrics"))
	for _, want := range []string{
		fmt.Sprintf(`titanrouter_source_lines_shed_total{source="flood"} %d`, flood.LinesShed),
		`titanrouter_source_lines_shed_total{source="healthy"} 0`,
	} {
		if !bytes.Contains([]byte(metrics), []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

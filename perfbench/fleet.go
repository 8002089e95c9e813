package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"titanre/internal/router"
	"titanre/internal/serve"
)

// The live stack under test: titanrouter in front of two titand
// replicas, each with compaction, mmap'd segments and the write-ahead
// journal on its default fsync policy, all served on loopback TCP from
// this process.

const replicaCount = 2

type fleet struct {
	replicas  []*serve.Server
	router    *router.Router
	routerURL string
	https     []*http.Server
	done      chan error
	// client is the benchmark's single ordered ingest connection;
	// reader is the query reader's.
	client *http.Client
	reader *http.Client
}

// replicaConfig is titand's production configuration with the journal
// on and a compaction cadence short enough to seal during a run (the
// daemon's 1 min default would never fire in one).
func replicaConfig(dir string) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.SnapshotDir = ""
	cfg.CompactDir = filepath.Join(dir, "segments")
	cfg.CompactInterval = time.Second
	cfg.JournalDir = filepath.Join(dir, "journal")
	return cfg
}

// oneConn is an HTTP client that keeps at most one connection open, so
// requests from one goroutine travel in order over one TCP stream.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// startFleet builds a fresh fleet with state under dir. rec, when
// non-nil, wraps the router's and every replica's handler in span
// recorders.
func startFleet(dir string, rec *recorder) (*fleet, error) {
	f := &fleet{done: make(chan error, replicaCount+1), client: oneConn(), reader: oneConn()}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		rdir := filepath.Join(dir, "replica"+strconv.Itoa(i))
		if err := os.MkdirAll(rdir, 0o755); err != nil {
			f.stop()
			return nil, err
		}
		s := serve.NewServer(replicaConfig(rdir))
		f.replicas = append(f.replicas, s)
		if _, err := s.WarmStart(rdir); err != nil {
			f.stop()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		url, err := f.serve(rec.wrapHandler("serve", s.Handler(), serve.SeqBaseHeader))
		if err != nil {
			f.stop()
			return nil, err
		}
		urls = append(urls, url)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	if f.routerURL, err = f.serve(rec.wrapHandler("router", rt.Handler(), benchSeqHeader)); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// serve serves h on a fresh loopback port and returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	f.https = append(f.https, srv)
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		f.done <- err
	}()
	return "http://" + ln.Addr().String(), nil
}

// quiesce waits until every replica has applied everything admitted.
func (f *fleet) quiesce() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, s := range f.replicas {
		if err := s.Quiesce(ctx); err != nil {
			return err
		}
	}
	return nil
}

// stop shuts the HTTP servers, then drains every replica, and waits for
// all serving goroutines to return.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range f.https {
		keep(srv.Shutdown(ctx))
	}
	for range f.https {
		keep(<-f.done)
	}
	for _, s := range f.replicas {
		keep(s.Shutdown(ctx))
	}
	f.client.CloseIdleConnections()
	f.reader.CloseIdleConnections()
	return first
}

// get fetches routerURL+path over the reader connection.
func (f *fleet) get(path string) ([]byte, error) {
	resp, err := f.reader.Get(f.routerURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %.200s", path, resp.Status, body)
	}
	if h := resp.Header.Get(router.DegradedHeader); h != "" {
		return nil, fmt.Errorf("GET %s: degraded: %s", path, h)
	}
	return body, nil
}

// checkReads issues every read through the router and books each as
// one operation, failed when the request fails or the body differs from
// its reference.
func (f *fleet) checkReads(reads []read, out *outcome) {
	for _, r := range reads {
		body, err := f.get(r.path)
		if err == nil {
			err = r.check(body)
		}
		out.checkErr(err)
	}
}

// batchResult is one ingest batch as the open-loop generator saw it.
type batchResult struct {
	due, sent, done time.Time
	lines           int
	status          int
	err             error
}

func (b batchResult) ok() bool { return b.err == nil && b.status == http.StatusAccepted }

// latency is due → response: it includes any wait the batch spent
// behind earlier batches on the ordered connection.
func (b batchResult) latency() time.Duration { return b.done.Sub(b.due) }
func (b batchResult) late() time.Duration    { return b.sent.Sub(b.due) }

// replay sends batches in order over f's single ingest connection, open
// loop at rate lines/s from start: batch k is due when the lines before
// it would have been offered at that rate, and is sent at its due time
// or, if the connection is still busy, as soon as it frees. offset is
// the line offset of batches[0] in the router's sequence (the traced
// run's request id). stop, when closed, ends the replay early.
func (f *fleet) replay(batches [][]byte, lines []int, rate float64, offset int, rec *recorder, stop <-chan struct{}) []batchResult {
	out := make([]batchResult, 0, len(batches))
	start := time.Now()
	cum := 0
	for k, body := range batches {
		due := start.Add(time.Duration(float64(cum) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-stop:
				return out
			}
		} else {
			select {
			case <-stop:
				return out
			default:
			}
		}
		req := strconv.Itoa(offset + cum)
		id := rec.begin("bench.ingest", 0, req)
		res := batchResult{due: due, sent: time.Now(), lines: lines[k]}
		res.status, res.err = f.post(body, req)
		res.done = time.Now()
		rec.end(id)
		out = append(out, res)
		cum += lines[k]
	}
	return out
}

// post sends one batch to the router's /ingest.
func (f *fleet) post(body []byte, req string) (int, error) {
	r, err := http.NewRequest(http.MethodPost, f.routerURL+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	r.Header.Set("Content-Type", "text/plain")
	r.Header.Set(serve.SourceHeader, "bench")
	r.Header.Set(benchSeqHeader, req)
	resp, err := f.client.Do(r)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// splitBatches cuts a console log into batches of n lines (the last
// may be shorter). Every batch aliases log.
func splitBatches(log []byte, n int) (batches [][]byte, lines []int) {
	for len(log) > 0 {
		end, count := 0, 0
		for count < n && end < len(log) {
			i := bytes.IndexByte(log[end:], '\n')
			if i < 0 {
				end = len(log)
			} else {
				end += i + 1
			}
			count++
		}
		batches = append(batches, log[:end])
		lines = append(lines, count)
		log = log[end:]
	}
	return batches, lines
}

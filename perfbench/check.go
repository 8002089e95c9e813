package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"runtime"
	"runtime/debug"
	"time"

	"titanre/internal/console"
	"titanre/internal/core"
	"titanre/internal/serve"
	"titanre/internal/sim"
	"titanre/internal/store"
	"titanre/internal/xid"
)

// Output checks for the live path: every read the benchmark issues has
// an expected body computed by the batch pipeline (core.Study) over the
// same events, and the live answer must equal it byte for byte.

// renderJSON renders v exactly as titand and titanrouter write a
// response body.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceSlack is how far the process may grow while the benchmark
// computes references.
const referenceSlack = 64 << 20

// bounded runs fn — the benchmark's own reference computation — under a
// soft memory limit just above the process's current footprint, so its
// short-lived garbage is collected promptly instead of setting the peak
// RSS, which is meant to measure the live stack.
func bounded(fn func() error) error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prev := debug.SetMemoryLimit(int64(ms.Sys-ms.HeapReleased) + referenceSlack)
	defer func() {
		debug.SetMemoryLimit(prev)
		runtime.GC()
	}()
	return fn()
}

// read is one router read with its expected body (nil: not checked).
type read struct {
	kind string // "point", "scan" or "alerts"
	path string
	q    string // the titanql expression of a /query read
	want []byte
}

// check compares a response body with the read's reference.
func (r read) check(got []byte) error {
	if r.want == nil || bytes.Equal(got, r.want) {
		return nil
	}
	return fmt.Errorf("GET %s: response differs from the batch reference (%d vs %d bytes)", r.path, len(got), len(r.want))
}

// studyOf wraps events in a batch study (only Events is consulted by
// Query, Rollup, TopOffenderCards and Alerts).
func studyOf(cfg sim.Config, events []console.Event) *core.Study {
	return core.FromResult(&sim.Result{Config: cfg, Events: events})
}

// queryRead is a titanql read checked against Study.Query.
func queryRead(s *core.Study, kind, q string) (read, error) {
	doc, err := s.Query(q, 1)
	if err != nil {
		return read{}, fmt.Errorf("reference %q: %w", q, err)
	}
	want, err := renderJSON(doc)
	return read{kind: kind, path: "/query?" + url.Values{"q": {q}}.Encode(), q: q, want: want}, err
}

// rollupRead is a /rollup read checked against Study.Rollup.
func rollupRead(s *core.Study, params url.Values, spec store.RollupSpec) (read, error) {
	doc, err := s.Rollup(spec)
	if err != nil {
		return read{}, fmt.Errorf("reference rollup %s: %w", params.Encode(), err)
	}
	want, err := renderJSON(doc)
	return read{kind: "scan", path: "/rollup?" + params.Encode(), want: want}, err
}

// topRead is a /top read checked against Study.TopOffenderCards.
func topRead(s *core.Study, params url.Values, spec store.TopSpec) (read, error) {
	doc, err := s.TopOffenderCards(spec)
	if err != nil {
		return read{}, fmt.Errorf("reference top %s: %w", params.Encode(), err)
	}
	want, err := renderJSON(doc)
	return read{kind: "scan", path: "/top?" + params.Encode(), want: want}, err
}

// alertsRead is the /alerts read checked against Study.Alerts with the
// replicas' detector configuration.
func alertsRead(s *core.Study) (read, error) {
	want, err := renderJSON(serve.AlertViews(s.Alerts(serve.DefaultConfig().Alerts)))
	return read{kind: "alerts", path: "/alerts", want: want}, err
}

// scanReads are the fleet-wide full-history reads (the Fig 3a and
// Fig 14 shapes), bounded above by until when it is non-zero.
func scanReads(s *core.Study, until time.Time) ([]read, error) {
	var out []read
	all, untilQ, untilP := "*", "", ""
	if !until.IsZero() {
		untilP = until.UTC().Format(time.RFC3339)
		untilQ = " until=" + untilP
		all = "until=" + untilP
	}
	withUntil := func(v url.Values) url.Values {
		if untilP != "" {
			v.Set("until", untilP)
		}
		return v
	}
	r, err := topRead(s, withUntil(url.Values{"by": {"node"}, "k": {"20"}}),
		store.TopSpec{By: store.TopByNode, K: 20, Until: until})
	if err != nil {
		return nil, err
	}
	out = append(out, r)
	if r, err = topRead(s, withUntil(url.Values{"by": {"serial"}, "k": {"50"}, "code": {"sbe"}}),
		store.TopSpec{By: store.TopBySerial, K: 50, FilterCode: true, Code: xid.SingleBitError, Until: until}); err != nil {
		return nil, err
	}
	out = append(out, r)
	if r, err = rollupRead(s, withUntil(url.Values{"by": {"cabinet"}, "bucket": {"720h"}, "code": {"48"}}),
		store.RollupSpec{ByCabinet: true, Bucket: 720 * time.Hour, FilterCode: true, Code: xid.DoubleBitError, Until: until}); err != nil {
		return nil, err
	}
	out = append(out, r)
	if r, err = rollupRead(s, withUntil(url.Values{"by": {"code,cabinet"}, "bucket": {"24h"}}),
		store.RollupSpec{ByCode: true, ByCabinet: true, Bucket: 24 * time.Hour, Until: until}); err != nil {
		return nil, err
	}
	out = append(out, r)
	for _, q := range []string{
		all + " | by cabinet | bucket 30d",
		"code=sbe" + untilQ + " | top node 50",
	} {
		if r, err = queryRead(s, "scan", q); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
